"""One module per paper table/figure (see DESIGN.md §4 for the index).

Every module exposes ``run(scale=..., seed=...) -> <result dataclass>`` and
``format_result(result) -> str`` so that the ``python -m repro.experiments``
targets, the ``examples/`` scripts, and the tests share one implementation.  Scale
presets live in :mod:`repro.experiments.common`; "quick" keeps wall time
in CI territory, "paper" approaches the paper's shapes (EXPERIMENTS.md
records which scale produced the recorded numbers).
"""

from repro.experiments import common

__all__ = ["common"]
