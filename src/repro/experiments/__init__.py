"""One module per paper table/figure (see DESIGN.md §4 for the index).

Every module exposes ``run(scale=..., seed=...) -> <result dataclass>`` and
``format_result(result) -> str`` so that the ``python -m repro.experiments``
targets, the ``examples/`` scripts, and the tests share one implementation.  Scale
presets live in :mod:`repro.experiments.common`: "quick" keeps wall time
in CI territory and "default" runs more processes and fit points
(EXPERIMENTS.md records which scale produced the recorded numbers).
There is no "paper" scale at the paper's process counts and fit budgets
yet (ROADMAP item 1).
"""

from repro.experiments import common

__all__ = ["common"]
