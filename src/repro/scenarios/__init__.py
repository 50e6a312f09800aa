"""Scenario × algorithm cells and the standing fuzz rig.

The paper's hierarchy assumes honest clocks and well-behaved links; the
disturbances that break those assumptions are fault kinds of
:mod:`repro.faults`.  This package is the harness that runs them against
sync algorithms:

* :mod:`repro.scenarios.runner` — one scenario × algorithm *cell*:
  baseline and adversarial twins from identical seed streams, scored on
  measured offset and ground-truth error (churn reshapes the machine
  between the cell's rounds).
* :mod:`repro.scenarios.strategies` — Hypothesis strategies over the
  scenario space, shared by the fuzzer and the property suite.
* :mod:`repro.scenarios.fuzz` — ``python -m repro.scenarios.fuzz`` draws
  random cells, runs them sanitizer-checked, and shrinks + archives
  violations as replayable JSON repro files.

See DESIGN.md §8.
"""

from repro.scenarios.runner import CellResult, run_scenario_cell

__all__ = ["CellResult", "run_scenario_cell"]
