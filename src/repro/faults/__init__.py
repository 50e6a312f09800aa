"""Fault injection: scheduled clock/network/process perturbations.

The paper bounds the validity of a linear clock model to ~0–20 s
(Section III-C2), motivates periodic re-synchronization because real
clocks and networks misbehave, and builds its hierarchy on honest clocks
and well-behaved links.  This package provides the controlled
misbehaviour, faults of the machine and moves of an adversary alike:
typed disturbance kinds (:mod:`repro.faults.model`), a deterministic
scenario container (:mod:`repro.faults.schedule`), the engine-side
injector (:mod:`repro.faults.injector`), preset scenarios
(:mod:`repro.faults.scenarios`), and a recovery-evaluation harness
(:mod:`repro.faults.evaluate`).  The degradation cells and the fuzzer
that run scenarios against sync algorithms are :mod:`repro.scenarios`.

Usage::

    from repro.faults import make_scenario
    from repro.simmpi import Simulation

    sim = Simulation(machine=..., network=..., seed=42,
                     faults=make_scenario("ntp_step"))

Every injection lands at an exact virtual time, is reproducible from the
simulation seed, and is emitted through the :mod:`repro.obs` event
stream so Perfetto traces show fault windows as spans.
"""

from repro.faults.model import (
    FAULT_TYPES,
    ByzantineClockAdversary,
    ChurnAdversary,
    ClockFrequencyFault,
    ClockStepFault,
    CongestionAdversary,
    DelayAttackAdversary,
    Fault,
    LinkFault,
    NicStormFault,
    RegionTopologyAdversary,
    StragglerFault,
    fault_from_dict,
)
from repro.faults.injector import FaultInjector, apply_clock_faults
from repro.faults.schedule import DEFAULT_ERROR_BUDGET, FaultSchedule
from repro.faults.scenarios import SCENARIOS, make_scenario

__all__ = [
    "ByzantineClockAdversary",
    "ChurnAdversary",
    "ClockFrequencyFault",
    "ClockStepFault",
    "CongestionAdversary",
    "DEFAULT_ERROR_BUDGET",
    "DelayAttackAdversary",
    "FAULT_TYPES",
    "Fault",
    "FaultInjector",
    "FaultSchedule",
    "LinkFault",
    "NicStormFault",
    "RegionTopologyAdversary",
    "SCENARIOS",
    "StragglerFault",
    "apply_clock_faults",
    "fault_from_dict",
    "make_scenario",
]
