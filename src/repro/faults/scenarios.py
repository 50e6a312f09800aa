"""Preset scenarios: the one registry behind every ``--scenario`` flag,
the recovery harness and the degradation table's rows.

Each factory returns a :class:`~repro.faults.schedule.FaultSchedule`
shaped after a disturbance class from the literature:

* ``ntp_step`` — an NTP daemon steps one node's clock mid-run (the
  discipline jump that instantly invalidates a fitted linear model).
* ``thermal_cycle`` — a machine-room temperature swing bends one node's
  oscillator frequency over tens of seconds (Fig. 2's non-linearity,
  concentrated into a window).
* ``congestion_burst`` — inter-node links suffer a latency/jitter storm
  plus NIC backlog build-up (the outliers that invalidate window-based
  measurement, Section II).
* ``straggler_node`` — one node computes slower with heavy OS noise
  (the imbalance source of Figs. 7–8, but asymmetric).
* ``delay_attack`` — asymmetric extra delay on the reference links, the
  attack that defeats two-way time transfer.
* ``byzantine_rank`` — ranks that lie about their timestamps during
  offset measurement.
* ``congested_fabric`` — a CoDel-controlled bottleneck queue on all
  inter-node traffic.
* ``region_tiers`` — NA/EU/AS latency tiers turn the cluster into a
  geo-distributed one.
* ``rank_churn`` — nodes leave and rejoin between campaign rounds.

Factories take explicit times/magnitudes so experiments can scale them;
the defaults fit a 60–120 s evaluation horizon.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.faults.model import (
    ByzantineClockAdversary,
    ChurnAdversary,
    ClockFrequencyFault,
    ClockStepFault,
    CongestionAdversary,
    DelayAttackAdversary,
    LinkFault,
    NicStormFault,
    RegionTopologyAdversary,
    StragglerFault,
)
from repro.faults.schedule import FaultSchedule


def ntp_step(
    at: float = 20.0, step: float = 500e-6, node: int = 1
) -> FaultSchedule:
    """One clock step of ``step`` seconds on ``node`` at true time ``at``."""
    return FaultSchedule(
        name="ntp_step",
        description=(
            f"NTP discipline jump: node {node} clock steps by {step:g}s "
            f"at t={at:g}s"
        ),
        faults=[
            ClockStepFault(start=at, step=step, node=node, name="ntp_step"),
        ],
    )


def thermal_cycle(
    start: float = 15.0,
    length: float = 30.0,
    skew_delta: float = 8e-6,
    node: int = 1,
) -> FaultSchedule:
    """A triangular frequency excursion (thermal ramp) on one node."""
    return FaultSchedule(
        name="thermal_cycle",
        description=(
            f"thermal cycle: node {node} skew ramps by {skew_delta:g} "
            f"over [{start:g}, {start + length:g})s"
        ),
        faults=[
            ClockFrequencyFault(
                start=start,
                length=length,
                skew_delta=skew_delta,
                node=node,
                shape="triangle",
                name="thermal_cycle",
            ),
        ],
    )


def congestion_burst(
    start: float = 20.0,
    length: float = 10.0,
    latency_factor: float = 3.0,
    jitter: float = 20e-6,
    gap_factor: float = 6.0,
) -> FaultSchedule:
    """Inter-node congestion: degraded links plus NIC backlog storms."""
    return FaultSchedule(
        name="congestion_burst",
        description=(
            f"congestion burst on REMOTE links over "
            f"[{start:g}, {start + length:g})s"
        ),
        faults=[
            LinkFault(
                start=start,
                length=length,
                level="REMOTE",
                latency_factor=latency_factor,
                jitter=jitter,
                outlier_prob=0.05,
                outlier_scale=10 * jitter,
                name="congestion_burst",
            ),
            NicStormFault(
                start=start,
                length=length,
                node=None,
                gap_factor=gap_factor,
                name="nic_storm",
            ),
        ],
    )


def straggler_node(
    start: float = 20.0,
    length: float = 15.0,
    node: int = 1,
    slowdown: float = 4.0,
    noise: float = 50e-6,
) -> FaultSchedule:
    """One node's ranks compute ``slowdown``× slower with OS noise."""
    return FaultSchedule(
        name="straggler_node",
        description=(
            f"straggler: node {node} computes {slowdown:g}x slower over "
            f"[{start:g}, {start + length:g})s"
        ),
        faults=[
            StragglerFault(
                start=start,
                length=length,
                node=node,
                slowdown=slowdown,
                noise=noise,
                name="straggler_node",
            ),
        ],
    )


def delay_attack(
    links: Sequence[tuple[int, int]] = ((1, 0),),
    extra_delay: float = 100e-6,
    jitter: float = 10e-6,
) -> FaultSchedule:
    """Asymmetric delay attack on the reference links during sync."""
    return FaultSchedule(
        name="delay_attack",
        description=(
            f"asymmetric extra delay of {extra_delay:g}s on "
            f"{len(tuple(links))} directed link(s) — defeats two-way "
            f"time transfer"
        ),
        faults=[
            DelayAttackAdversary(
                links=tuple(links),
                extra_delay=extra_delay,
                jitter=jitter,
            ),
        ],
    )


def byzantine_rank(
    ranks: Sequence[int] = (1,),
    bias: float = 200e-6,
    noise: float = 20e-6,
) -> FaultSchedule:
    """Ranks that lie about their timestamps during offset measurement."""
    return FaultSchedule(
        name="byzantine_rank",
        description=(
            f"rank(s) {tuple(ranks)} shift every sync timestamp by "
            f"{bias:g}s (+{noise:g}s noise)"
        ),
        faults=[
            ByzantineClockAdversary(
                ranks=tuple(ranks), bias=bias, noise=noise
            ),
        ],
    )


def congested_fabric(
    service_time: float = 15e-6,
    codel_target: float = 60e-6,
    codel_interval: float = 0.05,
) -> FaultSchedule:
    """A CoDel-controlled bottleneck on all inter-node traffic."""
    return FaultSchedule(
        name="congested_fabric",
        description=(
            f"REMOTE bottleneck queue, {service_time:g}s service time, "
            f"CoDel target {codel_target:g}s / interval "
            f"{codel_interval:g}s"
        ),
        faults=[
            CongestionAdversary(
                level="REMOTE",
                service_time=service_time,
                codel_target=codel_target,
                codel_interval=codel_interval,
            ),
        ],
    )


def region_tiers(
    cross_latency: float = 5e-3,
    far_latency: float = 20e-3,
) -> FaultSchedule:
    """NA/EU/AS latency tiers: nearby regions close, AS far from both."""
    return FaultSchedule(
        name="region_tiers",
        description=(
            f"NA/EU/AS regions, {cross_latency:g}s cross-region latency "
            f"({far_latency:g}s to AS)"
        ),
        faults=[
            RegionTopologyAdversary(
                regions=("NA", "EU", "AS"),
                assignment="blocked",
                cross_latency=cross_latency,
                pair_latency=(
                    ("AS|EU", far_latency),
                    ("AS|NA", far_latency),
                ),
            ),
        ],
    )


def rank_churn(
    mode: str = "flap", drop: int = 2, min_nodes: int = 2
) -> FaultSchedule:
    """Nodes leave and rejoin between campaign rounds."""
    return FaultSchedule(
        name="rank_churn",
        description=(
            f"churn mode {mode!r}: {drop} node(s) per event, floor "
            f"{min_nodes}"
        ),
        faults=[
            ChurnAdversary(mode=mode, drop=drop, min_nodes=min_nodes),
        ],
    )


SCENARIOS: dict[str, Callable[..., FaultSchedule]] = {
    "ntp_step": ntp_step,
    "thermal_cycle": thermal_cycle,
    "congestion_burst": congestion_burst,
    "straggler_node": straggler_node,
    "delay_attack": delay_attack,
    "byzantine_rank": byzantine_rank,
    "congested_fabric": congested_fabric,
    "region_tiers": region_tiers,
    "rank_churn": rank_churn,
}


def make_scenario(name: str, **overrides) -> FaultSchedule:
    """Build a preset scenario, optionally overriding factory parameters."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {sorted(SCENARIOS)}"
        ) from None
    return factory(**overrides)
