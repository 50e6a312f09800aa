"""Hypothesis strategies over the adversarial scenario space.

Shared by the standing fuzzer (:mod:`repro.scenarios.fuzz`) and the
property suite (``tests/properties``) — one source of truth for what "a
random scenario" means, so a fuzzer repro shrunk by Hypothesis is drawn
from exactly the distribution the properties pin down.

Every strategy produces *valid* inputs for the job shape it is given
(the registry's own validation has unit tests); parameter magnitudes
come from small sampled pools so shrinking converges on readable
minimal examples.  ``hostile=True`` cranks the magnitudes and shrinks
the error budget — the mode CI smoke runs use to guarantee the
violation-archiving path is exercised deterministically.

This module imports :mod:`hypothesis` at the top level on purpose;
``repro.scenarios`` itself does not re-export it, so the cell runner
stays importable without Hypothesis installed.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.faults.model import (
    ByzantineClockAdversary,
    ChurnAdversary,
    CongestionAdversary,
    DelayAttackAdversary,
    LinkFault,
    RegionTopologyAdversary,
)
from repro.faults.schedule import FaultSchedule

#: Valid labels spanning all six algorithm families the fuzzer targets
#: (JK, HCA, HCA2, HCA3, hierarchical HCA, ClockPropagation).
CELL_LABELS = (
    "jk/4/skampi_offset/4",
    "jk/4/mean_rtt_offset/4",
    "hca/4/skampi_offset/4",
    "hca2/4/skampi_offset/4",
    "hca3/recompute_intercept/4/skampi_offset/4",
    "Top/hca3/4/skampi_offset/4/Bottom/ClockPropagation",
)

labels = st.sampled_from(CELL_LABELS)


def _ranks(num_ranks: int):
    """Non-reference ranks (rank 0 anchors every offset table)."""
    return st.integers(min_value=1, max_value=max(1, num_ranks - 1))


@st.composite
def links(draw, num_ranks: int):
    """One valid directed link (src, dst) with src != dst."""
    src = draw(st.integers(min_value=0, max_value=num_ranks - 1))
    dst = draw(
        st.integers(min_value=0, max_value=num_ranks - 2).map(
            lambda d: d if d < src else d + 1
        )
    )
    return (src, dst)


@st.composite
def byzantine_adversaries(draw, num_ranks: int, hostile: bool = False):
    scale = 50.0 if hostile else 1.0
    return ByzantineClockAdversary(
        ranks=(draw(_ranks(num_ranks)),),
        bias=scale * draw(st.sampled_from([-200e-6, 50e-6, 200e-6])),
        noise=scale * draw(st.sampled_from([0.0, 10e-6])),
    )


@st.composite
def delay_attack_adversaries(draw, num_ranks: int, hostile: bool = False):
    scale = 50.0 if hostile else 1.0
    return DelayAttackAdversary(
        links=(draw(links(num_ranks)),),
        extra_delay=scale * draw(st.sampled_from([20e-6, 100e-6])),
        factor=draw(st.sampled_from([1.0, 2.0])),
        jitter=scale * draw(st.sampled_from([0.0, 10e-6])),
    )


@st.composite
def congestion_adversaries(draw, num_ranks: int, hostile: bool = False):
    scale = 20.0 if hostile else 1.0
    if draw(st.booleans()):
        where = {"level": "REMOTE", "links": ()}
    else:
        where = {"level": None, "links": (draw(links(num_ranks)),)}
    return CongestionAdversary(
        service_time=scale * draw(st.sampled_from([5e-6, 20e-6])),
        codel_target=draw(st.sampled_from([50e-6, 200e-6])),
        codel_interval=draw(st.sampled_from([0.05, 0.2])),
        **where,
    )


@st.composite
def region_adversaries(draw, num_nodes: int, hostile: bool = False):
    scale = 20.0 if hostile else 1.0
    return RegionTopologyAdversary(
        regions=draw(
            st.sampled_from([("NA", "EU"), ("NA", "EU", "AS")])
        ),
        assignment=draw(st.sampled_from(["blocked", "round_robin"])),
        cross_latency=scale * draw(st.sampled_from([1e-3, 5e-3])),
    )


@st.composite
def churn_adversaries(draw, num_nodes: int):
    return ChurnAdversary(
        mode=draw(st.sampled_from(["flap", "shrink"])),
        period=draw(st.integers(min_value=1, max_value=2)),
        drop=draw(st.integers(min_value=1, max_value=max(1, num_nodes - 2))),
        min_nodes=2,
    )


def adversaries(
    num_ranks: int,
    num_nodes: int,
    hostile: bool = False,
    include_churn: bool = True,
):
    """One adversary of any kind, valid for the given job shape."""
    pool = [
        byzantine_adversaries(num_ranks, hostile=hostile),
        delay_attack_adversaries(num_ranks, hostile=hostile),
        congestion_adversaries(num_ranks, hostile=hostile),
        region_adversaries(num_nodes, hostile=hostile),
    ]
    if include_churn and num_nodes > 2:
        pool.append(churn_adversaries(num_nodes))
    return st.one_of(pool)


@st.composite
def link_faults(draw, num_ranks: int, horizon: float = 1.0):
    """One link-keyed :class:`LinkFault` (or a broadcast one)."""
    src, dst = draw(links(num_ranks))
    directed = draw(st.booleans())
    return LinkFault(
        start=draw(st.sampled_from([0.0, horizon * 0.2])),
        length=horizon * 0.5,
        latency_factor=draw(st.sampled_from([2.0, 5.0])),
        src=src if directed else None,
        dst=dst if directed else None,
    )


@st.composite
def scenarios(
    draw,
    num_ranks: int,
    num_nodes: int,
    max_adversaries: int = 2,
    hostile: bool = False,
):
    """A valid scenario: 1..max adversaries, optionally plus a link fault.

    When a churn adversary is drawn, every rank/link-keyed adversary and
    fault is keyed inside the churn *floor* shape (min_nodes nodes), so
    it stays in range — and keeps matching — on every churned round.
    """
    n = draw(st.integers(min_value=1, max_value=max_adversaries))
    entries = []
    key_ranks, key_nodes = num_ranks, num_nodes
    if num_nodes > 2 and draw(st.booleans()):
        churn = draw(churn_adversaries(num_nodes))
        entries.append(churn)
        key_nodes = churn.min_nodes
        key_ranks = key_nodes * (num_ranks // num_nodes)
    while len(entries) < n:
        entries.append(draw(adversaries(
            key_ranks, key_nodes, hostile=hostile, include_churn=False,
        )))
    fault = draw(st.one_of(st.none(), link_faults(key_ranks)))
    if fault is not None:
        entries.append(fault)
    budget = (
        draw(st.sampled_from([1e-6, 10e-6]))
        if hostile
        else draw(st.sampled_from([10e-3, 50e-3]))
    )
    return FaultSchedule(name="fuzz", faults=entries, error_budget=budget)


@st.composite
def cells(draw, hostile: bool = False):
    """One fuzzer work item: scenario × algorithm × shape, as a dict.

    The dict is exactly the payload archived in a repro file — primitive
    JSON all the way down — and the input
    :func:`repro.scenarios.fuzz.run_cell` consumes.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=4))
    ranks_per_node = draw(st.integers(min_value=1, max_value=2))
    num_ranks = num_nodes * ranks_per_node
    scenario = draw(
        scenarios(num_ranks, num_nodes, hostile=hostile)
    )
    return {
        "scenario": scenario.to_dict(),
        "label": draw(labels),
        "num_nodes": num_nodes,
        "ranks_per_node": ranks_per_node,
        "rounds": draw(st.integers(min_value=1, max_value=2)),
        "seed": draw(st.integers(min_value=0, max_value=2**16 - 1)),
    }
