"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import os
from math import log1p

import pytest

try:  # Hypothesis profiles for tests/properties (absent → plain pytest).
    from hypothesis import settings as _hyp_settings

    # "dev" (default): random examples, no deadline (simulations vary in
    # wall time).  "ci": additionally derandomized so property failures
    # are reproducible across CI reruns; select with HYPOTHESIS_PROFILE.
    _hyp_settings.register_profile("dev", deadline=None)
    _hyp_settings.register_profile(
        "ci", deadline=None, derandomize=True, print_blob=True
    )
    _hyp_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover
    pass

from repro.cluster.netmodels import ideal_network, infiniband_qdr
from repro.cluster.topology import Machine
from repro.faults.schedule import FaultSchedule
from repro.simmpi.simulation import Simulation
from repro.simtime.sources import CLOCK_GETTIME, TimeSourceSpec

#: A time source with zero noise knobs for exact-value tests.
PERFECT_TIME = TimeSourceSpec(
    name="perfect",
    offset_scale=0.0,
    offset_is_uniform=False,
    skew_scale=0.0,
    skew_walk_sigma=0.0,
    granularity=0.0,
    read_overhead=0.0,
)


def small_machine(num_nodes: int, ranks_per_node: int) -> Machine:
    """The two-socket test machine :func:`run_spmd` runs on."""
    return Machine(
        num_nodes=num_nodes,
        sockets_per_node=2,
        cores_per_socket=max(1, (ranks_per_node + 1) // 2),
        ranks_per_node=ranks_per_node,
        name="testbox",
    )


def run_spmd(
    body,
    num_nodes: int = 2,
    ranks_per_node: int = 2,
    network=None,
    time_source: TimeSourceSpec = CLOCK_GETTIME,
    seed: int = 0,
    clocks_per: str = "node",
    **sim_kwargs,
):
    """Run an SPMD generator body on a small machine; returns the result.

    ``sim_kwargs`` go to :class:`Simulation` (``sink=``, ``check=``, ...).
    """
    sim = Simulation(
        machine=small_machine(num_nodes, ranks_per_node),
        network=network or ideal_network(),
        time_source=time_source,
        seed=seed,
        clocks_per=clocks_per,
        **sim_kwargs,
    )
    return sim, sim.run(body)


def blocked_ranks(engine) -> list[int]:
    """Ranks currently blocked on a receive or a rendezvous ack (valid
    mid-run, e.g. from an event sink)."""
    return [p.rank for p in engine._procs if p.blocked is not None]


def expected_delay(network, level, size: int) -> float:
    """Mean wire time of a ``size``-byte message at ``level``: base delay
    plus the means of the exponential jitter and outlier terms."""
    p = network.params_for(level)
    return (
        p.latency
        + size / p.bandwidth
        + p.jitter_scale
        + p.outlier_prob * p.outlier_scale
    )


def scalar_delay(network, level, size: int, rng) -> float:
    """The wire time of one message at ``level``, its variates drawn
    straight from ``rng``: the scalar reference for
    :func:`repro.simmpi.network.draw_delay` (one ``rng.random()`` per
    variate, in the same order)."""
    d, jitter, outlier_prob, outlier_scale = network.link(level, size)
    if jitter > 0.0:
        d += jitter * -log1p(-rng.random())
    if outlier_prob > 0.0 and rng.random() < outlier_prob:
        d += outlier_scale * -log1p(-rng.random())
    return d


def bruck_allgather(comm, value, size: int):
    """The Bruck allgather with real blocks, the oracle of
    ``Communicator.split``'s wire messages: ceil(log2 p) rounds at
    doubling distance, ``min(dist, p - dist)`` blocks each way, then one
    rotation puts the list in rank order."""
    rank, nprocs = comm.rank, comm.size
    tag = comm.next_collective_tag()
    blocks = [value]
    dist = 1
    while dist < nprocs:
        count = min(dist, nprocs - dist)
        msg = yield from comm.sendrecv_raw(
            (rank - dist) % nprocs, tag, blocks[:count], size * count,
            source=(rank + dist) % nprocs,
        )
        blocks += msg.payload
        dist <<= 1
    return blocks[nprocs - rank:] + blocks[:nprocs - rank]


def json_round_trip(schedule):
    """``schedule`` rebuilt from its dict after a trip through JSON text."""
    text = json.dumps(schedule.to_dict(), sort_keys=True)
    return FaultSchedule.from_dict(json.loads(text))


def find_zone(prof, *path: str):
    """The profiler zone at ``path`` below the root, or None."""
    node = prof.root
    for name in path:
        node = node.children.get(name)
        if node is None:
            return None
    return node


@pytest.fixture
def jitter_network():
    """A realistic network (jitter, outliers) for statistical tests."""
    return infiniband_qdr()


@pytest.fixture
def perfect_time():
    return PERFECT_TIME
