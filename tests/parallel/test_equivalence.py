"""Determinism contract of the parallel campaign executor.

The parallel executor must reproduce the serial campaign exactly (same
seeds, same submission order, same floats).  (That the delay pools'
chunk size cannot change a draw is pinned on ``UniformPool`` itself, in
``tests/simmpi/test_network.py``; the engine takes no chunk argument.)

A skip here fails the test session (``EXPECTED_SKIPS`` in
``tests/conftest.py``), so the equivalence evidence cannot silently
disappear.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.machines import JUPITER
from repro.experiments.common import (
    QUICK,
    run_sync_accuracy_campaign,
)

TINY = replace(QUICK, num_nodes=4, ranks_per_node=2, nfitpoints=8,
               nexchanges=6, nmpiruns=2)

LABELS = ["hca3/recompute_intercept/8/skampi_offset/6",
          "jk/8/skampi_offset/3"]


class TestCampaignSerialParallelIdentity:
    def test_parallel_campaign_bit_identical_to_serial(self):
        serial = run_sync_accuracy_campaign(
            JUPITER, LABELS, scale=TINY, seed=3, jobs=1
        )
        parallel = run_sync_accuracy_campaign(
            JUPITER, LABELS, scale=TINY, seed=3, jobs=3
        )
        assert len(serial.runs) == len(LABELS) * TINY.nmpiruns
        assert len(serial.runs) == len(parallel.runs)
        for s, p in zip(serial.runs, parallel.runs):
            assert s.label == p.label
            assert s.duration == p.duration  # exact, not approx
            assert s.max_offsets == p.max_offsets

    def test_campaign_reproducible_across_calls(self):
        a = run_sync_accuracy_campaign(
            JUPITER, LABELS, scale=TINY, seed=5, jobs=2
        )
        b = run_sync_accuracy_campaign(
            JUPITER, LABELS, scale=TINY, seed=5, jobs=2
        )
        for x, y in zip(a.runs, b.runs):
            assert x.duration == y.duration
            assert x.max_offsets == y.max_offsets
