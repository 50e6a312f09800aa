"""HCA3 — the paper's new algorithm (Algorithm 1).

HCA3 pushes the reference time *down* a binomial tree (the PulseSync idea
adapted to MPI): in each round, a process that already owns a global clock
model acts as a reference and *uses that model when timestamping*, so its
children fit their linear models directly against emulated global time
instead of composing models as HCA2 does.

That does not make its fits fresher.  A rank's slope error follows the
same staleness law as HCA2's (see :mod:`repro.sync.hca`): one term per
hop of its tree path, the hop's frozen skew difference over its fit
window.  HCA3 fits strides p/2 → 1, so the cross-node hops (stride ≥ the
ranks per node) come first, and under a skew walk they are its stalest
terms at the end of the sync, while HCA2's stale early hops are
intra-node and cancel.  At 32×16 on Jupiter with the walk preset HCA3's
10 s error is the larger of the two; with the walk off they tie.

Round structure for p processes (nrounds = ⌊log₂ p⌋, max_power = 2^nrounds):

* Step 1 (rounds i = nrounds … 1): processes with rank < max_power pair up
  at stride 2^i; each client learns a model against a reference that is
  already synchronized (rank 0 in round nrounds, then the frontier grows).
* Step 2: ranks ≥ max_power (non-power-of-two remainder) each learn from
  rank − max_power.

Every process is a client exactly once and may serve as a reference in all
later rounds — O(log p) rounds total.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.simtime.base import Clock
from repro.sync.base import ModelLearningSync
from repro.sync.clocks import GlobalClockLM, dummy_global_clock
from repro.sync.learn import learn_clock_model

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


class HCA3Sync(ModelLearningSync):
    """Algorithm 1: O(log p) rounds, reference time flows down the tree."""

    name = "hca3"

    def sync_clocks(self, comm: "Communicator", clock: Clock) -> Generator:
        nprocs = comm.size
        rank = comm.rank
        nrounds = (nprocs).bit_length() - 1  # floor(log2(nprocs))
        max_power = 1 << nrounds
        my_clk: GlobalClockLM = dummy_global_clock(clock)

        # Step 1: ranks in [0, max_power) learn down the binomial tree.
        for i in range(nrounds, 0, -1):
            running_power = 1 << i
            next_power = 1 << (i - 1)
            if rank >= max_power:
                break
            if rank % running_power == 0:
                # Reference this round: serve rank + next_power using the
                # global clock model learned so far (my_clk).
                other = rank + next_power
                yield from learn_clock_model(
                    comm,
                    rank,
                    other,
                    my_clk,
                    self.offset_alg,
                    self.nfitpoints,
                    self.recompute_intercept,
                    self.fitpoint_spacing,
                    stats=self.stats,
                    level=self.stats_level,
                    round_index=i,
                    algorithm=self.name,
                )
            elif rank % running_power == next_power:
                # Client this round (each process is a client exactly once).
                other = rank - next_power
                lm = yield from learn_clock_model(
                    comm,
                    other,
                    rank,
                    my_clk,
                    self.offset_alg,
                    self.nfitpoints,
                    self.recompute_intercept,
                    self.fitpoint_spacing,
                    stats=self.stats,
                    level=self.stats_level,
                    round_index=i,
                    algorithm=self.name,
                )
                my_clk = GlobalClockLM(clock, lm)

        # Step 2: the non-power-of-two remainder synchronizes across
        # max_power, against references that are already synchronized.
        if rank >= max_power:
            other = rank - max_power
            lm = yield from learn_clock_model(
                comm,
                other,
                rank,
                my_clk,
                self.offset_alg,
                self.nfitpoints,
                self.recompute_intercept,
                self.fitpoint_spacing,
                stats=self.stats,
                level=self.stats_level,
                round_index=0,
                algorithm=self.name,
            )
            my_clk = GlobalClockLM(clock, lm)
        elif rank < nprocs - max_power:
            other = rank + max_power
            yield from learn_clock_model(
                comm,
                rank,
                other,
                my_clk,
                self.offset_alg,
                self.nfitpoints,
                self.recompute_intercept,
                self.fitpoint_spacing,
                stats=self.stats,
                level=self.stats_level,
                round_index=0,
                algorithm=self.name,
            )
        return my_clk
