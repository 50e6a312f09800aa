"""HCA and HCA2 — the merge-based predecessors of HCA3.

Both learn pairwise drift models *up* an inverted binomial tree between raw
local clocks (Fig. 1a): after ⌊log₂ p⌋ + 1 rounds the root holds a model
``cm(0, k)`` for every k — inner nodes forward their subtree's models and
the root composes them (``cm(0,3) = MERGE(cm(0,2), cm(2,3))``).  The root
then distributes the models with ``MPI_Scatter``.

Composing models fitted at different times is not, by itself, where the
error comes from.  The simulator measures one staleness law for HCA2 and
HCA3 alike (ROADMAP.md): a rank's global-clock slope error at the end of
the sync is its own skew minus the root's there, plus, for each hop of
its tree path, the difference of the hop's two clocks' mean skews over
that hop's fit window.  Under a constant skew every term
cancels; under a skew walk a hop fitted early goes stale.  HCA2 fits
strides 1 → p/2, so its early hops are the intra-node ones, whose two
clocks are one node clock and cancel, and its cross-node hops are fitted
last.  HCA3 fits them in the opposite order, so it goes staler: at 32×16
on Jupiter with the walk preset, its rms slope error is 79–113 ppb
against HCA2's 43–63 ppb (seeds 1–3).

HCA additionally re-anchors every client's intercept directly against the
root after the scatter, one client at a time — an O(p) tail that makes HCA
slower but corrects accumulated intercept error at time-of-measurement.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.simtime.base import Clock
from repro.sync.base import GO_TAG, MODEL_BYTES, MODEL_TAG, ModelLearningSync
from repro.sync.clocks import GlobalClockLM, dummy_global_clock
from repro.sync.learn import learn_clock_model
from repro.sync.linear_model import LinearDriftModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.comm import Communicator


class HCA2Sync(ModelLearningSync):
    """O(log p) rounds: learn pairwise models up the tree, merge at root."""

    name = "hca2"

    def _learn_phase(
        self, comm: "Communicator", clock: Clock
    ) -> Generator:
        """Tree learning + scatter; returns this rank's ``cm(0, rank)``.

        Rank 0 returns ``None`` (it is the time source).
        """
        nprocs = comm.size
        rank = comm.rank
        nrounds = (nprocs).bit_length() - 1
        max_power = 1 << nrounds

        # models[k]: cm(rank, k) for every k in our collected subtree.
        models: dict[int, LinearDriftModel] = {}

        # Remainder step first so the extra ranks' models ride up the tree.
        if rank >= max_power:
            p_ref = rank - max_power
            lm = yield from learn_clock_model(
                comm, p_ref, rank, clock, self.offset_alg,
                self.nfitpoints, self.recompute_intercept,
                self.fitpoint_spacing,
                stats=self.stats, level=self.stats_level,
                round_index=0, algorithm=self.name,
            )
            yield from comm.send(p_ref, MODEL_TAG, {rank: lm}, MODEL_BYTES)
        elif rank < nprocs - max_power:
            client = rank + max_power
            yield from learn_clock_model(
                comm, rank, client, clock, self.offset_alg,
                self.nfitpoints, self.recompute_intercept,
                self.fitpoint_spacing,
                stats=self.stats, level=self.stats_level,
                round_index=0, algorithm=self.name,
            )
            msg = yield from comm.recv(client, MODEL_TAG)
            models.update(msg.payload)

        # Binomial rounds: distance doubles; clients push their subtree's
        # models to the reference, which composes them through cm(ref, client).
        if rank < max_power:
            for i in range(1, nrounds + 1):
                step = 1 << i
                half = 1 << (i - 1)
                if rank % step == 0:
                    client = rank + half
                    if client >= max_power:
                        continue
                    yield from learn_clock_model(
                        comm, rank, client, clock, self.offset_alg,
                        self.nfitpoints, self.recompute_intercept,
                        self.fitpoint_spacing,
                        stats=self.stats, level=self.stats_level,
                        round_index=i, algorithm=self.name,
                    )
                    msg = yield from comm.recv(client, MODEL_TAG)
                    incoming: dict[int, LinearDriftModel] = msg.payload
                    cm_ref_client = incoming.pop(client)
                    models[client] = cm_ref_client
                    for desc, cm_client_desc in incoming.items():
                        models[desc] = cm_ref_client.compose(cm_client_desc)
                elif rank % step == half:
                    p_ref = rank - half
                    lm = yield from learn_clock_model(
                        comm, p_ref, rank, clock, self.offset_alg,
                        self.nfitpoints, self.recompute_intercept,
                        self.fitpoint_spacing,
                        stats=self.stats, level=self.stats_level,
                        round_index=i, algorithm=self.name,
                    )
                    payload = {rank: lm}
                    payload.update(models)
                    yield from comm.send(
                        p_ref, MODEL_TAG, payload,
                        MODEL_BYTES * len(payload),
                    )
                    models = {}
                    break  # a client's work in the tree is done

        # Root distributes cm(0, k) to each k with MPI_Scatter.
        if rank == 0:
            buckets: list = [None] * nprocs
            for k, lm in models.items():
                buckets[k] = lm
            my_lm = yield from comm.scatter(
                buckets, root=0, size=MODEL_BYTES
            )
        else:
            my_lm = yield from comm.scatter(None, root=0, size=MODEL_BYTES)
        return my_lm

    def sync_clocks(self, comm: "Communicator", clock: Clock) -> Generator:
        lm = yield from self._learn_phase(comm, clock)
        if comm.rank == 0 or lm is None:
            return dummy_global_clock(clock)
        return GlobalClockLM(clock, lm)


class HCASync(HCA2Sync):
    """HCA2 plus a final O(p) per-client intercept re-anchoring round.

    After the scatter, the root measures the residual offset to every
    client's *global* clock in turn; each client shifts its intercept by
    that residual.  Technically O(p), but the per-client cost is a single
    offset measurement, so it is "often fast enough in practice".
    """

    name = "hca"

    def sync_clocks(self, comm: "Communicator", clock: Clock) -> Generator:
        lm = yield from self._learn_phase(comm, clock)
        rank = comm.rank
        if rank == 0:
            my_clk = dummy_global_clock(clock)
            for client in range(1, comm.size):
                yield from comm.send(client, GO_TAG, None, 1)
                yield from self.offset_alg.measure_offset(
                    comm, my_clk, 0, client
                )
            return my_clk
        global_clk = GlobalClockLM(clock, lm)
        yield from comm.recv(0, GO_TAG)
        measurement = yield from self.offset_alg.measure_offset(
            comm, global_clk, 0, rank
        )
        # Residual offset between global clocks folds into the intercept.
        adjusted = LinearDriftModel(
            slope=lm.slope, intercept=lm.intercept + measurement.offset
        )
        return GlobalClockLM(clock, adjusted)
