"""Deterministic query workloads for the clock service.

Two client populations, both pure functions of a ``SeedSequence`` child
(the methodology of "MPI Benchmarking Revisited": measurement workloads
must be reproducible to be comparable):

* **open loop** — queries arrive as a Poisson process at a fixed rate,
  regardless of how the service responds (a shared tracing backend fed
  by unrelated jobs).
* **closed loop** — a fixed population of clients, each issuing its next
  query one exponential think time after its previous *response* (an
  interactive consumer).  Response times during generation come from the
  service's batching cost model, so a slow batch really does delay its
  clients' next queries.  Rounds are generated wave-by-wave (vectorized
  over the whole population); the driver recomputes final latencies over
  the merged arrival sequence, so cross-wave window sharing is settled
  globally.

Arrivals are *true* simulation times.  Per-query operation and rank
assignments are drawn from the same seed, so one ``WorkloadSpec`` + seed
fixes the entire query stream bit-for-bit — including across the
``--jobs`` process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Query operation codes, in ops-mix order.
OP_NOW, OP_TRANSLATE, OP_COMPARE = 0, 1, 2


#: The service's request batching: queries arriving within one
#: ``BATCH_WINDOW`` (s) are served together at the window boundary, and a
#: batch of ``B`` queries costs ``BATCH_COST_BASE + BATCH_COST_PER_QUERY
#: * B`` seconds of service time.
BATCH_WINDOW = 5e-3
BATCH_COST_BASE = 50e-6
BATCH_COST_PER_QUERY = 0.2e-6


def respond(times: np.ndarray) -> np.ndarray:
    """Completion time of each arrival.

    A query's latency is (window remainder) + batch cost — the batching
    trade-off the tail-latency histograms measure.  Pure and vectorized:
    arrivals map to window indices, window populations come from one
    ``bincount``, and each window's per-query cost is priced once.
    Temporaries are reused in place, so the call holds at most three
    arrays of the input's length.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size == 0:
        return np.empty(0, dtype=np.float64)
    windows = times / BATCH_WINDOW
    np.floor(windows, out=windows)
    windows = windows.astype(np.int64)
    base = int(windows.min())
    windows -= base
    cost = (BATCH_COST_PER_QUERY * np.bincount(windows))[windows]
    windows += base + 1
    done = windows * BATCH_WINDOW
    done += BATCH_COST_BASE
    done += cost
    return done


@dataclass(frozen=True)
class WorkloadSpec:
    """One client population: arrival process + query shape mix."""

    #: ``"open"`` (rate-driven) or ``"closed"`` (population-driven).
    mode: str = "open"
    #: Length of the generated arrival stream, seconds.
    duration: float = 60.0
    #: Open loop: mean arrivals per second.
    rate: float = 10_000.0
    #: Closed loop: number of concurrent simulated clients.
    clients: int = 100_000
    #: Closed loop: mean think time between response and next query.
    think_time: float = 5.0
    #: Probability of (now, translate, compare) per query.
    ops_mix: tuple[float, float, float] = (0.6, 0.3, 0.1)

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ConfigurationError(f"unknown workload mode {self.mode!r}")
        if self.duration <= 0.0:
            raise ConfigurationError("duration must be > 0")
        if self.mode == "open" and self.rate <= 0.0:
            raise ConfigurationError("open-loop rate must be > 0")
        if self.mode == "closed" and (
            self.clients <= 0 or self.think_time <= 0.0
        ):
            raise ConfigurationError(
                "closed loop needs clients > 0 and think_time > 0"
            )
        if len(self.ops_mix) != 3 or not np.isclose(sum(self.ops_mix), 1.0):
            raise ConfigurationError("ops_mix must be 3 weights summing to 1")

    def label(self) -> str:
        if self.mode == "open":
            return f"open[{self.rate:g}/s]"
        return f"closed[{self.clients}c,{self.think_time:g}s]"


@dataclass(frozen=True)
class QueryStream:
    """The generated workload: parallel per-query arrays, time-sorted."""

    #: Arrival true times (sorted, within ``[0, duration)``).
    times: np.ndarray
    #: Operation per query (``OP_NOW``/``OP_TRANSLATE``/``OP_COMPARE``).
    ops: np.ndarray
    #: Primary rank (the client's clock domain).
    ranks: np.ndarray
    #: Secondary rank (translate destination / compare counterpart).
    ranks2: np.ndarray

    def __len__(self) -> int:
        return self.times.size


def _open_arrivals(
    spec: WorkloadSpec, rng: np.random.Generator
) -> np.ndarray:
    """Poisson arrivals over ``[0, duration)``, generated in one draw."""
    times: list[np.ndarray] = []
    last = 0.0
    while last < spec.duration:
        n = max(1024, int(spec.rate * (spec.duration - last) * 1.1))
        gaps = rng.exponential(1.0 / spec.rate, size=n)
        chunk = last + np.cumsum(gaps)
        times.append(chunk)
        last = float(chunk[-1])
    merged = np.concatenate(times)
    return merged[merged < spec.duration]


def _closed_arrivals(
    spec: WorkloadSpec, rng: np.random.Generator
) -> np.ndarray:
    """Wave-based closed loop: think → query → batched response → think."""
    # Staggered start: clients come online over one think period.
    pending = rng.uniform(0.0, spec.think_time, size=spec.clients)
    waves: list[np.ndarray] = []
    while True:
        live = pending[pending < spec.duration]
        if live.size == 0:
            break
        waves.append(live)
        done = respond(live)
        thinks = rng.exponential(spec.think_time, size=pending.size)
        next_pending = np.full(pending.size, np.inf)
        next_pending[pending < spec.duration] = done + thinks[
            : live.size
        ]
        pending = next_pending
    return np.concatenate(waves) if waves else np.empty(0)


def generate(
    spec: WorkloadSpec,
    num_ranks: int,
    seed: np.random.SeedSequence | int,
) -> QueryStream:
    """Generate the full query stream for one service run.

    Deterministic: the stream is a pure function of ``(spec, num_ranks,
    seed)``.  Closed-loop generation uses the batching model
    (:func:`respond`) for the response times its arrivals feed back on.
    """
    if num_ranks < 2:
        raise ConfigurationError("need at least 2 ranks to query across")
    rng = np.random.default_rng(seed)
    if spec.mode == "open":
        times = _open_arrivals(spec, rng)
    else:
        times = _closed_arrivals(spec, rng)
    times.sort(kind="stable")
    n = times.size
    ops = rng.choice(3, size=n, p=np.asarray(spec.ops_mix)).astype(np.int8)
    ranks = rng.integers(0, num_ranks, size=n, dtype=np.int64)
    # Secondary rank, guaranteed distinct from the primary:
    # (ranks + 1 + draw) % num_ranks, computed in place on the draw.
    ranks2 = rng.integers(0, num_ranks - 1, size=n, dtype=np.int64)
    ranks2 += ranks
    ranks2 += 1
    ranks2 %= num_ranks
    return QueryStream(times=times, ops=ops, ranks=ranks, ranks2=ranks2)
