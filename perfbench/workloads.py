"""The seven perfbench workloads: one timed op and one untimed verifier each.

An op calls only public functions of ``repro`` and builds every input
from the seed, so two ops with one seed do identical simulated work and
their samples differ by host noise alone.  ``run`` is the timed region
(build inputs, construct, run, format); ``verify`` runs after the clock
stops and turns the raw result into an :class:`Outcome`: the checks that
failed, the simulated fingerprint, and the counts later layers divide by.

Imports of ``repro`` live inside the functions on purpose: a child pays
only for the modules its own workload needs, and pays inside ``setup_s``.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable

RANKS_PER_NODE = 4
#: Node count of the p > 64 sync workloads under ``--smoke`` (p = 64).
SMOKE_NODES = 16

FLAT_LABEL = "hca3/recompute_intercept/8/skampi_offset/4"
H2HCA_LABEL = "Top/hca3/8/skampi_offset/4/Bottom/ClockPropagation"
JK_LABEL = "jk/8/skampi_offset/4"

#: Accuracy ceilings for the HCA-family labels of ``campaign_quick``
#: (seconds).  Seeds 0..39 peak at 0.11 us and 39 us.
CAMPAIGN_MAX_OFFSET_0S = 1e-6
CAMPAIGN_MAX_OFFSET_10S = 100e-6

#: ``service_slo`` quick-scale cells that meet the 25 us SLO on every seed
#: probed (0..39); cell 2, ``periodic[20]``, is the sweep's designed miss.
SERVICE_CELLS_MEETING_SLO = (0, 1, 3, 4)


class SpanLog:
    """Benchmark-side spans, kept in memory until the child exits.

    One record per span: ``(op, name, start, end, parent)`` with
    ``parent`` the index of the enclosing span (None at the top) and
    ``op`` the index of the op that caused it, shared by all its spans.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self.op, name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (self.op, name, start, end, parent)

    def seconds_by_name(self, op: int) -> dict[str, float]:
        """Summed duration of each span name within one op."""
        out: dict[str, float] = {}
        for span_op, name, start, end, _parent in self.spans:
            if span_op == op:
                out[name] = out.get(name, 0.0) + (end - start)
        return out


class NoSpans:
    """Tracing off: ``span`` costs one attribute load and a shared no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null


@dataclass
class Outcome:
    """What ``verify`` makes of one op's raw result."""

    #: Checks that failed; empty means the op's output is correct.
    failures: list[str]
    #: Simulated facts that must repeat exactly for one seed.
    fingerprint: dict[str, Any]
    #: Fixed work of the op and its unit (``msgs``/``sims``/``queries``).
    work: int
    work_unit: str
    #: Simulated seconds of the sync phase (max over ranks); None where
    #: the workload has no sync phase the benchmark can see from outside.
    sim_sync_s: float | None = None
    #: ``Engine.stats()`` where a public call hands it out.
    engine: dict[str, int] | None = None
    #: Service-layer counts (``service_slo_quick`` only).
    service: dict[str, float] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Timed: ``run(seed, smoke, spans) -> raw``.
    run: Callable[[int, bool, Any], Any]
    #: Untimed: ``verify(raw) -> Outcome``.
    verify: Callable[[Any], Outcome]
    #: Untimed once-per-child check returning failure strings.
    extra_check: Callable[[int], list[str]] | None = None


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _conservation(stats: dict[str, int]) -> list[str]:
    failures = []
    if stats["messages_sent"] != stats["messages_delivered"]:
        failures.append(
            f"sent {stats['messages_sent']} != delivered "
            f"{stats['messages_delivered']}"
        )
    if stats["messages_unreceived"]:
        failures.append(f"{stats['messages_unreceived']} unreceived")
    return failures


# ----------------------------------------------------------------------
# Workloads 1, 2, 3, 7: one clock synchronization
# ----------------------------------------------------------------------
def _sync_workload(
    name: str, why: str, label: str, num_nodes: int, observed: bool = False
) -> Workload:
    def run(seed: int, smoke: bool, spans) -> Any:
        from repro.cluster.netmodels import infiniband_qdr
        from repro.cluster.topology import Machine
        from repro.simmpi.simulation import Simulation
        from repro.sync.registry import algorithm_from_label

        with spans.span("cluster.build"):
            nodes = min(num_nodes, SMOKE_NODES) if smoke else num_nodes
            machine = Machine(nodes, 1, RANKS_PER_NODE, RANKS_PER_NODE)
            network = infiniband_qdr()
            algorithm = algorithm_from_label(label, fitpoint_spacing=1e-3)

            def main(ctx, comm):
                start = ctx.now
                clock = yield from algorithm.sync_clocks(
                    comm, ctx.hardware_clock
                )
                return ctx.now - start, ctx.now, clock

        with spans.span("simmpi.simulation.init"):
            hooks = {}
            if observed:
                from repro.obs import MetricsRegistry, TimeSeriesBank

                hooks = dict(
                    check="strict",
                    metrics=MetricsRegistry(),
                    timeseries=TimeSeriesBank(),
                )
            sim = Simulation(
                machine=machine, network=network, seed=seed, **hooks
            )
        with spans.span("simmpi.simulation.run"):
            return sim.run(main)

    def verify(result) -> Outcome:
        from repro.sync import flatten_clock

        stats = result.engine_stats
        failures = _conservation(stats)
        models = [flatten_clock(value[2]) for value in result.values]
        if not all(
            math.isfinite(coeff)
            for layers in models for model in layers for coeff in model
        ):
            failures.append("non-finite model slope/intercept")
        return Outcome(
            failures=failures,
            fingerprint={
                "messages": stats["messages_sent"],
                "events": stats["events_processed"],
                "final_time": repr(max(v[1] for v in result.values)),
                "result_sha256": _sha256(repr(models)),
            },
            work=stats["messages_sent"],
            work_unit="msgs",
            sim_sync_s=max(v[0] for v in result.values),
            engine=stats,
        )

    return Workload(name, why, run, verify)


# ----------------------------------------------------------------------
# Workload 4: fig9's pipeline, one mpirun
# ----------------------------------------------------------------------
def _collbench_run(seed: int, smoke: bool, spans) -> Any:
    from repro.bench.runner import run_latency_benchmark
    from repro.cluster.machines import TITAN
    from repro.experiments.common import MACHINE_TIME_SOURCES
    from repro.sync.hierarchical import h2hca

    with spans.span("cluster.build"):
        num_nodes = 4 if smoke else 16
        machine = TITAN.machine(num_nodes, 8)
        network = TITAN.network()
        fabric = TITAN.fabric(num_nodes)
        sync_algorithm = h2hca(nfitpoints=15, fitpoint_spacing=2e-3)
    stats: dict[str, Any] = {}
    # Simulation construction happens inside the public call, so init
    # and run share one span here.
    with spans.span("simmpi.simulation.run"):
        measurements = run_latency_benchmark(
            machine=machine,
            network=network,
            suites=["osu", "reprompi"],
            msizes=[8, 1024],
            sync_algorithm=sync_algorithm,
            barrier_algorithm="linear",
            nreps=5 if smoke else 15,
            max_time_slice=0.25,
            time_source=MACHINE_TIME_SOURCES["titan"],
            seed=seed,
            fabric=fabric,
            stats_out=stats,
        )
    return measurements, stats


def _collbench_verify(raw) -> Outcome:
    measurements, stats = raw
    engine = stats["engine"]
    failures = _conservation(engine)
    cells = [
        (m.suite, m.msize, m.report.latency, m.report.nvalid)
        for m in measurements
    ]
    if len(cells) != 4:
        failures.append(f"{len(cells)} cells measured, expected 4")
    if not all(math.isfinite(c[2]) and c[2] > 0.0 for c in cells):
        failures.append("non-finite or non-positive latency")
    if not all(
        math.isfinite(level["mean_abs_slope"])
        for level in stats["sync"].values()
    ):
        failures.append("non-finite model slope")
    return Outcome(
        failures=failures,
        fingerprint={
            "messages": engine["messages_sent"],
            "events": engine["events_processed"],
            "result_sha256": _sha256(repr(cells)),
        },
        work=engine["messages_sent"],
        work_unit="msgs",
        engine=engine,
    )


# ----------------------------------------------------------------------
# Workload 5: two quick accuracy campaigns (24 simulations of p = 16)
# ----------------------------------------------------------------------
def _campaign_run(seed: int, smoke: bool, spans) -> Any:
    from repro.experiments import fig3_flat_algorithms, fig4_hier_jupiter
    from repro.experiments.common import QUICK

    scale = replace(QUICK, nmpiruns=1) if smoke else QUICK
    with spans.span("experiments.run"):
        fig3 = fig3_flat_algorithms.run(scale, seed, jobs=1)
        fig4 = fig4_hier_jupiter.run(scale, seed, jobs=1)
    with spans.span("experiments.format"):
        text = (
            fig3_flat_algorithms.format_result(fig3)
            + "\n"
            + fig4_hier_jupiter.format_result(fig4)
        )
    return fig3, fig4, text


def _campaign_verify(raw) -> Outcome:
    from repro.experiments.common import summary_json

    fig3, fig4, text = raw
    failures = []
    runs = fig3.runs + fig4.runs
    for result in (fig3, fig4):
        for label in result.by_label():
            if label.startswith("jk"):
                continue
            at0 = result.mean_offset(label, 0.0)
            at10 = result.mean_offset(label, 10.0)
            # NaN must fail too, hence the negated comparisons.
            if not at0 <= CAMPAIGN_MAX_OFFSET_0S:
                failures.append(f"{label}: offset@0s {at0:.3g}s")
            if not at10 <= CAMPAIGN_MAX_OFFSET_10S:
                failures.append(f"{label}: offset@10s {at10:.3g}s")
    if not all(math.isfinite(run.duration) for run in runs):
        failures.append("non-finite sync duration")
    return Outcome(
        failures=failures,
        fingerprint={
            "runs": len(runs),
            "result_sha256": _sha256(
                summary_json(fig3) + summary_json(fig4) + text
            ),
        },
        work=len(runs),
        work_unit="sims",
        sim_sync_s=sum(run.duration for run in runs) / len(runs),
    )


# ----------------------------------------------------------------------
# Workload 6: the clock service's policy sweep (no engine)
# ----------------------------------------------------------------------
def _service_run(seed: int, smoke: bool, spans) -> Any:
    from repro.experiments import service_slo

    with spans.span("experiments.run"):
        results = service_slo.run(scale="quick", seed=seed, jobs=1)
    with spans.span("experiments.format"):
        text = service_slo.format_result(results)
    return results, text


def _service_verify(raw) -> Outcome:
    results, _text = raw
    failures = []
    cells = []
    for result in results:
        cell = asdict(result)
        del cell["wall_s"]  # host time; everything else is simulated
        cells.append(cell)
        if not all(
            math.isfinite(v) for v in cell.values() if isinstance(v, float)
        ):
            failures.append(f"{result.policy}: non-finite result field")
    for index in SERVICE_CELLS_MEETING_SLO:
        if not results[index].slo_met:
            failures.append(
                f"{results[index].policy}|{results[index].workload}: "
                f"SLO missed"
            )
    queries = sum(r.queries for r in results)
    hits = sum(r.cache_hits for r in results)
    misses = sum(r.cache_misses for r in results)
    return Outcome(
        failures=failures,
        fingerprint={
            "queries": queries,
            "syncs": sum(r.syncs for r in results),
            "result_sha256": _sha256(repr(cells)),
        },
        work=queries,
        work_unit="queries",
        service={
            "queries": queries,
            "syncs": sum(r.syncs for r in results),
            "cache_hit_ratio": hits / (hits + misses),
            "stale_rate": sum(r.stale_reads for r in results) / queries,
        },
    )


def _service_strict_check(seed: int) -> list[str]:
    """Strict-mode ``run_service`` on the sweep's first cell raises nothing.

    Strict mode replays every batch answer through the scalar model, so
    it runs once per child on a tenth of the cell's duration, not inside
    the timed op.
    """
    from repro.check import checking
    from repro.errors import InvariantViolation
    from repro.service import (
        PeriodicResyncPolicy,
        ServiceConfig,
        WorkloadSpec,
        run_service,
    )

    try:
        with checking("strict"):
            run_service(
                PeriodicResyncPolicy(2.0),
                WorkloadSpec(mode="open", duration=5.0, rate=6000.0),
                ServiceConfig(num_ranks=8),
                seed=seed,
            )
    except InvariantViolation as exc:
        return [f"strict run_service: {exc}"]
    return []


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _sync_workload(
            "sync_flat_p1024",
            "flat HCA3 at 256x4 ranks: queue depth 1023, level cache and "
            "per-rank materialisation; large-p kernel work shows only here",
            FLAT_LABEL, 256,
        ),
        _sync_workload(
            "sync_h2hca_p256",
            "the paper's H2HCA at 64x4: two comm.split ring allgathers are "
            "97% of the messages, so comm + collectives do the work",
            H2HCA_LABEL, 64,
        ),
        _sync_workload(
            "sync_jk_p1024",
            "JK at 256x4: one ping-pong in flight, about 1 event per "
            "message; the same engine and queue used sparsely and serially",
            JK_LABEL, 256,
        ),
        Workload(
            "collbench_p128",
            "fig9's pipeline in one mpirun: bench schemes, collectives, "
            "torus fabric, global-clock reads; 87% of all --scale quick",
            _collbench_run, _collbench_verify,
        ),
        Workload(
            "campaign_quick",
            "fig3 + fig4 quick, 24 sims of p=16: per-simulation fixed cost "
            "dominates; large-p work is predicted to show no change",
            _campaign_run, _campaign_verify,
        ),
        Workload(
            "service_slo_quick",
            "service_slo quick sweep, 1.6M queries on the numpy epoch path: "
            "no engine, so every engine change predicts no change",
            _service_run, _service_verify, _service_strict_check,
        ),
        _sync_workload(
            "sync_flat_p256_observed",
            "flat HCA3 at 64x4 with strict sanitizer, metrics and time "
            "series attached: the engine's loud twin of the quiet path",
            FLAT_LABEL, 64, observed=True,
        ),
    )
}
