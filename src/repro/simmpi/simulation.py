"""High-level facade: wire a machine, clocks, and an SPMD body together.

:class:`Simulation` is the main entry point of the substrate::

    from repro.cluster import jupiter
    from repro.simmpi import Simulation

    spec = jupiter()
    sim = Simulation(machine=spec.machine(8, 4), network=spec.network(),
                     seed=42)

    def main(ctx, comm):
        total = yield from comm.allreduce(ctx.rank)
        return total

    result = sim.run(main)
    assert all(v == sum(range(32)) for v in result.values)

Every rank executes ``main(ctx, comm)`` (a generator function), receiving
its :class:`~repro.simmpi.process.ProcessContext` and a world
:class:`~repro.simmpi.comm.Communicator`.  The returned
:class:`SimulationResult` carries the per-rank return values plus handles
for ground-truth inspection (hardware clocks, true offsets) that the
accuracy experiments use for scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

import numpy as np

from repro.check.config import append_report
from repro.check.sanitizer import CheckReport, SanitizerSink, TeeSink
from repro.cluster.topology import Machine
from repro.context import current_context
from repro.errors import SimulationError
from repro.faults.injector import FaultInjector, apply_clock_faults
from repro.faults.schedule import FaultSchedule
from repro.obs.events import EventSink
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesBank
from repro.prof.core import Profiler
from repro.simmpi.comm import Communicator
from repro.simmpi.engine import Engine
from repro.simmpi.network import NetworkModel
from repro.simmpi.process import ProcessContext
from repro.simtime.hardware import HardwareClock
from repro.simtime.sources import CLOCK_GETTIME, TimeSourceSpec, make_clock


@dataclass
class SimulationResult:
    """Outcome of one simulated MPI job."""

    #: Per-rank return values of the SPMD body.
    values: list[Any]
    #: Total number of point-to-point messages delivered.
    messages: int
    #: Ground-truth hardware clock of each rank.
    clocks: list[HardwareClock]
    #: The machine the job ran on.
    machine: Machine
    #: Engine counter snapshot (messages/bytes delivered, stalls, ...).
    engine_stats: dict[str, int] = field(default_factory=dict)
    #: The event sink the job ran with, if any (holds recorded events).
    sink: EventSink | None = None
    #: The metrics registry the job ran with, if any.
    metrics: MetricsRegistry | None = None
    #: The clock-health telemetry bank the job ran with, if any.
    timeseries: TimeSeriesBank | None = None
    #: The fault schedule the job ran under, if any.
    faults: FaultSchedule | None = None
    #: Sanitizer report when the job ran with checking enabled.
    check_report: CheckReport | None = None


MainFn = Callable[[ProcessContext, Communicator], Generator]


class Simulation:
    """One simulated ``mpirun``: machine + network + clocks + SPMD body."""

    def __init__(
        self,
        machine: Machine,
        network: NetworkModel,
        time_source: TimeSourceSpec = CLOCK_GETTIME,
        seed: int | np.random.SeedSequence = 0,
        clocks_per: str = "node",
        max_true_time: float = 1e7,
        fabric=None,
        sink: EventSink | None = None,
        metrics: MetricsRegistry | None = None,
        timeseries: TimeSeriesBank | None = None,
        faults: FaultSchedule | None = None,
        injector: FaultInjector | None = None,
        check: str | None = None,
        profiler: Profiler | None = None,
    ) -> None:
        """Set up the job.

        ``clocks_per`` selects the time-source domain: ``"node"`` (default;
        all cores of a node share one clock — the common case the paper's
        ClockPropSync exploits), ``"socket"``, or ``"core"`` (every rank has
        an independent clock; makes ClockPropSync semantically *incorrect*,
        which the H3HCA tests exercise).

        ``fabric`` optionally prices node pairs with topology-dependent
        extra latency (see :mod:`repro.cluster.fabric`; e.g. a
        :class:`~repro.cluster.fabric.TorusFabric` for Titan's Gemini).

        ``sink``/``metrics``/``timeseries`` attach observability (see
        :mod:`repro.obs`).  Each of these hooks, ``check`` and
        ``profiler`` below, when omitted, is taken from the run context
        installed with :func:`repro.context.run_context`; an explicit
        keyword wins.  Observation is passive — results are
        bit-identical either way.

        ``faults`` injects a scheduled disturbance scenario (see
        :mod:`repro.faults`): clock faults wrap the affected node clocks
        at construction; network/compute faults and adversaries are
        applied by the engine at their exact virtual times.
        Deterministic per seed.

        ``injector`` overrides the engine-side injector built from
        ``faults``.  When given, it is used as-is (``faults`` still
        wraps clocks and is validated).

        ``seed`` may be a plain integer or a ``numpy.random.SeedSequence``
        (e.g. a child spawned by the parallel campaign executor); engine
        and clock streams are derived from it identically either way.

        ``check`` attaches the simulation sanitizer (see
        :mod:`repro.check`): ``"strict"`` raises
        :class:`~repro.errors.InvariantViolation` at the first broken
        engine invariant, ``"report"`` accumulates them into
        ``SimulationResult.check_report`` and, when the context names a
        ``check_dir``, appends it there.  Checking is passive — results
        are bit-identical with it on or off.

        ``profiler`` attaches the wall-time self-profiler (see
        :mod:`repro.prof`).  Profiling only reads the host clock, so
        profiled runs are bit-identical to unprofiled ones.

        The engine itself has no settings: one binary-heap event queue,
        one pooled scalar delay draw per variate, one send path whatever
        is attached
        (see :mod:`repro.simmpi.engine`).  Every keyword above describes
        the simulated job or attaches a hook; none tunes the simulator.
        """
        if clocks_per not in ("node", "socket", "core"):
            raise SimulationError(
                f"clocks_per must be node/socket/core, got {clocks_per!r}"
            )
        self.machine = machine
        self.network = network
        self.time_source = time_source
        self.seed = seed
        self.clocks_per = clocks_per
        self.max_true_time = max_true_time

        seedseq = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        engine_seed, clock_seed = seedseq.spawn(2)
        self.fabric = fabric
        ctx = current_context()
        self.sink = sink if sink is not None else ctx.sink
        self.metrics = metrics if metrics is not None else ctx.metrics
        self.timeseries = (
            timeseries if timeseries is not None else ctx.timeseries
        )
        self.profiler = profiler if profiler is not None else ctx.profiler
        self._check_dir = ctx.check_dir
        self.faults = faults
        if faults is not None:
            # Reject schedules that cannot act on this job: faults
            # targeting ranks/nodes that do not exist, or starting past
            # the hard simulation horizon.
            faults.validate(
                num_ranks=machine.num_ranks,
                num_nodes=machine.num_nodes,
                horizon=self.max_true_time,
            )
        if injector is None:
            injector = (
                FaultInjector(
                    faults,
                    node_of=machine.node_of,
                    num_nodes=machine.num_nodes,
                    timeseries=self.timeseries,
                )
                if faults is not None and len(faults)
                else None
            )
        self.checker: SanitizerSink | None = None
        mode = check if check is not None else ctx.check
        if mode:
            self.checker = SanitizerSink(
                mode=mode,
                label=f"{machine.name}[{machine.num_ranks} ranks]",
                metrics=self.metrics,
            )
            engine_sink = (
                TeeSink(self.checker, self.sink)
                if self.sink is not None
                else self.checker
            )
        else:
            engine_sink = self.sink
        self.engine = Engine(
            network=network,
            level_of=machine.level_between,
            seed=engine_seed,
            max_true_time=max_true_time,
            node_of=machine.node_of,
            extra_node_latency=(
                fabric.extra_latency if fabric is not None else None
            ),
            sink=engine_sink,
            metrics=self.metrics,
            timeseries=self.timeseries,
            injector=injector,
            profiler=self.profiler,
        )
        clock_rng = np.random.default_rng(clock_seed)
        # One clock per time-source domain; ranks in a domain share it.
        self._domain_clocks: dict[tuple, HardwareClock] = {}
        self.clocks: list[HardwareClock] = []
        self.contexts: list[ProcessContext] = []
        #: World rank tuple shared by every world() communicator (one
        #: allocation instead of one per rank — O(p²) bytes otherwise).
        self._world_ranks = tuple(range(machine.num_ranks))
        self.engine.add_processes(machine.num_ranks)
        for rank in range(machine.num_ranks):
            pl = machine.placement(rank)
            key = self._domain_key(pl)
            if key not in self._domain_clocks:
                clock = make_clock(time_source, clock_rng)
                if faults is not None and len(faults):
                    # Clock faults wrap the fresh (unread) domain clock;
                    # ranks of a domain still share one clock object.
                    clock = apply_clock_faults(clock, faults, pl.node)
                self._domain_clocks[key] = clock
            clock = self._domain_clocks[key]
            self.clocks.append(clock)
            self.contexts.append(
                ProcessContext(
                    engine=self.engine,
                    rank=rank,
                    hardware_clock=clock,
                    node=pl.node,
                    socket=pl.socket,
                    core=pl.core,
                )
            )

    def _domain_key(self, placement) -> tuple:
        if self.clocks_per == "node":
            return (placement.node,)
        if self.clocks_per == "socket":
            return (placement.node, placement.socket)
        return (placement.node, placement.socket, placement.core)

    def world(self, rank: int) -> Communicator:
        """A fresh MPI_COMM_WORLD handle for ``rank``."""
        return Communicator(
            self.contexts[rank],
            self._world_ranks,
            comm_id=0,
            comm_rank=rank,
        )

    def _span_recorder(self):
        """The attached span recorder, if one is (tee'd) in the sink.

        Duck-typed on ``open_edge_count`` so the check layer needn't
        import the obs layer; used to cross-validate the recorder's
        open-edge count against the sanitizer at finalize time.
        """
        sink = self.sink
        candidates = getattr(sink, "parts", None)
        if candidates is None:
            candidates = (sink,)
        for part in candidates:
            if hasattr(part, "open_edge_count"):
                return part
        return None

    def run(self, main: MainFn) -> SimulationResult:
        """Execute ``main(ctx, world)`` on every rank to completion."""
        prof = self.profiler
        start = prof.push("sim.run") if prof is not None else 0
        try:
            for rank in range(self.machine.num_ranks):
                ctx = self.contexts[rank]
                gen = main(ctx, self.world(rank))
                self.engine.bind(rank, gen)
            values = self.engine.run()
        finally:
            if prof is not None:
                prof.pop(start)
        report: CheckReport | None = None
        if self.checker is not None:
            start = prof.push("check.finalize") if prof is not None else 0
            report = self.checker.finalize(
                self.engine, spans=self._span_recorder()
            )
            if self.checker.mode == "report" and self._check_dir is not None:
                append_report(report, self._check_dir)
            if prof is not None:
                prof.pop(start)
        return SimulationResult(
            values=values,
            messages=self.engine.messages_delivered,
            clocks=self.clocks,
            machine=self.machine,
            engine_stats=self.engine.stats(),
            sink=self.sink,
            metrics=self.metrics,
            timeseries=self.timeseries,
            faults=self.faults,
            check_report=report,
        )
