"""The run context: every hook a simulation attaches when none is passed.

One frozen :class:`RunContext` holds the six process-wide values a run
is observed or checked through — the event sink, metrics registry,
telemetry bank, profiler, sanitizer mode and sanitizer report.
:func:`current_context` reads it; :func:`run_context` installs a changed
copy for a block and restores the previous one afterwards::

    with run_context(metrics=MetricsRegistry(), check="strict"):
        Simulation(...).run(main)   # metered and sanitized

An explicit keyword to :class:`~repro.simmpi.simulation.Simulation`
still wins over the context.  The parallel campaign executor hands each
job :meth:`RunContext.isolated` — fresh hooks and a fresh report of the
same kinds, the check mode carried along — and folds them back with
:meth:`RunContext.merge_from` in submission order, so ``--jobs N``
observes and checks every simulated mpirun wherever it executes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator

from repro.obs.events import EventSink, RecordingSink

if TYPE_CHECKING:
    from repro.check.sanitizer import CheckReport
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.timeseries import TimeSeriesBank
    from repro.prof.core import Profiler

#: Sanitizer modes: ``strict`` raises at the first violation, ``report``
#: accumulates them (and merges run reports into ``check_report`` when set).
CHECK_MODES = ("strict", "report")


@dataclass(frozen=True)
class RunContext:
    """The hooks attached to every simulation that does not pass its own."""

    sink: EventSink | None = None
    metrics: MetricsRegistry | None = None
    timeseries: TimeSeriesBank | None = None
    profiler: Profiler | None = None
    #: Sanitizer mode (one of :data:`CHECK_MODES`), or None when off.
    check: str | None = None
    #: Report-mode report every checked run is merged into.
    check_report: CheckReport | None = None

    def isolated(self) -> RunContext:
        """Fresh, empty, picklable hooks of the same kinds, for one job.

        A sink becomes a :class:`RecordingSink` whose events are replayed
        on merge.  ``check`` is carried over.
        """
        return replace(
            self,
            sink=None if self.sink is None else RecordingSink(),
            metrics=_fresh(self.metrics),
            timeseries=_fresh(self.timeseries),
            profiler=_fresh(self.profiler),
            check_report=_fresh(self.check_report),
        )

    def merge_from(self, job: RunContext) -> None:
        """Fold an :meth:`isolated` job's hooks back into this context.

        Call once per job, in submission order: some aggregates
        (reservoir histograms, decimating series) are not invariant
        under re-batching, so the order is what makes ``--jobs 1`` and
        ``--jobs N`` merge to identical results.
        """
        sink = self.sink
        if sink is not None and job.sink is not None and job.sink.events:
            # Span recorders segment their history per engine run; a
            # replayed job is a fresh seq namespace, so break first.
            brk = getattr(sink, "run_break", None)
            if brk is not None:
                brk()
            for event in job.sink.events:
                sink.emit(event)
        for mine, theirs in (
            (self.metrics, job.metrics),
            (self.timeseries, job.timeseries),
            (self.profiler, job.profiler),
            (self.check_report, job.check_report),
        ):
            if mine is not None and theirs is not None:
                mine.merge_from(theirs)


def _fresh(hook):
    return None if hook is None else type(hook)()


_current = RunContext()


def current_context() -> RunContext:
    """The installed run context (all hooks off by default)."""
    return _current


@contextmanager
def run_context(**changes) -> Iterator[RunContext]:
    """Install the current context with ``changes`` for the block.

    Raises ``ValueError`` on a check mode outside :data:`CHECK_MODES`.
    The previous context is restored on exit.
    """
    global _current
    ctx = replace(_current, **changes)
    if ctx.check is not None and ctx.check not in CHECK_MODES:
        raise ValueError(
            f"check mode must be strict/report, got {ctx.check!r}"
        )
    previous, _current = _current, ctx
    try:
        yield ctx
    finally:
        _current = previous
