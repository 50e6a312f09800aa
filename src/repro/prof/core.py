"""Hierarchical wall-time zones for profiling the simulator itself.

"MPI Benchmarking Revisited" (Hunold & Carpen-Amarie) argues that a
performance claim is only as good as its measurement design; this module
points the same rigor at our own event loop.  Before the ROADMAP's
vectorized-kernel rewrite we need to know *where* engine wall time goes
— guessing the bottleneck is exactly the failure mode the paper warns
about.

A :class:`Profiler` maintains a tree of **zones**.  A zone is opened with
:meth:`Profiler.push` / closed with :meth:`Profiler.pop` (the raw API the
engine hot path uses) or with the :meth:`Profiler.zone` context manager.
Zones nest: the tree mirrors the dynamic call structure of the *thread
of execution* — one stack per profiler, which matches the simulator (one
OS thread drives every simulated process inline).

Two invariants the instrumentation sites must respect:

* **Never hold a zone across a generator ``yield``.**  Simulated
  processes interleave inside the engine loop; a zone spanning a yield
  would interleave other processes' zones into its subtree.  Pure-compute
  sections (model fitting, offset estimation) are safe; anything that
  communicates is attributed through the engine's own zones instead.
* **Profiling must stay passive.**  Zones read ``time.perf_counter_ns``
  and touch nothing else — no RNG draws, no virtual-time changes — so a
  profiled simulation is bit-identical to an unprofiled one (pinned by
  ``tests/prof/test_identity.py``).  With no profiler installed every
  instrumentation site reduces to one pointer comparison, the same
  zero-overhead contract the obs sinks follow.

Like the obs hooks, a profiler is attached per simulation
(``Simulation(profiler=...)``) or for a block through the run context
(:func:`repro.context.run_context`); the parallel campaign executor runs
each job under a fresh profiler and merges it back
(:meth:`Profiler.merge_from`), so ``--jobs N`` attribution covers every
simulated mpirun wherever it executed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.context import run_context


class Zone:
    """One node of the profile tree: aggregated time for a zone path."""

    __slots__ = ("name", "count", "total_ns", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Times the zone was entered (or samples accounted via ``add``).
        self.count = 0
        #: Inclusive wall time (nanoseconds) spent inside the zone.
        self.total_ns = 0
        self.children: dict[str, Zone] = {}

    def child(self, name: str) -> "Zone":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Zone(name)
        return node

    def self_ns(self) -> int:
        """Exclusive time: total minus the children's totals (clamped)."""
        return max(0, self.total_ns - sum(
            c.total_ns for c in self.children.values()
        ))

    def merge_from(self, other: "Zone") -> None:
        """Fold another zone's counts/times (and subtree) into this one."""
        self.count += other.count
        self.total_ns += other.total_ns
        for name, theirs in other.children.items():
            self.child(name).merge_from(theirs)


class Profiler:
    """Thread-of-execution scoped wall-time zone tree.

    The hot-path API is ``start = prof.push(name)`` / ``prof.pop(start)``
    — two dict probes and two clock reads per zone.  ``zone()`` wraps the
    pair as a context manager for non-hot call sites, and ``add()``
    accounts a pre-measured duration into a *child* of the current zone
    without stack traffic (used for leaf costs like sink emission).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.root = Zone("")
        self._stack: list[Zone] = [self.root]

    # ------------------------------------------------------------------
    # Hot-path zone API
    # ------------------------------------------------------------------
    def push(self, name: str) -> int:
        """Open a zone under the current one; returns the start stamp."""
        stack = self._stack
        top = stack[-1]
        node = top.children.get(name)
        if node is None:
            node = top.children[name] = Zone(name)
        stack.append(node)
        return self.clock()

    def pop(self, start: int) -> None:
        """Close the innermost zone opened at ``start``."""
        node = self._stack.pop()
        node.total_ns += self.clock() - start
        node.count += 1

    def add(self, name: str, elapsed_ns: int, count: int = 1) -> None:
        """Account a measured duration to child ``name`` of the current zone."""
        node = self._stack[-1].child(name)
        node.total_ns += elapsed_ns
        node.count += count

    def tick(self, name: str, count: int = 1) -> None:
        """Count an occurrence with no wall time (phase markers)."""
        self._stack[-1].child(name).count += count

    @contextmanager
    def zone(self, name: str) -> Iterator[None]:
        """Context-manager form of push/pop (must not span a yield)."""
        start = self.push(name)
        try:
            yield
        finally:
            self.pop(start)

    @property
    def depth(self) -> int:
        """Current nesting depth (0 == at the root)."""
        return len(self._stack) - 1

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def total_ns(self) -> int:
        """Wall time covered by the top-level zones."""
        return sum(c.total_ns for c in self.root.children.values())

    def walk(self) -> Iterator[tuple[tuple[str, ...], Zone]]:
        """Depth-first ``(path, zone)`` pairs, children in sorted order."""

        def _walk(prefix: tuple[str, ...], zone: Zone):
            for name in sorted(zone.children):
                child = zone.children[name]
                path = prefix + (name,)
                yield path, child
                yield from _walk(path, child)

        yield from _walk((), self.root)

    def merge_from(self, other: "Profiler") -> None:
        """Fold another profiler's tree into this one (root-aligned).

        The executor calls this with per-job profilers in submission
        order; zone paths aggregate across jobs so a campaign profile
        shows one tree, not one tree per mpirun.
        """
        self.root.merge_from(other.root)


def default_profiler(profiler: Profiler | None):
    """``run_context(profiler=profiler)``: kept for ``perfbench/child.py``."""
    return run_context(profiler=profiler)
