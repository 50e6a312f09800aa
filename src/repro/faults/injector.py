"""Engine-side fault application and clock wrapping.

The :class:`FaultInjector` is the piece the
:class:`~repro.simmpi.engine.Engine` consults on its hot paths.  One
hook per place a disturbance can act:

* ``perturb_delay`` — every network delay draw, keyed by level and by
  the directed ``(src, dst)`` pair: link faults degrade it, delay
  attacks add asymmetric extra delay, congestion adversaries add
  CoDel-controlled queueing delay, and region adversaries add WAN
  latency across region boundaries (at ``Level.REMOTE`` only, like the
  fabric hook) — composed in that order.
* ``perturb_payload`` — the sync-message boundary: byzantine ranks shift
  every sync-protocol timestamp they put on the wire
  (:data:`~repro.simmpi.engine.PINGPONG_TAG` messages), poisoning the
  offset measurements honest ranks fit their models against.
* ``nic_gap_factor`` — NIC serialization gaps (backlog storms).
* ``perturb_compute`` — compute durations (stragglers).

All perturbations are pure functions of virtual time plus draws from
the calling process's own seeded RNG stream, so a scenario + seed
reproduces bit-identically — which is what makes fuzzer repro files
replayable.  The hooks draw no RNG when nothing matches, so a schedule
with no engine-side entry leaves a run byte-identical to one without
any injector at all (pinned in ``tests/faults/test_injection.py``).

Clock faults are applied *before* the run, by wrapping each node's
hardware clock via :func:`apply_clock_faults` — the engine never sees
them; processes simply observe stepped/bent readings.  Churn acts
between the runs of a campaign (:mod:`repro.scenarios.runner`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.faults.model import ClockFrequencyFault, ClockStepFault
from repro.faults.schedule import FaultSchedule
from repro.obs.events import FaultInject
from repro.obs.health import QUEUE_METRIC
from repro.simmpi.engine import PINGPONG_TAG
from repro.simmpi.network import Level
from repro.simtime.hardware import HardwareClock
from repro.simtime.perturb import ExcursionDrift, SteppedClock


def apply_clock_faults(
    clock: HardwareClock, schedule: FaultSchedule, node: int
):
    """Wrap a freshly built node clock with its scheduled clock faults.

    Frequency excursions wrap the clock's drift model (in place — the
    clock must not have been read yet); offset steps wrap the clock
    itself in a :class:`~repro.simtime.perturb.SteppedClock`.  Returns
    the clock to use for ``node`` (the original object when no clock
    fault targets it, preserving shared-time-source identity).
    """
    faults = schedule.clock_faults(node)
    windows = [
        (f.start, f.end, f.skew_delta, f.shape)
        for f in faults
        if isinstance(f, ClockFrequencyFault)
    ]
    if windows:
        clock.drift = ExcursionDrift(
            clock.drift, windows, segment_length=clock.segment_length
        )
    steps = [
        (f.start, f.step) for f in faults if isinstance(f, ClockStepFault)
    ]
    if steps:
        return SteppedClock(clock, steps)
    return clock


class _CodelQueue:
    """One bottleneck queue with CoDel-style standing-delay control.

    ``busy_until`` is when the server frees up; ``above_since`` tracks
    how long the sojourn has continuously exceeded the target.  Plain
    mutable state keyed per bottleneck — the engine processes events in
    virtual-time order, so updates arrive with non-decreasing ``time``.
    """

    __slots__ = ("busy_until", "above_since")

    def __init__(self) -> None:
        self.busy_until = 0.0
        self.above_since: float | None = None


class FaultInjector:
    """Applies a :class:`FaultSchedule`'s engine-level entries at run time."""

    def __init__(
        self,
        schedule: FaultSchedule,
        node_of: Callable[[int], int] | None = None,
        num_nodes: int | None = None,
        timeseries=None,
    ) -> None:
        self.schedule = schedule
        self.node_of = node_of or (lambda rank: 0)
        self.num_nodes = num_nodes or 1
        #: Optional telemetry bank; queueing delays are sampled into it
        #: (passive — bank presence never changes simulation results).
        self.timeseries = timeseries
        self._links = schedule.of_kind("link")
        self._storms = schedule.of_kind("nic_storm")
        self._stragglers = schedule.of_kind("straggler")
        self._byzantine = schedule.of_kind("byzantine_clock")
        self._delay_attacks = schedule.of_kind("delay_attack")
        self._congestion = schedule.of_kind("congestion")
        self._regions = schedule.of_kind("region_topology")
        #: Whether :meth:`perturb_payload` can change payloads.  The
        #: engine only calls the payload hook when this is set, so
        #: schedules without byzantine behaviour skip it entirely.
        self.perturbs_payloads = bool(self._byzantine)
        #: Whether :meth:`perturb_delay` keeps state from one call to the
        #: next (a bottleneck queue), so that calls must arrive in
        #: virtual-time order.  Sends always do; the ack of a rendezvous
        #: is priced where its *receive* completes, so the engine then
        #: gates receives from a named source as well.  Every other kind
        #: is a function of time and the caller's own RNG: order-free.
        self.stateful_delays = bool(self._congestion)
        #: Nothing prices a delay: :meth:`perturb_delay` returns at once.
        self._delays_inert = not (
            self._links
            or self._delay_attacks
            or self._congestion
            or self._regions
        )
        #: One queue per (congestion adversary, bottleneck key).
        self._queues: dict[tuple, _CodelQueue] = {}
        #: Diagnostics: perturbations actually applied during the run.
        self.delays_perturbed = 0
        self.computes_perturbed = 0
        self.payloads_perturbed = 0
        self.attack_delays_applied = 0
        self.queue_delays_applied = 0
        self.codel_drains = 0
        self.region_delays_applied = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def schedule_events(self) -> list[FaultInject]:
        """One :class:`FaultInject` record per announced fault.

        The schedule is known before the run starts, so fault spans carry
        exact virtual times regardless of when processes observe them.
        """
        return [
            FaultInject(
                time=f.start,
                rank=-1 if getattr(f, "rank", None) is None else f.rank,
                kind=f.kind,
                name=f.name,
                target=f.target(),
                duration=f.duration,
            )
            for f in self.schedule
            if f.announced
        ]

    # ------------------------------------------------------------------
    # Engine hooks (hot paths — all early-out when nothing is active)
    # ------------------------------------------------------------------
    def perturb_delay(
        self,
        time: float,
        level: Level,
        delay: float,
        rng: np.random.Generator,
        *,
        src: int | None = None,
        dst: int | None = None,
    ) -> float:
        """Price one network delay draw per the entries active now.

        ``src``/``dst`` identify the directed message the draw prices
        (the engine supplies them; ack draws travel receiver→sender).
        Link-keyed entries only match when the pair is known and equal.
        Composition order: link faults, delay attacks, queue sojourn,
        region latency.
        """
        if self._delays_inert:
            return delay
        for f in self._links:
            if not f.active(time):
                continue
            if f.level is not None and f.level != level.name:
                continue
            if not f.matches_link(src, dst):
                continue
            delay *= f.latency_factor
            if f.jitter > 0.0:
                delay += rng.exponential(f.jitter)
            if f.outlier_prob > 0.0 and rng.random() < f.outlier_prob:
                delay += rng.exponential(f.outlier_scale)
            self.delays_perturbed += 1
        for adv in self._delay_attacks:
            if not adv.active(time):
                continue
            if src is None or (src, dst) not in adv.links:
                continue
            delay = delay * adv.factor + adv.extra_delay
            if adv.jitter > 0.0:
                delay += rng.exponential(adv.jitter)
            self.attack_delays_applied += 1
        for adv in self._congestion:
            if not adv.active(time):
                continue
            if adv.links:
                if src is None or (src, dst) not in adv.links:
                    continue
                key = (id(adv), src, dst)
            elif adv.level is None or adv.level == level.name:
                key = (id(adv),)
            else:
                continue
            delay += self._queue_delay(adv, key, time, src)
        if self._regions and level == Level.REMOTE and src is not None:
            delay += self._region_delay(time, src, dst)
        return delay

    def _queue_delay(self, adv, key, time: float, src) -> float:
        """Sojourn through one CoDel-controlled bottleneck queue."""
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = _CodelQueue()
        start_service = time if time > queue.busy_until else queue.busy_until
        sojourn = start_service - time
        if sojourn > adv.codel_target:
            if queue.above_since is None:
                queue.above_since = time
            elif time - queue.above_since >= adv.codel_interval:
                # The controller fires: drain the standing backlog and
                # restart the interval — this message sails through.
                start_service = time
                sojourn = 0.0
                queue.above_since = None
                self.codel_drains += 1
        else:
            queue.above_since = None
        queue.busy_until = start_service + adv.service_time
        if sojourn > 0.0:
            self.queue_delays_applied += 1
            if self.timeseries is not None:
                self.timeseries.sample(
                    QUEUE_METRIC, time, sojourn, rank=src
                )
        return sojourn

    def _region_delay(self, time: float, src: int, dst: int) -> float:
        """Extra WAN latency when the message crosses region tiers."""
        extra = 0.0
        src_node = self.node_of(src)
        dst_node = self.node_of(dst)
        for adv in self._regions:
            if not adv.active(time):
                continue
            priced = adv.latency_between(
                adv.region_of(src_node, self.num_nodes),
                adv.region_of(dst_node, self.num_nodes),
            )
            if priced > 0.0:
                extra += priced
                self.region_delays_applied += 1
        return extra

    def perturb_payload(
        self,
        time: float,
        src: int,
        dst: int,
        tag: int,
        payload,
        rng: np.random.Generator,
    ):
        """Corrupt sync timestamps crossing a byzantine rank's boundary.

        The engine calls this just before constructing the message, and
        only when :attr:`perturbs_payloads` is set — schedules without a
        byzantine entry never reach it, keeping the unadversarial
        message path (and its RNG stream) untouched.

        A byzantine rank garbles the timestamps it *reports* when acting
        as a reference (outbound ``t_last``) and the ones it *records*
        when acting as a client (inbound — modelled at the same wire
        point so one hook covers both, deterministically).  Matters:
        lying purely as a client would be invisible, since the offset
        protocols never read the client's payload.  Only float payloads
        on the sync ping-pong tag are touched — everything else
        (collective payloads, accuracy-check reports) passes through
        untouched, and pairs of honest ranks draw no RNG here.
        """
        if tag != PINGPONG_TAG or not isinstance(payload, float):
            # Clock reads may arrive as numpy float64 (a float subclass),
            # so isinstance, not an exact type check.
            return payload
        for adv in self._byzantine:
            if (
                src in adv.ranks or dst in adv.ranks
            ) and adv.active(time):
                payload += adv.bias
                if adv.noise > 0.0:
                    payload += rng.normal(0.0, adv.noise)
                self.payloads_perturbed += 1
        return payload

    def nic_gap_factor(self, time: float, node: int) -> float:
        """Multiplier on the NIC serialization gap of ``node`` right now."""
        factor = 1.0
        for f in self._storms:
            if f.active(time) and (f.node is None or f.node == node):
                factor *= f.gap_factor
        return factor

    def perturb_compute(
        self,
        time: float,
        rank: int,
        duration: float,
        rng: np.random.Generator,
    ) -> float:
        """Stretch one compute interval per the stragglers active now."""
        for f in self._stragglers:
            if f.active(time) and f.matches(rank, self.node_of(rank)):
                duration *= f.slowdown
                if f.noise > 0.0:
                    duration += rng.exponential(f.noise)
                self.computes_perturbed += 1
        return duration
