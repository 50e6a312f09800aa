"""Engine-side application of a scenario's adversaries.

:class:`AdversaryInjector` extends the fault injector
(:class:`~repro.faults.injector.FaultInjector`) with the scenario hook
points the engine calls on its hot paths:

* **link-delay perturbation keyed by (src, dst)** — delay attacks add
  asymmetric extra delay to matching directed links; congestion
  adversaries add CoDel-controlled queueing delay (on top of whatever
  plain :class:`~repro.faults.model.LinkFault`\\ s the scenario carries,
  which the base class applies first).
* **timestamp perturbation at the sync-message boundary** — byzantine
  ranks shift every sync-protocol timestamp payload they put on the
  wire (:data:`~repro.sync.offset.PINGPONG_TAG` messages), poisoning the
  offset measurements honest ranks fit their models against.
* **region pricing** — inter-node messages crossing region boundaries
  gain the scenario's WAN latency (only at ``Level.REMOTE``, like the
  fabric hook).

All perturbations are pure functions of virtual time plus draws from the
calling process's seeded RNG stream — a scenario + seed reproduces
bit-identically, which is what makes fuzzer repro files replayable.
A scenario with no adversaries degenerates to the plain fault injector,
whose hooks draw no RNG when nothing matches, so such a run is
byte-identical to one without any injector at all (pinned by the
mutant-style tests in ``tests/scenarios``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.obs.health import QUEUE_METRIC
from repro.scenarios.scenario import Scenario
from repro.simmpi.network import Level
from repro.sync.offset import PINGPONG_TAG

#: Placeholder schedule for scenarios that carry no plain faults.
_EMPTY_FAULTS = FaultSchedule(name="none")


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


class AdversaryInjector(FaultInjector):
    """Applies a :class:`~repro.scenarios.scenario.Scenario` at run time."""

    def __init__(
        self,
        scenario: Scenario,
        machine=None,
        node_of: Callable[[int], int] | None = None,
        num_nodes: int | None = None,
        timeseries=None,
    ) -> None:
        if machine is not None:
            node_of = node_of or machine.node_of
            num_nodes = num_nodes or machine.num_nodes
        super().__init__(
            scenario.faults if scenario.faults is not None else _EMPTY_FAULTS,
            node_of=node_of,
        )
        self.scenario = scenario
        self.num_nodes = num_nodes or 1
        #: Optional telemetry bank; queueing delays are sampled into it
        #: (passive — bank presence never changes simulation results).
        self.timeseries = timeseries
        self._byzantine = scenario.byzantine
        self._delay_attacks = scenario.delay_attacks
        self._congestion = scenario.congestion
        self._regions = scenario.regions
        #: One queue per (congestion adversary, bottleneck key).
        self._queues: dict[tuple, _CodelQueue] = {}
        #: Diagnostics: adversarial perturbations actually applied.
        self.payloads_perturbed = 0
        self.attack_delays_applied = 0
        self.queue_delays_applied = 0
        self.codel_drains = 0
        self.region_delays_applied = 0

    # ------------------------------------------------------------------
    # Payload tampering (sync-message boundary)
    # ------------------------------------------------------------------
    @property
    def perturbs_payloads(self) -> bool:  # type: ignore[override]
        return bool(self._byzantine)

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

    # ------------------------------------------------------------------
    # Link-delay perturbation keyed by (src, dst)
    # ------------------------------------------------------------------
    @property
    def stateful_delays(self) -> bool:  # type: ignore[override]
        # The CoDel queues below assume non-decreasing call times.
        return bool(self._congestion)

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
        # Plain link faults first (the composable FaultSchedule layer).
        delay = super().perturb_delay(
            time, level, delay, rng, src=src, dst=dst
        )
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
            matched = False
            key = None
            if adv.links:
                if src is not None and (src, dst) in adv.links:
                    matched = True
                    key = (id(adv), src, dst)
            elif adv.level is None or adv.level == level.name:
                matched = True
                key = (id(adv),)
            if not matched:
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


class RegionFabric:
    """Fabric adapter pricing a region adversary as whole-run latency.

    For plain :class:`~repro.simmpi.simulation.Simulation` runs that
    want region tiers without an adversarial injector: wraps an optional
    base fabric and adds the adversary's cross-region latency to every
    inter-node pair (the fabric hook is time-free, so the adversary's
    window is ignored — use :class:`AdversaryInjector` for windowed
    region pricing).
    """

    def __init__(self, adversary, num_nodes: int, base=None) -> None:
        self.adversary = adversary
        self.num_nodes = num_nodes
        self.base = base

    def extra_latency(self, node_a: int, node_b: int) -> float:
        extra = (
            self.base.extra_latency(node_a, node_b)
            if self.base is not None
            else 0.0
        )
        adv = self.adversary
        return extra + adv.latency_between(
            adv.region_of(node_a, self.num_nodes),
            adv.region_of(node_b, self.num_nodes),
        )
