"""Typed disturbances and their dict round-trip.

Every scheduled disturbance — a fault of the machine or the move of an
adversary — is one frozen dataclass with a ``kind`` tag, a ``start``
true time and an optional ``length`` (``None`` = until the run ends).
Construction range-checks the fields, ``validate(num_ranks, num_nodes,
horizon)`` rejects an entry that cannot act on a concrete job *before*
the run starts, and ``to_dict``/:func:`fault_from_dict` round-trip every
entry through plain dicts (and therefore JSON) for scenario files.

The ten kinds mirror what related work injects to stress sync algorithms
(HyNTP's perturbation rejection, Skewless' frequency steps) and the
assumptions the paper's hierarchy makes (honest clocks, well-behaved
links).  Faults of the machine:

* :class:`ClockStepFault` — NTP-discipline jump of a node clock's reading.
* :class:`ClockFrequencyFault` — windowed skew excursion (thermal ramp)
  wrapped around any :class:`~repro.simtime.drift.DriftModel`.
* :class:`LinkFault` — time-windowed degradation of network delay draws
  (latency multiplier, extra jitter, extra outliers → congestion bursts).
* :class:`NicStormFault` — a node's NIC serialization gap grows, building
  backlog storms on inter-node traffic.
* :class:`StragglerFault` — a rank/node computes slower (plus optional
  exponential OS noise) during the window.

Adversaries, which are often transient on purpose — a delay attack
during the fit window corrupts the learned model; the same attack after
sync only perturbs the accuracy check:

* :class:`ByzantineClockAdversary` — ranks that lie about timestamps
  during offset measurement.
* :class:`DelayAttackAdversary` — asymmetric extra delay on chosen
  directed links, the classic attack on two-way time transfer.
* :class:`CongestionAdversary` — a CoDel-style bottleneck queue adding
  sojourn-dependent queueing delay.
* :class:`RegionTopologyAdversary` — region-tiered latency classes
  (NA/EU/AS).
* :class:`ChurnAdversary` — rank churn between campaign rounds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar

from repro.errors import ConfigurationError

#: Directed rank pair: a message travelling ``src -> dst``.
Link = tuple[int, int]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _normalize_links(links) -> tuple[Link, ...]:
    """JSON gives lists of lists; canonical form is a tuple of int pairs."""
    return tuple((int(src), int(dst)) for src, dst in links)


@dataclass(frozen=True)
class Fault:
    """Shared window fields/validation of every disturbance kind.

    Each kind adds its own fields and, last, a ``name`` that defaults to
    its ``kind`` (error messages and the schedule order use it).
    """

    kind: ClassVar[str] = "fault"
    #: Whether the engine announces an entry of this kind before the run
    #: (one ``FaultInject`` record, one bank ``fault`` marker).  The five
    #: machine faults are; the adversary kinds never were (DESIGN §8).
    announced: ClassVar[bool] = True
    start: float = 0.0
    length: float | None = None

    def __post_init__(self) -> None:
        _require(self.start >= 0.0, f"{self.kind} start must be >= 0: {self}")
        _require(
            self.length is None or self.length > 0.0,
            f"{self.kind} length must be > 0 (or None for the whole run)",
        )

    def _require_finite_window(self) -> None:
        # Announced kinds are drawn as trace spans, which need an end.
        _require(self.length is not None, f"{self.kind} length must be > 0")

    @property
    def duration(self) -> float:
        """Seconds the entry acts for (``inf`` for a whole-run entry)."""
        return float("inf") if self.length is None else self.length

    @property
    def end(self) -> float:
        """True time at which the entry stops acting."""
        return self.start + self.duration

    def active(self, true_time: float) -> bool:
        """Whether the entry's window covers ``true_time``."""
        return self.start <= true_time < self.end

    def target(self) -> str:
        """Human-readable target descriptor (for obs events)."""
        return "cluster"

    def sort_key(self) -> tuple:
        """Position inside a schedule.

        Entries of one kind are applied in this order, so it is part of
        the simulated behaviour: announced kinds tie-break on their
        target, the others on their name, as each did before the two
        models were one.
        """
        return (
            self.start,
            self.kind,
            self.target() if self.announced else self.name,
        )

    # ------------------------------------------------------------------
    # Validation against a concrete job
    # ------------------------------------------------------------------
    def validate(
        self,
        num_ranks: int | None = None,
        num_nodes: int | None = None,
        horizon: float | None = None,
    ) -> "Fault":
        """Reject an entry that cannot act on the described job.

        The base checks the start time against the run ``horizon`` — an
        entry scheduled past the end of the run silently never fires,
        which almost always means a mis-scaled scenario; each kind adds
        the checks of its own targets (``rank`` < ``num_ranks``, ``node``
        < ``num_nodes``, both endpoints of a keyed link).  ``None``
        bounds skip that check; returns ``self`` so calls chain.
        """
        if horizon is not None and self.start >= horizon:
            raise ConfigurationError(
                f"fault {self.name!r} ({self.kind}) starts at "
                f"t={self.start:g}s, at or beyond the run horizon "
                f"{horizon:g}s — it would never fire"
            )
        return self

    def _check_rank(
        self, rank: int | None, num_ranks: int | None,
        role: str = "targets rank",
    ) -> None:
        if (
            num_ranks is not None
            and rank is not None
            and not 0 <= rank < num_ranks
        ):
            raise ConfigurationError(
                f"fault {self.name!r} ({self.kind}) {role} {rank}, "
                f"but the job has ranks 0..{num_ranks - 1}"
            )

    def _check_node(self, node: int | None, num_nodes: int | None) -> None:
        if (
            num_nodes is not None
            and node is not None
            and not 0 <= node < num_nodes
        ):
            raise ConfigurationError(
                f"fault {self.name!r} ({self.kind}) targets node {node}, "
                f"but the job has nodes 0..{num_nodes - 1}"
            )

    def _check_links(self, links, num_ranks: int | None) -> None:
        _require(len(links) > 0, f"{self.kind} needs at least one link")
        for src, dst in links:
            _require(
                src >= 0 and dst >= 0,
                f"{self.kind} link ranks must be >= 0: ({src}, {dst})",
            )
            _require(
                src != dst,
                f"{self.kind} cannot target a self-link: ({src}, {dst})",
            )
            if num_ranks is not None and not (
                src < num_ranks and dst < num_ranks
            ):
                raise ConfigurationError(
                    f"fault {self.name!r} ({self.kind}) targets link "
                    f"({src}, {dst}), but the job has ranks "
                    f"0..{num_ranks - 1}"
                )

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [
                    list(v) if isinstance(v, tuple) else v for v in value
                ]
            out[f.name] = value
        return out


# ----------------------------------------------------------------------
# Faults of the machine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClockStepFault(Fault):
    """Instantaneous jump of a node clock's reading (NTP step).

    ``step`` is the jump in seconds (negative = backward step, making
    local time non-monotonic as real NTP steps do).  ``node=None``
    steps every node's clock.
    """

    kind: ClassVar[str] = "clock_step"
    step: float = 0.0
    node: int | None = None
    name: str = "clock_step"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(self.length is None, "a clock step is instantaneous")
        _require(self.step != 0.0, "clock step must be non-zero")

    @property
    def duration(self) -> float:
        return 0.0

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        self._check_node(self.node, num_nodes)
        return super().validate(num_ranks, num_nodes, horizon)

    def target(self) -> str:
        return "cluster" if self.node is None else f"node:{self.node}"


@dataclass(frozen=True)
class ClockFrequencyFault(Fault):
    """Windowed oscillator-frequency excursion (thermal event).

    During ``[start, start + length)`` the node clock's skew is shifted
    by up to ``skew_delta`` (dimensionless; 5e-6 = 5 ppm).  ``shape`` is
    ``"flat"`` (sudden plateau) or ``"triangle"`` (thermal ramp up and
    back down).  The excursion wraps whatever drift model the clock
    already has.
    """

    kind: ClassVar[str] = "clock_freq"
    skew_delta: float = 0.0
    node: int | None = None
    shape: str = "triangle"
    name: str = "clock_freq"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_finite_window()
        _require(self.skew_delta != 0.0, "skew_delta must be non-zero")
        _require(
            self.shape in ("flat", "triangle"),
            f"unknown excursion shape {self.shape!r}",
        )

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        self._check_node(self.node, num_nodes)
        return super().validate(num_ranks, num_nodes, horizon)

    def target(self) -> str:
        return "cluster" if self.node is None else f"node:{self.node}"


@dataclass(frozen=True)
class LinkFault(Fault):
    """Windowed degradation of the network's delay draws.

    Within the window, every delay drawn at a matching topology level is
    multiplied by ``latency_factor``, then gains an exponential jitter
    term of mean ``jitter`` seconds, and with probability
    ``outlier_prob`` an exponential outlier of mean ``outlier_scale``.
    ``level=None`` degrades every level ("the switch is struggling");
    ``level="REMOTE"`` degrades only inter-node traffic.

    ``src``/``dst`` optionally pin the fault to one *directed* rank pair
    (both or neither must be given): only messages sent from rank
    ``src`` to rank ``dst`` are degraded — the shape of a targeted,
    asymmetric delay attack, as opposed to the level-wide congestion the
    ``level`` filter models.  Directed faults compose with ``level``.
    """

    kind: ClassVar[str] = "link"
    level: str | None = None
    latency_factor: float = 1.0
    jitter: float = 0.0
    outlier_prob: float = 0.0
    outlier_scale: float = 0.0
    src: int | None = None
    dst: int | None = None
    name: str = "link"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_finite_window()
        _require(self.latency_factor > 0.0, "latency_factor must be > 0")
        _require(self.jitter >= 0.0, "jitter must be >= 0")
        _require(
            0.0 <= self.outlier_prob <= 1.0, "outlier_prob must be in [0, 1]"
        )
        _require(self.outlier_scale >= 0.0, "outlier_scale must be >= 0")
        _require(
            self.latency_factor != 1.0
            or self.jitter > 0.0
            or self.outlier_prob > 0.0,
            "link fault must perturb something",
        )
        _require(
            (self.src is None) == (self.dst is None),
            "a directed link fault needs both src and dst (or neither)",
        )
        if self.src is not None:
            _require(self.src >= 0, "link fault src must be >= 0")
            _require(self.dst >= 0, "link fault dst must be >= 0")
            _require(
                self.src != self.dst,
                "a directed link fault cannot target a self-link",
            )

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        # Both endpoints must exist or the fault never matches.
        self._check_rank(self.src, num_ranks, "keys its link src to rank")
        self._check_rank(self.dst, num_ranks, "keys its link dst to rank")
        return super().validate(num_ranks, num_nodes, horizon)

    def matches_link(self, src: int | None, dst: int | None) -> bool:
        """Whether the fault applies to the directed message ``src→dst``.

        Undirected faults match everything; directed faults only match
        when the engine supplied the concrete rank pair and it is ours.
        """
        if self.src is None:
            return True
        return src == self.src and dst == self.dst

    def target(self) -> str:
        if self.src is not None:
            return f"link:{self.src}->{self.dst}"
        return "links" if self.level is None else f"level:{self.level}"


@dataclass(frozen=True)
class NicStormFault(Fault):
    """A node NIC's serialization gap grows by ``gap_factor`` (backlog storm).

    Only affects inter-node traffic of networks with ``nic_gap > 0``;
    ``node=None`` hits every NIC (fabric-wide incast).
    """

    kind: ClassVar[str] = "nic_storm"
    node: int | None = None
    gap_factor: float = 4.0
    name: str = "nic_storm"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_finite_window()
        _require(self.gap_factor > 1.0, "gap_factor must be > 1")

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        self._check_node(self.node, num_nodes)
        return super().validate(num_ranks, num_nodes, horizon)

    def target(self) -> str:
        return "all-nics" if self.node is None else f"node:{self.node}"


@dataclass(frozen=True)
class StragglerFault(Fault):
    """A rank (or a whole node) computes slower during the window.

    Every ``elapse`` of a matching process is multiplied by ``slowdown``
    and gains an exponential noise term of mean ``noise`` seconds —
    injected OS/daemon interference.  Target with ``rank`` or ``node``
    (``rank`` wins if both are given; both ``None`` slows everyone).
    """

    kind: ClassVar[str] = "straggler"
    rank: int | None = None
    node: int | None = None
    slowdown: float = 1.0
    noise: float = 0.0
    name: str = "straggler"

    def __post_init__(self) -> None:
        super().__post_init__()
        self._require_finite_window()
        _require(self.slowdown >= 1.0, "slowdown must be >= 1")
        _require(self.noise >= 0.0, "noise must be >= 0")
        _require(
            self.slowdown > 1.0 or self.noise > 0.0,
            "straggler fault must slow something down",
        )

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        self._check_rank(self.rank, num_ranks)
        self._check_node(self.node, num_nodes)
        return super().validate(num_ranks, num_nodes, horizon)

    def matches(self, rank: int, node: int) -> bool:
        if self.rank is not None:
            return rank == self.rank
        if self.node is not None:
            return node == self.node
        return True

    def target(self) -> str:
        if self.rank is not None:
            return f"rank:{self.rank}"
        if self.node is not None:
            return f"node:{self.node}"
        return "all-ranks"


# ----------------------------------------------------------------------
# Adversaries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ByzantineClockAdversary(Fault):
    """Ranks that lie about timestamps during offset measurement.

    While active, every sync-protocol timestamp crossing a listed
    rank's boundary (the ping-pong payloads of :mod:`repro.sync.offset`
    it reports as a reference, or records as a client) is shifted by
    ``bias`` seconds plus a zero-mean normal term of standard deviation
    ``noise`` — the lie is injected at the message boundary, so honest
    ranks fit their linear models against poisoned measurements while
    ground-truth clocks stay untouched (which is what lets the
    degradation harness score the damage).
    """

    kind: ClassVar[str] = "byzantine_clock"
    announced: ClassVar[bool] = False
    ranks: tuple[int, ...] = (1,)
    bias: float = 0.0
    noise: float = 0.0
    name: str = "byzantine_clock"

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        super().__post_init__()
        _require(len(self.ranks) > 0, "byzantine adversary needs ranks")
        _require(
            all(r >= 0 for r in self.ranks),
            "byzantine ranks must be >= 0",
        )
        _require(self.noise >= 0.0, "byzantine noise must be >= 0")
        _require(
            self.bias != 0.0 or self.noise > 0.0,
            "byzantine adversary must lie somehow (bias or noise)",
        )

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        for rank in self.ranks:
            self._check_rank(rank, num_ranks)
        return super().validate(num_ranks, num_nodes, horizon)


@dataclass(frozen=True)
class DelayAttackAdversary(Fault):
    """Asymmetric/variable extra delay on chosen directed links.

    Two-way time transfer assumes symmetric paths; adding
    ``extra_delay`` seconds (plus exponential ``jitter``, times
    ``factor``) to *one direction* of a link biases the estimated offset
    by about half the asymmetry — the textbook delay attack.  ``links``
    are directed ``(src, dst)`` rank pairs; list both directions to
    model a symmetric (much less harmful) slowdown.
    """

    kind: ClassVar[str] = "delay_attack"
    announced: ClassVar[bool] = False
    links: tuple[Link, ...] = ((1, 0),)
    extra_delay: float = 0.0
    factor: float = 1.0
    jitter: float = 0.0
    name: str = "delay_attack"

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", _normalize_links(self.links))
        super().__post_init__()
        self._check_links(self.links, None)
        _require(self.extra_delay >= 0.0, "extra_delay must be >= 0")
        _require(self.factor > 0.0, "delay factor must be > 0")
        _require(self.jitter >= 0.0, "delay jitter must be >= 0")
        _require(
            self.extra_delay > 0.0 or self.factor != 1.0 or self.jitter > 0.0,
            "delay attack must perturb something",
        )

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        self._check_links(self.links, num_ranks)
        return super().validate(num_ranks, num_nodes, horizon)


@dataclass(frozen=True)
class CongestionAdversary(Fault):
    """A congested bottleneck with CoDel-style queueing delay.

    Messages crossing a matching link (or any link at ``level``, e.g.
    ``"REMOTE"``) pass through a single-server queue with deterministic
    ``service_time`` per message: each one waits for the queue to drain
    before adding its own service time, so sustained traffic builds
    sojourn (queueing delay) exactly like a standing bottleneck buffer.
    The AQM twist follows CoDel: once the sojourn has stayed above
    ``codel_target`` for ``codel_interval`` seconds, the queue is
    drained (the controller "drops" the standing backlog) and the
    interval restarts — so the queueing delay saws between the target
    and the uncontrolled peak rather than growing without bound.
    """

    kind: ClassVar[str] = "congestion"
    announced: ClassVar[bool] = False
    level: str | None = "REMOTE"
    links: tuple[Link, ...] = ()
    service_time: float = 20e-6
    codel_target: float = 50e-6
    codel_interval: float = 0.1
    name: str = "congestion"

    def __post_init__(self) -> None:
        object.__setattr__(self, "links", _normalize_links(self.links))
        super().__post_init__()
        _require(self.service_time > 0.0, "service_time must be > 0")
        _require(self.codel_target > 0.0, "codel_target must be > 0")
        _require(self.codel_interval > 0.0, "codel_interval must be > 0")
        _require(
            self.level is not None or len(self.links) > 0,
            "congestion adversary needs a level or explicit links",
        )
        if self.links:
            self._check_links(self.links, None)

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        if self.links:
            self._check_links(self.links, num_ranks)
        return super().validate(num_ranks, num_nodes, horizon)


@dataclass(frozen=True)
class RegionTopologyAdversary(Fault):
    """Region-tiered topology: NA/EU/AS-style latency classes.

    Nodes are partitioned into ``regions`` (``"blocked"``: contiguous
    node ranges; ``"round_robin"``: node i → region i mod k), and every
    inter-node message between *different* regions gains
    ``cross_latency`` seconds of one-way latency — the WAN gap that
    turns a flat cluster into a geo-distributed one.  ``pair_latency``
    overrides specific region pairs (key ``"A|B"`` with the names
    sorted), e.g. making NA↔AS slower than NA↔EU.  Only REMOTE
    (inter-node) traffic is priced, like the fabric hook.
    """

    kind: ClassVar[str] = "region_topology"
    announced: ClassVar[bool] = False
    regions: tuple[str, ...] = ("NA", "EU", "AS")
    assignment: str = "blocked"
    cross_latency: float = 30e-3
    pair_latency: tuple[tuple[str, float], ...] = ()
    name: str = "region_topology"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "regions", tuple(str(r) for r in self.regions)
        )
        object.__setattr__(
            self,
            "pair_latency",
            tuple((str(k), float(v)) for k, v in self.pair_latency),
        )
        super().__post_init__()
        _require(len(self.regions) >= 2, "need at least two regions")
        _require(
            len(set(self.regions)) == len(self.regions),
            "region names must be unique",
        )
        _require(
            self.assignment in ("blocked", "round_robin"),
            f"unknown region assignment {self.assignment!r}",
        )
        _require(self.cross_latency >= 0.0, "cross_latency must be >= 0")
        known = set(self.regions)
        for key, value in self.pair_latency:
            parts = key.split("|")
            _require(
                len(parts) == 2 and parts[0] < parts[1],
                f"pair_latency key must be 'A|B' with A < B: {key!r}",
            )
            _require(
                parts[0] in known and parts[1] in known,
                f"pair_latency key names unknown regions: {key!r}",
            )
            _require(value >= 0.0, f"pair latency must be >= 0: {key!r}")
        _require(
            self.cross_latency > 0.0
            or any(v > 0.0 for _, v in self.pair_latency),
            "region adversary must price something",
        )

    def region_of(self, node: int, num_nodes: int) -> str:
        """The region node ``node`` belongs to under this assignment."""
        k = len(self.regions)
        if self.assignment == "round_robin":
            return self.regions[node % k]
        # blocked: contiguous, nearly equal-size ranges.
        return self.regions[min(k - 1, node * k // max(1, num_nodes))]

    def latency_between(self, region_a: str, region_b: str) -> float:
        """Extra one-way latency between two regions (0 within one)."""
        if region_a == region_b:
            return 0.0
        key = "|".join(sorted((region_a, region_b)))
        for k, v in self.pair_latency:
            if k == key:
                return v
        return self.cross_latency


@dataclass(frozen=True)
class ChurnAdversary(Fault):
    """Rank churn mid-campaign: the topology changes between rounds.

    Mid-run membership change would deadlock MPI collectives (there is
    no fault-tolerant MPI in the simulator), so churn acts at the
    campaign level — each round of a scenario cell is one simulated
    ``mpirun``, and this adversary reshapes the machine between rounds:

    * ``"flap"`` — every ``period`` rounds the job alternates between
      the base node count and ``base - drop`` (nodes leaving and
      rejoining).
    * ``"shrink"`` — ``drop`` nodes leave every ``period`` rounds,
      floored at ``min_nodes``.
    * ``"grow"`` — the job starts at ``min_nodes`` and gains ``drop``
      nodes every ``period`` rounds, capped at the base count.

    Sync state never survives a churn event: each round resynchronizes
    from scratch on the new topology, which is exactly the cost the
    degradation tables surface.
    """

    kind: ClassVar[str] = "churn"
    announced: ClassVar[bool] = False
    mode: str = "flap"
    period: int = 1
    drop: int = 1
    min_nodes: int = 2
    name: str = "churn"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.mode in ("flap", "shrink", "grow"),
            f"unknown churn mode {self.mode!r}",
        )
        _require(self.period >= 1, "churn period must be >= 1")
        _require(self.drop >= 1, "churn drop must be >= 1")
        _require(self.min_nodes >= 1, "churn min_nodes must be >= 1")

    def validate(self, num_ranks=None, num_nodes=None, horizon=None):
        if num_nodes is not None and self.min_nodes > num_nodes:
            raise ConfigurationError(
                f"fault {self.name!r} ({self.kind}) keeps min "
                f"{self.min_nodes} nodes, but the job only has {num_nodes}"
            )
        return super().validate(num_ranks, num_nodes, horizon)

    def nodes_at(self, round_idx: int, base_nodes: int) -> int:
        """Node count for campaign round ``round_idx`` (0-based)."""
        steps = round_idx // self.period
        if self.mode == "flap":
            if steps % 2 == 0:
                return base_nodes
            return max(self.min_nodes, base_nodes - self.drop)
        if self.mode == "shrink":
            return max(self.min_nodes, base_nodes - steps * self.drop)
        # grow
        return min(base_nodes, self.min_nodes + steps * self.drop)


FAULT_TYPES: dict[str, type] = {
    cls.kind: cls
    for cls in (
        ClockStepFault,
        ClockFrequencyFault,
        LinkFault,
        NicStormFault,
        StragglerFault,
        ByzantineClockAdversary,
        DelayAttackAdversary,
        CongestionAdversary,
        RegionTopologyAdversary,
        ChurnAdversary,
    )
}


def fault_from_dict(data: dict) -> Fault:
    """Reconstruct a fault from its ``to_dict`` form."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    try:
        cls = FAULT_TYPES[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault kind {kind!r}; known: {sorted(FAULT_TYPES)}"
        ) from None
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ConfigurationError(f"bad fields for {kind!r}: {exc}") from None
