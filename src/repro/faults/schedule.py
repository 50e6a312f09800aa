"""The scenario container: an ordered, serializable set of scheduled faults.

A :class:`FaultSchedule` is the unit a :class:`~repro.simmpi.simulation.Simulation`,
the recovery harness and the degradation cells consume: a named,
deterministic list of faults and adversaries sorted by start time, plus
the error budget a cell run under it is judged against.  Schedules
round-trip through plain JSON-ready dicts (``to_dict``/``from_dict``),
which is how the fuzzer's repro files carry them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ConfigurationError
from repro.faults.model import (
    ClockFrequencyFault,
    ClockStepFault,
    Fault,
    fault_from_dict,
)

#: Default tolerated post-sync max |offset| (s) before a cell counts as
#: blown.  Deliberately generous: the fuzzer hunts for *catastrophic*
#: degradation and broken invariants, not ordinary accuracy loss.
DEFAULT_ERROR_BUDGET = 50e-3


@dataclass(frozen=True)
class FaultSchedule:
    """A named scenario: faults sorted by (start, kind, target or name)."""

    name: str
    faults: tuple[Fault, ...] = ()
    description: str = ""
    error_budget: float = DEFAULT_ERROR_BUDGET

    def __init__(
        self,
        name: str,
        faults: Sequence[Fault] = (),
        description: str = "",
        error_budget: float = DEFAULT_ERROR_BUDGET,
    ) -> None:
        if not name:
            raise ConfigurationError("a fault schedule needs a name")
        if not error_budget > 0.0:
            raise ConfigurationError("error budget must be > 0")
        ordered = tuple(sorted(faults, key=lambda f: f.sort_key()))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "faults", ordered)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "error_budget", float(error_budget))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def window(self) -> tuple[float, float] | None:
        """``(first start, last end)`` over all faults; None when empty."""
        if not self.faults:
            return None
        return (
            min(f.start for f in self.faults),
            max(f.end for f in self.faults),
        )

    def of_kind(self, kind: str) -> list[Fault]:
        """The entries of one kind, in schedule order."""
        return [f for f in self.faults if f.kind == kind]

    def clock_faults(
        self, node: int
    ) -> list[ClockStepFault | ClockFrequencyFault]:
        """Clock faults that apply to ``node`` (targeted or cluster-wide)."""
        return [
            f
            for f in self.faults
            if isinstance(f, (ClockStepFault, ClockFrequencyFault))
            and (f.node is None or f.node == node)
        ]

    # ------------------------------------------------------------------
    # Validation against a concrete job
    # ------------------------------------------------------------------
    def validate(
        self,
        num_ranks: int | None = None,
        num_nodes: int | None = None,
        horizon: float | None = None,
    ) -> "FaultSchedule":
        """Reject faults that cannot act on the described job.

        Every entry checks its own targets against the job shape and its
        start time against the run ``horizon`` (see
        :meth:`~repro.faults.model.Fault.validate`).  Raises
        :class:`~repro.errors.ConfigurationError` naming the first
        offending fault; returns ``self`` so calls chain.  ``None``
        bounds skip that check.
        """
        for f in self.faults:
            f.validate(
                num_ranks=num_ranks, num_nodes=num_nodes, horizon=horizon
            )
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "error_budget": self.error_budget,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        """Rebuild a schedule; any key ``to_dict`` does not write is an error.

        A file in an older layout (``adversaries`` next to ``faults``)
        must fail loudly rather than load without its adversaries and
        replay "clean".
        """
        unknown = sorted(
            set(data) - {"name", "description", "error_budget", "faults"}
        )
        if unknown:
            raise ConfigurationError(
                f"fault schedule dict has unknown key(s) {unknown}"
            )
        try:
            return cls(
                name=data["name"],
                faults=[fault_from_dict(d) for d in data.get("faults", [])],
                description=data.get("description", ""),
                error_budget=data.get("error_budget", DEFAULT_ERROR_BUDGET),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"fault schedule dict is missing {exc}"
            ) from None
