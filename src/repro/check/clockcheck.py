"""Clock-model sanity checks: finite, monotone, slope ≈ 1.

A synchronized global clock is a linear adjustment of a hardware clock
whose skew is parts-per-million; whatever algorithm produced it, its
readings over any window must be finite, non-decreasing (time never
flows backwards on a healthy clock — the paper's Round-Time scheme
*depends* on monotone global clocks for validity windows), and advance
at a rate indistinguishable from true time at the ppm scale.  A fitted
slope far from 1 means the model inverted its fit or mixed up units —
exactly the silent corruption the sanitizer exists to catch.

These checks run *post-hoc* on ground-truth reads (the simulation is
finished), so they cannot perturb results.  Clock-fault scenarios
deliberately break monotonicity (NTP backward steps); callers skip the
checks for faulted domains.
"""

from __future__ import annotations

import math

from repro.check.config import flag_violations
from repro.check.sanitizer import Violation
from repro.context import current_context

#: |fitted slope - 1| bound: generous vs the ~1e-5 skews the simulator
#: draws, tiny vs the unit mix-ups it exists to catch.
SLOPE_TOL = 1e-3


def clock_sanity_violations(
    clock,
    t0: float,
    t1: float,
    npoints: int = 64,
    slope_tol: float = SLOPE_TOL,
    rank: int = -1,
) -> list[Violation]:
    """Check one clock over ``[t0, t1]``; returns the violations found."""
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    npoints = max(2, npoints)
    times = [
        t0 + (t1 - t0) * i / (npoints - 1) for i in range(npoints)
    ]
    readings = []
    out: list[Violation] = []
    for t in times:
        r = clock.read(t)
        if not math.isfinite(r):
            out.append(Violation(
                rule="clock-sanity",
                message=f"clock reading at t={t:.9g} is {r!r}",
                time=t, rank=rank,
            ))
            return out
        readings.append(r)
    for (ta, ra), (tb, rb) in zip(
        zip(times, readings), zip(times[1:], readings[1:])
    ):
        if rb < ra:
            out.append(Violation(
                rule="clock-sanity",
                message=(
                    f"clock is non-monotone: read(t={tb:.9g}) = {rb:.9g} "
                    f"< read(t={ta:.9g}) = {ra:.9g}"
                ),
                time=tb, rank=rank,
                details={"earlier": ra, "later": rb},
            ))
            break
    slope = (readings[-1] - readings[0]) / (t1 - t0)
    if abs(slope - 1.0) > slope_tol:
        out.append(Violation(
            rule="clock-sanity",
            message=(
                f"clock slope over [{t0:.9g}, {t1:.9g}] is {slope:.9g} "
                f"(|slope-1| > {slope_tol:g})"
            ),
            time=t0, rank=rank, details={"slope": slope},
        ))
    return out


def check_global_clock(
    clock,
    t0: float,
    t1: float,
    rank: int = -1,
    label: str = "",
    npoints: int = 64,
    slope_tol: float = SLOPE_TOL,
) -> list[Violation]:
    """Mode-aware clock check for experiment code paths.

    No-op when checking is off; raises in strict mode; in report mode
    merges any violations into the context's ``check_report`` (when
    set) and returns them either way.
    """
    if current_context().check is None:
        return []
    return flag_violations(
        clock_sanity_violations(
            clock, t0, t1, npoints=npoints, slope_tol=slope_tol, rank=rank
        ),
        label or "clock-check",
    )
