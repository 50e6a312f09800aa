"""Performance-regression gate over the ``BENCH_engine.json`` trajectory.

Per metric, compares the trajectory's **latest** entry carrying that
metric against the **best prior** one and fails when the latest has
regressed past it by more than the tolerance — the guard the ROADMAP's
"fast as the hardware allows" goal needs, generalized from a frozen
baseline/current pair to an append-only history.  Checks (each one
emitted only when at least two entries carry the data — entries may
legitimately miss optional sections, e.g. ``campaign_parallel`` on a
1-CPU runner, ``scaling`` from trees that predate the probe, or
engine/campaign numbers in a scaling-only entry):

* ``engine.msgs_per_sec`` — latest lower than the best (max) prior by
  > tolerance fails; gated per event-queue kernel (entries recorded
  before the engine grew selectable kernels ran the heap and keep the
  unsuffixed name; other kernels check as
  ``engine[q=<kind>].msgs_per_sec``);
* ``campaign.wall_s`` — latest higher than the best (min) prior by
  > tolerance fails, each side using its *fastest* recorded
  configuration (serial or parallel);
* ``service.queries_per_sec`` — clock-service serving throughput
  (``repro.perf.harness.service_benchmark``), latest lower than the
  best prior by > tolerance fails; entries without a ``service``
  section (every entry recorded before the service layer existed) are
  simply not part of this check;
* ``scaling[<workload>/<budget>,p=N].msgs_per_sec`` — one check per
  rank count recorded by ``python -m repro.perf.scaling``, latest vs
  best prior at the same workload, budget and ``p`` (sweeps of
  different configurations never compare).

CLI (for CI)::

    python -m repro.perf.regress [--file BENCH_engine.json]
                                 [--tolerance 0.15] [--soft-fail]

Exit codes: 0 all checks pass, 1 regression detected, 2 benchmark file
or comparable entries missing.  ``--soft-fail`` downgrades every failure
to a warning with exit 0 — for CI phases where the trajectory is still
accumulating or the runner's horsepower is not comparable.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any

from repro.perf.harness import BENCH_FILE, load_bench, upgrade_bench

#: Default allowed relative regression (0.15 == 15%).
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True)
class RegressionCheck:
    """Outcome of one best-prior-vs-latest comparison."""

    name: str
    baseline: float
    current: float
    #: Relative regression, positive == worse (throughput drop fraction,
    #: or wall-time increase fraction).
    regression: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.regression <= self.tolerance

    def describe(self) -> str:
        direction = "drop" if self.name.endswith("_per_sec") else "rise"
        verdict = "ok" if self.ok else "REGRESSION"
        return (
            f"{self.name}: best prior {self.baseline:g} -> latest "
            f"{self.current:g} ({self.regression:+.1%} {direction}, "
            f"tolerance {self.tolerance:.0%}) {verdict}"
        )


def _campaign_wall(entry: dict[str, Any]) -> float | None:
    """Fastest recorded campaign configuration, serial or parallel."""
    walls = [
        entry[key]["wall_s"]
        for key in ("campaign", "campaign_parallel")
        if entry.get(key, {}).get("wall_s")
    ]
    return min(walls) if walls else None


def _scaling_rates(entry: dict[str, Any]) -> dict[str, float]:
    """``{key: msgs_per_sec}`` from a scaling section, if any.

    The key folds in workload, budget and the event-queue kernel, so
    only points measuring the same configuration ever compare (a CI
    sweep at a tiny budget must not gate against the full-size default
    sweep, and a calendar-queue sweep must not gate against a heap one).
    Points recorded before the calendar queue landed carry no field and
    default to ``heap`` — that is what those trees ran.
    """
    section = entry.get("scaling", {})
    workload = section.get("workload", "ring")
    budget = section.get("budget", 0)
    return {
        (
            f"{workload}/{budget},"
            f"q={pt.get('event_queue', section.get('event_queue', 'heap'))},"
            f"p={int(pt['p'])}"
        ): pt["msgs_per_sec"]
        for pt in section.get("points", [])
        if pt.get("p") and pt.get("msgs_per_sec")
    }


def check_bench(
    data: dict[str, Any], tolerance: float = DEFAULT_TOLERANCE
) -> list[RegressionCheck]:
    """All latest-vs-best-prior checks the trajectory's entries support.

    Each metric is gated independently over the entries that *carry* it:
    "latest" is the newest entry recording the metric and "best prior"
    the best among older ones, so an appended scaling-only entry neither
    loses the engine/campaign gate nor trips a missing-section error.
    Raises :class:`KeyError` when no metric appears in at least two
    entries — the caller distinguishes "no data" (exit 2) from "data
    says regression" (exit 1).
    """
    entries = upgrade_bench(data).get("entries", [])
    if len(entries) < 2:
        raise KeyError(
            f"need >= 2 trajectory entries to compare, have {len(entries)}"
        )
    checks: list[RegressionCheck] = []

    # Engine throughput is gated per event-queue kernel: a calendar-queue
    # entry never compares against a heap one (they are different
    # implementations, not the same code getting faster or slower).
    # Entries recorded before the calendar queue landed carry no field:
    # they ran the heap, and keep the historical unsuffixed check name.
    engine_rates: dict[str, list[float]] = {}
    for e in entries:
        engine = e.get("engine", {})
        if engine.get("msgs_per_sec"):
            kind = engine.get("event_queue", "heap")
            engine_rates.setdefault(kind, []).append(
                engine["msgs_per_sec"]
            )
    for kind in sorted(engine_rates):
        rates = engine_rates[kind]
        if len(rates) < 2:
            continue
        b_rate = max(rates[:-1])
        checks.append(RegressionCheck(
            name=(
                "engine.msgs_per_sec" if kind == "heap"
                else f"engine[q={kind}].msgs_per_sec"
            ),
            baseline=b_rate,
            current=rates[-1],
            regression=1.0 - rates[-1] / b_rate,
            tolerance=tolerance,
        ))

    service_rates = [
        e["service"]["queries_per_sec"] for e in entries
        if e.get("service", {}).get("queries_per_sec")
    ]
    if len(service_rates) >= 2:
        b_rate = max(service_rates[:-1])
        checks.append(RegressionCheck(
            name="service.queries_per_sec",
            baseline=b_rate,
            current=service_rates[-1],
            regression=1.0 - service_rates[-1] / b_rate,
            tolerance=tolerance,
        ))

    walls = [
        w for w in (_campaign_wall(e) for e in entries) if w is not None
    ]
    if len(walls) >= 2:
        b_wall = min(walls[:-1])
        checks.append(RegressionCheck(
            name="campaign.wall_s",
            baseline=b_wall,
            current=walls[-1],
            regression=walls[-1] / b_wall - 1.0,
            tolerance=tolerance,
        ))

    by_key: dict[str, list[float]] = {}
    for entry in entries:
        for key, rate in _scaling_rates(entry).items():
            by_key.setdefault(key, []).append(rate)
    for key in sorted(by_key):
        series = by_key[key]
        if len(series) < 2:
            continue
        best = max(series[:-1])
        checks.append(RegressionCheck(
            name=f"scaling[{key}].msgs_per_sec",
            baseline=best,
            current=series[-1],
            regression=1.0 - series[-1] / best,
            tolerance=tolerance,
        ))
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.regress",
        description="Fail when BENCH_engine.json shows a perf regression.",
    )
    parser.add_argument(
        "--file", default=BENCH_FILE,
        help=f"benchmark file to check (default: {BENCH_FILE})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed relative regression (default: 0.15 == 15%%)",
    )
    parser.add_argument(
        "--soft-fail", action="store_true",
        help="report failures but always exit 0 (trajectory bootstrap "
             "mode)",
    )
    args = parser.parse_args(argv)

    data = load_bench(args.file)
    try:
        checks = check_bench(data, tolerance=args.tolerance)
    except KeyError as exc:
        print(f"perf.regress: cannot compare — {exc.args[0]}")
        return 0 if args.soft_fail else 2
    if not checks:
        print("perf.regress: entries present but no comparable metrics")
        return 0 if args.soft_fail else 2

    failed = [c for c in checks if not c.ok]
    for check in checks:
        print(f"perf.regress: {check.describe()}")
    if failed:
        print(
            f"perf.regress: {len(failed)}/{len(checks)} checks regressed"
            + (" (soft-fail: ignoring)" if args.soft_fail else "")
        )
        return 0 if args.soft_fail else 1
    print(f"perf.regress: all {len(checks)} checks within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
