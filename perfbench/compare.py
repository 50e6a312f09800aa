"""Compare two sets of perfbench result files: ``compare.py A.json... -- B.json...``

A is the parent, B the change; the i-th file of each side forms a pair
(run them alternately, equal seeds within a pair).  Per (metric,
workload) the table gives each side's median and quartiles over its
files, the pairs B won, and a verdict by the choosing-metrics rule:

* ``improved``   B wins at least 9/10 of the pairs (ties count for neither)
                 and the medians are further apart than A's own
                 interquartile distance;
* ``regressed``  B's median is worse than A's by more than the metric's bound;
* ``unresolved`` either side's interquartile distance is wider than the
                 bound, unless every B run beats every A run;
* ``unchanged``  otherwise.

Simulated fingerprints of equal-seed pairs and the failure share are
diffed too.  Exit status 1 on any regression or rise in failures.  With
two sets from one commit this is the A/A check: expect no ``improved``
and no ``regressed``.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from report import quartiles

#: Bound on ``sim_sync_s``, which BENCHMARK.json cannot carry (it is
#: undefined on two workloads; see README.md).
SIM_SYNC_BOUND = 0.10
#: All four are lower-is-better.
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "sim_sync_s")


def metric_value(record: dict[str, Any], metric: str) -> float | None:
    if metric == "sim_sync_s":
        return record["sim_sync_s"]
    return record["end_to_end"][metric]


def verdict(a: list[float], b: list[float], bound: float) -> tuple[str, int]:
    """(verdict, pairs won by B) for one lower-is-better metric."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    won = sum(y < x for x, y in zip(a, b))
    if won >= 0.9 * len(a) and a_med - b_med > a_q3 - a_q1:
        return "improved", won
    if b_med > a_med * (1.0 + bound):
        return "regressed", won
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound and not max(b) < min(a):
        return "unresolved", won
    return "unchanged", won


def failure_share(docs: list[dict[str, Any]], workload: str) -> float:
    records = [doc["workloads"][workload] for doc in docs]
    return sum(r["ops_failed"] for r in records) / sum(
        r["ops_attempted"] for r in records
    )


def compare(
    side_a: list[dict[str, Any]], side_b: list[dict[str, Any]]
) -> tuple[list[str], bool]:
    """(report lines, whether anything regressed)."""
    bounds = {**side_a[0]["bounds"], "sim_sync_s": SIM_SYNC_BOUND}
    lines = [
        f"{len(side_a)} pairs; medians [q1, q3] over result files; "
        f"all metrics lower-is-better",
        f"{'workload':<24} {'metric':<12} {'A':>29} {'B':>29} "
        f"{'won':>5}  verdict",
    ]
    bad = False

    def cell(values: list[float]) -> str:
        q1, med, q3 = quartiles(values)
        return f"{med:>9.4f} [{q1:>8.4f},{q3:>8.4f}]"

    for workload in sorted(side_a[0]["workloads"]):
        for metric in METRICS:
            a = [metric_value(d["workloads"][workload], metric) for d in side_a]
            b = [metric_value(d["workloads"][workload], metric) for d in side_b]
            if None in a or None in b:
                continue
            result, won = verdict(a, b, bounds[metric])
            bad |= result == "regressed"
            lines.append(
                f"{workload if metric == 'wall_s' else '':<24} {metric:<12} "
                f"{cell(a)} {cell(b)} {won:>2}/{len(a):<2}  {result}"
            )
        share_a = failure_share(side_a, workload)
        share_b = failure_share(side_b, workload)
        if share_a or share_b:
            lines.append(
                f"{'':<24} failure share A {share_a:.3f}  B {share_b:.3f}"
            )
        bad |= share_b > share_a
        moved = [
            f"seed {doc_a['seed']}"
            for doc_a, doc_b in zip(side_a, side_b)
            if doc_a["seed"] == doc_b["seed"]
            and doc_a["workloads"][workload]["sim_fingerprint"]
            != doc_b["workloads"][workload]["sim_fingerprint"]
        ]
        if moved:
            lines.append(
                f"{'':<24} sim_fingerprint differs: {', '.join(moved)}"
            )
    return lines, bad


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    paths_a, paths_b = argv[:split], argv[split + 1:]
    if not paths_a or len(paths_a) != len(paths_b):
        print("compare.py: need the same number (>= 1) of result files "
              "on both sides of --", file=sys.stderr)
        return 2
    sides = []
    for paths in (paths_a, paths_b):
        docs = []
        for path in paths:
            with open(path) as fh:
                docs.append(json.load(fh))
        sides.append(docs)
    lines, bad = compare(*sides)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
