"""Standing scenario fuzzer: ``python -m repro.scenarios.fuzz``.

Draws random scenario × algorithm cells from the Hypothesis strategies
in :mod:`repro.scenarios.strategies`, runs each under the strict
simulation sanitizer, and scores it with the degradation harness
(:mod:`repro.scenarios.runner`).  A cell *fails* when it records any
violation: a broken engine invariant, a non-finite measurement, or a
blown error budget (measured or ground-truth).  Hypothesis then shrinks
the failing cell to a minimal example, which is archived as a replayable
JSON repro file::

    python -m repro.scenarios.fuzz --budget 25 --seed 0 --out fuzz-repros
    python -m repro.scenarios.fuzz --replay fuzz-repros/repro_ab12cd34ef56.json

Replaying re-runs the archived cell bit-deterministically and exits 1
when the violation reproduces — the repro file is self-contained, so it
can be committed next to a bug report.  ``--hostile`` cranks adversary
magnitudes and shrinks error budgets so violations are guaranteed
findable within a tiny budget (CI smoke uses this to exercise the
archive + replay path end to end on every run).

Hypothesis is imported lazily (inside :func:`fuzz`) so ``--replay``
works without it installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from repro.context import run_context
from repro.errors import ConfigurationError, InvariantViolation
from repro.scenarios.runner import CellResult, run_scenario_cell

#: Bumped when the repro-file layout changes incompatibly (2: a
#: scenario is one ``faults`` list plus ``error_budget``, no
#: ``adversaries``).
REPRO_VERSION = 2

#: A cell's integer fields and the least value each may take.
_CELL_INTS = {"num_nodes": 1, "ranks_per_node": 1, "rounds": 1, "seed": 0}


def run_cell(cell: dict) -> CellResult:
    """Run one fuzzer cell dict under the strict sanitizer; score it.

    The cell runs strict whatever check mode the caller's run context
    holds.  A strict-mode :class:`~repro.errors.InvariantViolation` is
    folded into the result's violation list (the fuzzer wants one
    uniform "this cell is bad" signal, and the message is
    deterministic).
    """
    try:
        with run_context(check="strict"):
            return run_scenario_cell(
                cell["scenario"],
                cell["label"],
                num_nodes=cell["num_nodes"],
                ranks_per_node=cell["ranks_per_node"],
                rounds=cell["rounds"],
                seed=cell["seed"],
            )
    except InvariantViolation as exc:
        result = CellResult(
            scenario=cell["scenario"]["name"],
            label=cell["label"],
            seed=cell["seed"],
            error_budget=cell["scenario"].get("error_budget", 0.0),
        )
        result.violations.append(f"invariant:{exc}")
        return result


def _cell_problem(cell) -> str | None:
    """Why ``cell`` (read from a repro file) cannot be run, or None."""
    if not isinstance(cell, dict):
        return "no cell object"
    if not isinstance(cell.get("scenario"), dict):
        return "cell has no scenario object"
    if not isinstance(cell.get("label"), str):
        return "cell has no label string"
    for key, least in _CELL_INTS.items():
        value = cell.get(key)
        if type(value) is not int or value < least:
            return f"cell {key} must be an integer >= {least}, got {value!r}"
    return None


def archive_path(out_dir: str, cell: dict) -> str:
    """Content-addressed repro filename (stable across re-runs)."""
    digest = hashlib.sha256(
        json.dumps(cell, sort_keys=True).encode()
    ).hexdigest()[:12]
    return os.path.join(out_dir, f"repro_{digest}.json")


def archive(out_dir: str, cell: dict, violations: list[str]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = archive_path(out_dir, cell)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "repro_version": REPRO_VERSION,
                "cell": cell,
                "violations": violations,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    return path


def fuzz(
    budget: int,
    seed: int,
    out_dir: str,
    hostile: bool = False,
) -> int:
    """Draw up to ``budget`` cells; archive the shrunk first failure.

    Returns 0 when every cell passed, 1 when a violation was found and
    archived.  Deterministic for a given (budget, seed, hostile) triple:
    the Hypothesis database is disabled and generation is seeded, so CI
    re-runs reproduce the identical sequence of cells.
    """
    from hypothesis import HealthCheck, given
    from hypothesis import seed as hyp_seed
    from hypothesis import settings

    from repro.scenarios.strategies import cells

    # Hypothesis re-runs the shrunk minimal example last, so the holder
    # ends up containing exactly the cell worth archiving.
    last_failure: dict = {}
    examples = {"count": 0}

    @settings(
        max_examples=budget,
        database=None,
        deadline=None,
        print_blob=False,
        suppress_health_check=list(HealthCheck),
    )
    @hyp_seed(seed)
    @given(cells(hostile=hostile))
    def probe(cell):
        examples["count"] += 1
        result = run_cell(cell)
        if result.violations:
            last_failure["cell"] = cell
            last_failure["violations"] = list(result.violations)
            raise AssertionError(
                f"scenario violation: {result.violations}"
            )

    try:
        probe()
    except AssertionError:
        path = archive(
            out_dir, last_failure["cell"], last_failure["violations"]
        )
        print(f"violation found after {examples['count']} cell run(s):")
        for violation in last_failure["violations"]:
            print(f"  {violation}")
        print(f"shrunk repro archived: {path}")
        print(
            f"replay with: python -m repro.scenarios.fuzz --replay {path}"
        )
        return 1
    print(f"{examples['count']} cell run(s), no violations")
    return 0


def replay(path: str) -> int:
    """Re-run an archived repro; exit 1 when the violation reproduces.

    A file that cannot be read or parsed exits 2, like a repro of
    another layout version or one whose cell cannot be built: 1 is
    reserved for "reproduced".
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read repro file {path!r}: {exc}", file=sys.stderr)
        return 2
    version = data.get("repro_version") if isinstance(data, dict) else None
    if version != REPRO_VERSION:
        print(
            f"unsupported repro_version {version!r} "
            f"(expected {REPRO_VERSION})",
            file=sys.stderr,
        )
        return 2
    cell = data.get("cell")
    problem = _cell_problem(cell)
    if problem is None:
        try:
            result = run_cell(cell)
        except ConfigurationError as exc:
            problem = str(exc)
    if problem is not None:
        print(f"malformed repro file {path!r}: {problem}", file=sys.stderr)
        return 2
    expected = data.get("violations", [])
    print(f"archived violations: {expected}")
    print(f"replayed violations: {result.violations}")
    if result.violations == expected and result.violations:
        print("violation reproduced")
        return 1
    if result.violations:
        print("different violations on replay")
        return 1
    print("violation did NOT reproduce")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios.fuzz",
        description=(
            "Fuzz random adversarial scenario x algorithm cells; "
            "archive shrunk violations as replayable JSON repro files."
        ),
    )
    parser.add_argument(
        "--budget", type=int, default=25, metavar="N",
        help="maximum number of cells to draw (default 25)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default="fuzz-repros", metavar="DIR",
        help="directory repro files are archived under",
    )
    parser.add_argument(
        "--hostile", action="store_true",
        help="crank adversary magnitudes and shrink error budgets so "
             "violations are guaranteed findable (CI smoke mode)",
    )
    parser.add_argument(
        "--replay", metavar="FILE",
        help="re-run an archived repro file instead of fuzzing; exits 1 "
             "when the violation reproduces",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.replay:
        return replay(args.replay)
    if args.budget < 1:
        print(f"--budget must be >= 1, got {args.budget}", file=sys.stderr)
        return 2
    return fuzz(args.budget, args.seed, args.out, hostile=args.hostile)


if __name__ == "__main__":
    sys.exit(main())
