"""Profile exporters: speedscope flamegraph, top-N table, profile.json.

Three views of one :class:`~repro.prof.core.Profiler` tree:

* :func:`speedscope_document` — a speedscope-compatible "evented" profile
  (open in https://www.speedscope.app or via ``speedscope profile.json``).
  The tree holds *aggregated* zone times, not an event log, so the
  exporter synthesizes a canonical timeline: children of a zone are laid
  out back-to-back from the zone's open; the remainder is the zone's
  self time.  The flamegraph therefore shows where wall time went, with
  frame widths exact and ordering canonical rather than chronological.
* :func:`format_table` — a text top-N table ordered by self time, the
  quick-look view the CLI prints.
* :func:`profile_dict` / :func:`write_profile` — the machine-readable
  ``profile.json`` artifact (flat zone list with counts, total and self
  nanoseconds) plus the speedscope file, as written by ``--profile DIR``.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.prof.core import Profiler, Zone

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

#: File names written by :func:`write_profile` under the output directory.
PROFILE_JSON = "profile.json"
SPEEDSCOPE_JSON = "profile.speedscope.json"


def _effective_ns(zone: Zone) -> int:
    """Inclusive time consistent with the subtree (children never spill).

    ``add()``-accounted leaf durations can slightly exceed the parent
    zone's own clock reads (they are separate measurements); exports use
    ``max(total, sum(children))`` per zone so self times are never
    negative and subtree sums are exact.
    """
    return max(zone.total_ns, sum(
        _effective_ns(c) for c in zone.children.values()
    ))


def flatten(profiler: Profiler) -> list[dict[str, Any]]:
    """Flat zone rows: path, depth, count, total/self nanoseconds.

    ``total_ns`` is the zone's raw measured inclusive time; ``self_ns``
    is derived from the *effective* totals (see :func:`_effective_ns`),
    so for every subtree ``sum(self_ns) == effective total`` exactly.
    """
    rows = []
    for path, zone in profiler.walk():
        effective = _effective_ns(zone)
        rows.append({
            "path": "/".join(path),
            "name": zone.name,
            "depth": len(path) - 1,
            "count": zone.count,
            "total_ns": zone.total_ns,
            "self_ns": effective - sum(
                _effective_ns(c) for c in zone.children.values()
            ),
        })
    return rows


def total_effective_ns(profiler: Profiler) -> int:
    """Wall time covered by the document: top-level effective totals."""
    return sum(
        _effective_ns(c) for c in profiler.root.children.values()
    )


def profile_dict(
    profiler: Profiler, meta: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The machine-readable ``profile.json`` document.

    ``self_ns`` over all rows sums *exactly* to ``total_ns`` of the
    document, which is what lets the acceptance check "zone self-times
    cover the measured wall time" be evaluated from this artifact alone.
    """
    return {
        "format": "repro-profile",
        "version": 1,
        "unit": "nanoseconds",
        "total_ns": total_effective_ns(profiler),
        "meta": meta or {},
        "zones": flatten(profiler),
    }


def speedscope_document(
    profiler: Profiler, name: str = "repro simulator profile"
) -> dict[str, Any]:
    """Speedscope "evented" profile of the aggregated zone tree."""
    frames: list[dict[str, str]] = []
    frame_index: dict[str, int] = {}

    def frame_of(zone_name: str) -> int:
        idx = frame_index.get(zone_name)
        if idx is None:
            idx = frame_index[zone_name] = len(frames)
            frames.append({"name": zone_name})
        return idx

    events: list[dict[str, Any]] = []

    def emit(zone: Zone, at: int) -> int:
        total = _effective_ns(zone)
        idx = frame_of(zone.name)
        events.append({"type": "O", "frame": idx, "at": at})
        cursor = at
        for child_name in sorted(zone.children):
            cursor = emit(zone.children[child_name], cursor)
        close = at + total
        events.append({"type": "C", "frame": idx, "at": close})
        return close

    cursor = 0
    for top_name in sorted(profiler.root.children):
        cursor = emit(profiler.root.children[top_name], cursor)

    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro.prof",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "evented",
            "name": name,
            "unit": "nanoseconds",
            "startValue": 0,
            "endValue": cursor,
            "events": events,
        }],
    }


def format_table(profiler: Profiler, top: int = 15) -> str:
    """Top-``top`` zones by self time, with counts and totals."""
    rows = flatten(profiler)
    grand = total_effective_ns(profiler) or 1
    rows.sort(key=lambda r: (-r["self_ns"], r["path"]))
    lines = [
        f"{'self':>10}  {'%':>6}  {'total':>10}  {'count':>10}  zone",
    ]
    for row in rows[:top]:
        lines.append(
            f"{row['self_ns'] / 1e6:9.2f}ms"
            f"  {100.0 * row['self_ns'] / grand:5.1f}%"
            f"  {row['total_ns'] / 1e6:8.2f}ms"
            f"  {row['count']:>10}"
            f"  {row['path']}"
        )
    covered = sum(r["self_ns"] for r in rows[:top])
    lines.append(
        f"(top {min(top, len(rows))} of {len(rows)} zones cover "
        f"{100.0 * covered / grand:.1f}% of {grand / 1e6:.2f}ms profiled)"
    )
    return "\n".join(lines)


def top_zones(profiler: Profiler, top: int = 5) -> list[dict[str, Any]]:
    """The ``top`` rows by self time (for summaries)."""
    rows = flatten(profiler)
    rows.sort(key=lambda r: (-r["self_ns"], r["path"]))
    return rows[:top]


def write_profile(
    profiler: Profiler,
    out_dir: str,
    meta: dict[str, Any] | None = None,
    name: str = "repro simulator profile",
) -> tuple[str, str]:
    """Write ``profile.json`` + ``profile.speedscope.json`` under a dir."""
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, PROFILE_JSON)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(profile_dict(profiler, meta), fh, indent=2, sort_keys=True)
        fh.write("\n")
    speedscope_path = os.path.join(out_dir, SPEEDSCOPE_JSON)
    with open(speedscope_path, "w", encoding="utf-8") as fh:
        json.dump(speedscope_document(profiler, name), fh, sort_keys=True)
        fh.write("\n")
    return json_path, speedscope_path
