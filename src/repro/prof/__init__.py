"""Simulator self-profiling: hierarchical wall-time zones + exporters.

See :mod:`repro.prof.core` for the zone API and the passivity contract
(profiled runs are bit-identical to unprofiled ones), and
:mod:`repro.prof.export` for the speedscope / table / ``profile.json``
output formats.  ``python -m repro.experiments <target> --record DIR
--profile`` is the main entry point; the traced pass of
``perfbench/run.py`` reads the same zones for its per-layer metrics.
"""

from repro.prof.core import (
    Profiler,
    Zone,
    default_profiler,
)
from repro.prof.export import (
    flatten,
    format_table,
    profile_dict,
    speedscope_document,
    top_zones,
    total_effective_ns,
    write_profile,
)

__all__ = [
    "Profiler",
    "Zone",
    "default_profiler",
    "flatten",
    "format_table",
    "profile_dict",
    "speedscope_document",
    "top_zones",
    "total_effective_ns",
    "write_profile",
]
