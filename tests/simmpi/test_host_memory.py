"""Host-memory guard: H2HCA on Titan at 256x16 (p = 4,096).

Communicator splits keep one (color, key) table per call, and delay
pools hold packed doubles, so host memory grows O(p).  Members that each
held the p gathered pairs peaked at 196 MB here.  The simulated run must
not move either: the message count and the final time are exact.

Peak RSS is process-wide, so the simulation runs in a fresh interpreter
and reports its own high-water mark.  That is ``VmHWM``, the peak of
the interpreter's own address space: on Linux ``ru_maxrss`` also keeps
the launching process's peak across ``exec``, so under pytest it would
count the test process's imports and earlier tests against the bound.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Peak RSS bound of the child process, MB.
RSS_BOUND_MB = 120

PROGRAM = """
import json
import resource

from repro.cluster.machines import TITAN
from repro.simmpi.simulation import Simulation
from repro.sync.registry import algorithm_from_label

algorithm = algorithm_from_label(
    "Top/hca3/8/skampi_offset/4/Bottom/ClockPropagation",
    fitpoint_spacing=1e-3,
)


def main(ctx, comm):
    yield from algorithm.sync_clocks(comm, ctx.hardware_clock)
    return ctx.now


def peak_rss_mb():
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


sim = Simulation(machine=TITAN.machine(256, 16), network=TITAN.network(),
                 fabric=TITAN.fabric(256), seed=0)
result = sim.run(main)
print(json.dumps({
    "messages": result.engine_stats["messages_sent"],
    "final": max(result.values),
    "rss_mb": peak_rss_mb(),
}))
"""


def test_h2hca_titan_p4096_fits_in_host_memory():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout.splitlines()[-1])
    assert run["messages"] == 122_304
    assert run["final"] == 0.059911662673089804
    assert run["rss_mb"] < RSS_BOUND_MB, run
