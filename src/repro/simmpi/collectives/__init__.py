"""MPI collective operations built from point-to-point messages.

Each module implements one collective as generator functions built from
point-to-point sends/receives, mirroring the communication structure of the
like-named algorithms in Open MPI's ``coll/tuned`` component.  Because the
structure is real (not a closed-form cost model), algorithm-dependent
artefacts — barrier-exit imbalance, skewed completion times, latency
differences between variants — emerge from the simulation, which is exactly
what the paper's Figs. 7–9 study.  Barrier, bcast and allreduce keep the
variants the paper's runs select (one ``*_ALGORITHMS`` table each); every
other collective has one algorithm.
"""

from repro.simmpi.collectives.barrier import BARRIER_ALGORITHMS, barrier
from repro.simmpi.collectives.bcast import BCAST_ALGORITHMS, bcast
from repro.simmpi.collectives.reduce import reduce
from repro.simmpi.collectives.allreduce import ALLREDUCE_ALGORITHMS, allreduce
from repro.simmpi.collectives.gather import gather
from repro.simmpi.collectives.scatter import scatter
from repro.simmpi.collectives.allgather import allgather
from repro.simmpi.collectives.alltoall import alltoall

__all__ = [
    "BARRIER_ALGORITHMS",
    "BCAST_ALGORITHMS",
    "ALLREDUCE_ALGORITHMS",
    "barrier",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
]
