"""Chunked uniform-variate pools for the engine's delay draws.

The discrete-event hot path consumes two to four random variates per
simulated message (jitter, outlier trigger, outlier magnitude, congestion
noise).  Drawing them one scalar ``numpy`` call at a time dominates the
per-message cost: each ``Generator.exponential()``/``random()`` call pays
several hundred nanoseconds of argument marshalling before any bits are
generated.

:class:`UniformPool` amortizes that overhead by pre-drawing uniform
variates in chunks (``rng.random(chunk)``) and handing them out by
cursor.  The key property that keeps simulations bit-for-bit reproducible
is that numpy fills an array request from the *same* bit stream, in the
same order, as the equivalent sequence of scalar calls::

    default_rng(s).random(n)[i] == i-th of n default_rng(s).random() calls

so the chunk size is a pure performance knob: any two pools over
generators with the same seed produce the same variate sequence
regardless of chunking (``tests/simmpi/test_network.py`` pins this).

Refills *ramp*: the first refill draws :data:`RAMP_START` variates and
each subsequent one doubles until the configured chunk cap.  Rank-scaled
workloads hold thousands of pools that each consume only a few dozen
variates (one sync round's worth); ramping bounds the per-pool over-draw
to ~2× its consumption instead of a fixed 1024-variate block.  By the
array-fill property above, the ramp schedule — like the cap — cannot
change results.

Refills are stored packed, as ``array('d')``: a warm pool holds up to
:data:`DEFAULT_CHUNK` variates, which as boxed floats in a list (40 bytes
each with the list slot) are most of the heap of a many-rank run; packed
they cost 8 bytes each.  Indexing the array returns a Python ``float``
with the same bits, so no stream, repr or fingerprint depends on the
storage.

All *derived* variates (exponential jitter, outlier triggers) are
computed from these uniforms by explicit inverse-CDF transforms in
:mod:`repro.simmpi.network` rather than by numpy's ziggurat samplers.
The ziggurat consumes a data-dependent number of raw draws per variate,
which would make chunked refills diverge from scalar consumption; the
inverse CDF consumes exactly one uniform per variate, which is what makes
pool chunking invisible to results.
"""

from __future__ import annotations

from array import array

import numpy as np

#: Default refill cap, in variates.  Large enough to amortize the numpy
#: call overhead across hundreds of messages once a pool is warm.
DEFAULT_CHUNK = 1024

#: First-refill size; refills double from here up to the pool's cap.
RAMP_START = 64


class UniformPool:
    """Cursor over chunked ``rng.random()`` draws (see module docstring).

    ``next()`` returns the same float sequence as repeated scalar
    ``rng.random()`` calls on a generator with the same seed, for *any*
    chunk cap and ramp schedule.  The buffer ``buf`` is packed doubles
    (``array('d')``); indexing it yields a Python ``float``, never an
    ``np.float64``, whose repr would differ.  ``buf[idx:]`` are the
    variates not yet taken, so a reader may also index ``buf`` itself,
    store its cursor back in ``idx`` and call :meth:`refill` when it
    finds the buffer drained (the engine's exchange loop does): mixed
    with ``next()`` in any order, that still yields the scalar stream.
    """

    __slots__ = ("rng", "chunk", "buf", "idx", "_next_len")

    def __init__(
        self, rng: np.random.Generator, chunk: int = DEFAULT_CHUNK
    ) -> None:
        if chunk < 1:
            raise ValueError("chunk must be >= 1")
        self.rng = rng
        self.chunk = int(chunk)
        self.buf = array("d")
        self.idx = 0
        self._next_len = min(RAMP_START, self.chunk)

    def next(self) -> float:
        """The next uniform variate in [0, 1)."""
        idx = self.idx
        buf = self.buf
        if idx >= len(buf):
            buf, idx, _ = self.refill()
        self.idx = idx + 1
        return buf[idx]

    def refill(self) -> tuple[array, int, int]:
        """Replace the drained buffer with the ramp's next draw; returns
        ``(buf, idx, len(buf))``, the cursor at 0."""
        n = self._next_len
        if n < self.chunk:
            self._next_len = min(n << 1, self.chunk)
        buf = self.buf = array("d", self.rng.random(n).tobytes())
        self.idx = 0
        return buf, 0, n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UniformPool(chunk={self.chunk}, "
            f"buffered={len(self.buf) - self.idx})"
        )
