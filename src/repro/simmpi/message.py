"""Messages and the point-to-point matching rules the engine applies.

Matching follows MPI semantics: a receive posted with ``(source, tag)``
matches the *earliest-sent* pending message whose source and tag are
compatible, where :data:`ANY_SOURCE` / :data:`ANY_TAG` act as wildcards.
Non-overtaking is guaranteed because pending messages are kept in send
order (monotonic sequence numbers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Wildcard source rank for receives (MPI_ANY_SOURCE).
ANY_SOURCE: int = -1
#: Wildcard tag for receives (MPI_ANY_TAG).
ANY_TAG: int = -1


@dataclass(slots=True)
class Message:
    """A point-to-point message in flight or queued at the receiver.

    ``send_time``/``arrival`` are *true* simulation times; processes never
    see them directly — they observe only their own clocks.
    """

    source: int
    dest: int
    tag: int
    payload: Any
    size: int
    send_time: float
    arrival: float
    seq: int
    #: Set for synchronous (rendezvous) sends: the sending process handle,
    #: resumed once the receiver matches this message.
    sync_sender: Any = field(default=None, repr=False)
