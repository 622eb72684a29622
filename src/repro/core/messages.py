"""Location-update messages.

Every moving object periodically reports ``m = <o, e, d, t>`` — object id,
edge id, offset from the edge's source vertex, and timestamp (Section II).
Inside the cleaning pipeline a message travels with its cell as a plain
``(cell, message)`` pair (the paper's ``<o, c, e, d, t>``, Section
IV-B1).  A *removal marker* ``<o, null, null, t>`` is appended to an
object's previous cell when it moves between cells (Algorithm 1, line 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import QueryError
from repro.simgpu.memory import MESSAGE_BYTES


@dataclass(frozen=True, slots=True)
class Message:
    """A raw location update from an object.

    Attributes:
        obj: object id.
        edge: edge id the object is on, or ``None`` for a removal marker.
        offset: distance from the edge's source vertex (``None`` for
            removal markers).
        t: update timestamp (seconds; monotone per object).
    """

    obj: int
    edge: int | None
    offset: float | None
    t: float

    @property
    def is_removal(self) -> bool:
        """True for the ``<o, null, null, t>`` markers of Algorithm 1."""
        return self.edge is None

    @property
    def sort_key(self) -> tuple[float, int]:
        """Recency ordering used by every 'newest message wins' compare.

        A removal marker carries the *same* timestamp as the move message
        that spawned it (Algorithm 1 line 5), so ties must resolve in
        favour of the real location update — otherwise the marker can win
        the dedup race and the object silently vanishes from both cells.
        """
        return (self.t, 0 if self.is_removal else 1)

    def device_nbytes(self) -> int:
        """Packed size when shipped to the GPU (five 4-byte fields)."""
        return MESSAGE_BYTES

    def newer_than(self, other: "Message | None") -> bool:
        """Recency comparison with ``None`` meaning 'no message'."""
        return other is None or self.sort_key > other.sort_key


def check_time(obj: int, t: float) -> None:
    """Raise :class:`~repro.errors.QueryError` unless timestamp ``t`` is finite."""
    if not math.isfinite(t):
        raise QueryError(f"object {obj!r}'s timestamp {t!r} is not finite")
