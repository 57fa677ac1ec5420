"""Circular FIFO queues backing the task input/output queues of a tile.

The paper implements input queues (IQs) and channel/output queues (CQs/OQs) as
circular FIFOs carved out of the scratchpad.  The TSU uses their occupancy both
for scheduling priority and for back-pressure.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import CapacityError


class CircularQueue:
    """Bounded FIFO with occupancy statistics.

    Args:
        capacity: maximum number of entries; pushes beyond it either raise
            (``allow_overflow=False``) or are accepted while being counted as
            overflow events (``allow_overflow=True``), which models unbounded
            ejection buffering in the analytical engine.
        name: label used in error messages and statistics.
    """

    def __init__(self, capacity: int, name: str = "queue", allow_overflow: bool = False) -> None:
        if capacity < 1:
            raise CapacityError(f"queue {name!r} capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.allow_overflow = allow_overflow
        self._entries: Deque[Any] = deque()
        self.total_pushed = 0
        self.total_popped = 0
        self.max_occupancy = 0
        self.overflow_events = 0

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def free_entries(self) -> int:
        return max(0, self.capacity - len(self._entries))

    def occupancy_fraction(self) -> float:
        """Occupancy relative to capacity (may exceed 1.0 when overflowing)."""
        return len(self._entries) / self.capacity

    def nearly_full(self, threshold: float = 0.75) -> bool:
        """True when occupancy is at or above ``threshold`` of capacity."""
        return self.occupancy_fraction() >= threshold

    def nearly_empty(self, threshold: float = 0.25) -> bool:
        """True when occupancy is at or below ``threshold`` of capacity."""
        return self.occupancy_fraction() <= threshold

    # ------------------------------------------------------------- operations
    def push(self, item: Any) -> None:
        if self.is_full and not self.allow_overflow:
            raise CapacityError(f"queue {self.name!r} is full (capacity {self.capacity})")
        if self.is_full:
            self.overflow_events += 1
        self._entries.append(item)
        self.total_pushed += 1
        if len(self._entries) > self.max_occupancy:
            self.max_occupancy = len(self._entries)

    def pop(self) -> Any:
        if not self._entries:
            raise CapacityError(f"queue {self.name!r} is empty")
        self.total_popped += 1
        return self._entries.popleft()

    def peek(self) -> Any:
        if not self._entries:
            raise CapacityError(f"queue {self.name!r} is empty")
        return self._entries[0]

    def try_pop(self) -> Optional[Any]:
        """Pop the head entry or return ``None`` when the queue is empty."""
        if not self._entries:
            return None
        return self.pop()

    def clear(self) -> None:
        self._entries.clear()

    def drain(self) -> list:
        """Pop and return every entry (in FIFO order)."""
        items = []
        while self._entries:
            items.append(self.pop())
        return items

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CircularQueue({self.name!r}, {len(self)}/{self.capacity})"
