"""Per-tile scratchpad SRAM model: capacity bookkeeping and access counters.

A Dalorex tile's area is dominated by its scratchpad, which holds the local
chunks of the dataset arrays, the task code, and the queue storage.  The model
tracks how many bytes each component needs (for the area/energy model and the
"does the dataset fit?" checks) and counts reads/writes (for dynamic energy).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import CapacityError


class Scratchpad:
    """SRAM scratchpad with named regions and access counters.

    Args:
        capacity_bytes: total SRAM bytes available in the tile.  ``None`` means
            "size the scratchpad to fit whatever is registered" (used when the
            experiment derives the memory-per-tile from the dataset, as the
            paper's scaling study does).
        strict: raise :class:`CapacityError` when a registration exceeds the
            capacity instead of silently growing.
    """

    def __init__(self, capacity_bytes: int | None = None, strict: bool = True) -> None:
        self.capacity_bytes = capacity_bytes
        self.strict = strict and capacity_bytes is not None
        self.regions: Dict[str, int] = {}
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # ------------------------------------------------------------- capacity
    @property
    def used_bytes(self) -> int:
        return sum(self.regions.values())

    @property
    def free_bytes(self) -> int:
        if self.capacity_bytes is None:
            return 0
        return self.capacity_bytes - self.used_bytes

    def effective_capacity_bytes(self) -> int:
        """Provisioned capacity, or the used footprint when auto-sized."""
        if self.capacity_bytes is not None:
            return self.capacity_bytes
        return self.used_bytes

    def register_region(self, name: str, nbytes: int) -> None:
        """Reserve ``nbytes`` for a named region (array chunk, code, queue)."""
        if nbytes < 0:
            raise CapacityError("region size cannot be negative")
        previous = self.regions.get(name, 0)
        new_total = self.used_bytes - previous + nbytes
        if self.strict and self.capacity_bytes is not None and new_total > self.capacity_bytes:
            raise CapacityError(
                f"scratchpad overflow registering {name!r}: "
                f"{new_total} bytes needed, {self.capacity_bytes} available"
            )
        self.regions[name] = nbytes

    def fits(self) -> bool:
        """True when every registered region fits in the provisioned capacity."""
        if self.capacity_bytes is None:
            return True
        return self.used_bytes <= self.capacity_bytes

    def utilization(self) -> float:
        """Used fraction of the provisioned capacity (0 when auto-sized)."""
        capacity = self.effective_capacity_bytes()
        if capacity == 0:
            return 0.0
        return self.used_bytes / capacity

    # --------------------------------------------------------------- accesses
    def record_read(self, count: int = 1, entry_bytes: int = 4) -> None:
        self.reads += count
        self.bytes_read += count * entry_bytes

    def record_write(self, count: int = 1, entry_bytes: int = 4) -> None:
        self.writes += count
        self.bytes_written += count * entry_bytes

    @property
    def total_accesses(self) -> int:
        return self.reads + self.writes

    @property
    def total_bytes_accessed(self) -> int:
        return self.bytes_read + self.bytes_written

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        cap = self.capacity_bytes if self.capacity_bytes is not None else "auto"
        return f"Scratchpad(used={self.used_bytes}B, capacity={cap})"
