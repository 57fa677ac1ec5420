"""Processing Unit (PU) model: a thin single-issue in-order core without caches.

The PU executes one task at a time, from beginning to end (tasks never block).
The model tracks busy cycles (for utilization and clock-gated leakage), executed
instructions (for dynamic energy) and task counts.
"""

from __future__ import annotations


class ProcessingUnit:
    """Occupancy and instruction accounting for one tile's processing unit."""

    def __init__(self, tile_id: int) -> None:
        self.tile_id = tile_id
        self.busy_until = 0.0
        self.busy_cycles = 0.0
        self.instructions = 0
        self.tasks_executed = 0
        self.stall_cycles = 0.0

    def is_idle(self, now: float) -> bool:
        return now >= self.busy_until

    def start_task(self, now: float, duration_cycles: float, instructions: int) -> float:
        """Occupy the PU for one task execution and return the completion time."""
        start = max(now, self.busy_until)
        self.stall_cycles += max(0.0, start - now)
        self.busy_until = start + duration_cycles
        self.busy_cycles += duration_cycles
        self.instructions += instructions
        self.tasks_executed += 1
        return self.busy_until

    def account_busy(self, duration_cycles: float, instructions: int) -> None:
        """Accumulate work without timeline placement (analytical engine)."""
        self.busy_cycles += duration_cycles
        self.instructions += instructions
        self.tasks_executed += 1

    def utilization(self, total_cycles: float) -> float:
        """Busy fraction of the total runtime (0 when the runtime is zero)."""
        if total_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / total_cycles)

    def reset(self) -> None:
        self.busy_until = 0.0
        self.busy_cycles = 0.0
        self.instructions = 0
        self.tasks_executed = 0
        self.stall_cycles = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ProcessingUnit(tile={self.tile_id}, busy={self.busy_cycles:.0f}cyc, "
            f"instr={self.instructions})"
        )
