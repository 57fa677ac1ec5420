"""Task Scheduling Unit (TSU): selects which ready task the PU runs next.

The paper's TSU invokes a task only when its input queue is non-empty, and
arbitrates between ready tasks using queue occupancy: a task gets high priority
when its IQ is nearly full, medium priority when its output queue is nearly
empty, and low priority otherwise; ties break toward the larger queue.  A basic
round-robin policy is also provided (the ``Basic-TSU`` rung in Fig. 5).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.tile.queues import CircularQueue

ROUND_ROBIN = "round_robin"
OCCUPANCY = "occupancy"
SCHEDULING_POLICIES = (ROUND_ROBIN, OCCUPANCY)


class TaskSchedulingUnit:
    """Per-tile scheduler choosing among tasks with pending input-queue entries."""

    def __init__(
        self,
        task_ids: Sequence[int],
        policy: str = OCCUPANCY,
        high_threshold: float = 0.75,
        low_threshold: float = 0.25,
    ) -> None:
        if policy not in SCHEDULING_POLICIES:
            raise ConfigurationError(
                f"unknown scheduling policy {policy!r}; expected one of {SCHEDULING_POLICIES}"
            )
        self.task_ids = list(task_ids)
        self.policy = policy
        self.high_threshold = high_threshold
        self.low_threshold = low_threshold
        self._round_robin_cursor = 0
        self.scheduling_decisions = 0
        self.clock_gated = True

    # ---------------------------------------------------------------- policies
    def select_task(
        self,
        input_queues: Dict[int, CircularQueue],
        output_occupancy: Optional[Dict[int, float]] = None,
    ) -> Optional[int]:
        """Pick the next task to execute, or ``None`` when no task is ready.

        Args:
            input_queues: per-task input queues of the tile.
            output_occupancy: optional per-task occupancy fraction of the task's
                output channel queue (used by the occupancy policy's
                medium-priority rule); missing entries default to 0.5.
        """
        ready = [tid for tid in self.task_ids if not input_queues[tid].is_empty]
        if not ready:
            self.clock_gated = True
            return None
        self.clock_gated = False
        self.scheduling_decisions += 1
        if self.policy == ROUND_ROBIN:
            return self._select_round_robin(ready)
        return self._select_by_occupancy(ready, input_queues, output_occupancy or {})

    def _select_round_robin(self, ready: Sequence[int]) -> int:
        ordered = sorted(ready)
        for _ in range(len(self.task_ids)):
            candidate = self.task_ids[self._round_robin_cursor % len(self.task_ids)]
            self._round_robin_cursor += 1
            if candidate in ordered:
                return candidate
        return ordered[0]

    def _select_by_occupancy(
        self,
        ready: Sequence[int],
        input_queues: Dict[int, CircularQueue],
        output_occupancy: Dict[int, float],
    ) -> int:
        def priority(task_id: int) -> tuple:
            iq = input_queues[task_id]
            oq_occupancy = output_occupancy.get(task_id, 0.5)
            if iq.occupancy_fraction() >= self.high_threshold:
                level = 2  # high: input queue nearly full, drain it first
            elif oq_occupancy <= self.low_threshold:
                level = 1  # medium: downstream consumers are starving
            else:
                level = 0
            # Ties break toward the larger queue (more buffered work at stake).
            return (level, iq.capacity, iq.occupancy)

        return max(sorted(ready), key=priority)

    def ready_tasks(self, input_queues: Dict[int, CircularQueue]) -> list:
        """Task IDs whose input queue currently holds at least one entry."""
        return [tid for tid in self.task_ids if not input_queues[tid].is_empty]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TaskSchedulingUnit(policy={self.policy!r}, tasks={self.task_ids})"
