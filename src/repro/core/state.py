"""Columnar (structure-of-arrays) per-tile state of one simulated machine.

:class:`CoreState` holds every tile's mutable simulation state as flat
parallel arrays indexed by tile id (and, for queues, by
``tile * num_tasks + task``).  It keeps only the columns something reads
back:

* task input queues (one deque of pooled record indices per tile x task,
  filled on the first push: only the cycle engine queues invocations), their
  push/pop/high-water counts (read by the invariant tracer) and the
  per-tile ``pending`` total (read by scheduling and idle checks);
* engine dispatch flags (``busy``, ``refill_pending``);
* PU occupancy (``pu_busy_until``) and the two per-tile result columns,
  ``pu_busy_cycles`` and ``pu_instructions``;
* the TSU round-robin cursors;
* the barrierless local frontiers, as one push-order ``(tile, vertex)``
  :class:`FrontierLog`;
* the NoC interface port state shared with the flit-level simulator
  (``noc_inject_free`` / ``noc_eject_free``).

Machine-wide traffic, memory and energy tallies live in the engine's
:class:`~repro.core.results.AggregateCounters`; per-router traffic comes
from the link-load model.

Pending invocations are held in a :class:`RecordPool`: parallel arrays of
(tile, task, params, remote) slots recycled through a free list, so steady
state simulation allocates no per-event objects.

Scheduling semantics are bit-compatible with
:class:`repro.tile.tsu.TaskSchedulingUnit`; ``tests/core/test_state.py`` pins
the two implementations against each other.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Scheduling policies understood by :meth:`CoreState.select_task` (mirrors
#: :data:`repro.tile.tsu.SCHEDULING_POLICIES`).
ROUND_ROBIN = "round_robin"
OCCUPANCY = "occupancy"


class RecordPool:
    """Pooled task-invocation records: parallel arrays plus a free list.

    One record is the columnar replacement for a ``TaskInvocation`` object:
    destination tile, task id, parameter tuple and the remote flag live in
    parallel lists addressed by an integer handle.  Handles are recycled
    through :attr:`free`, so a run's steady state reuses a bounded set of
    slots instead of allocating one object per delivered message.
    """

    __slots__ = ("tile", "task", "params", "remote", "free")

    def __init__(self) -> None:
        self.tile: List[int] = []
        self.task: List[int] = []
        self.params: List[tuple] = []
        self.remote: List[bool] = []
        self.free: List[int] = []

    def alloc(self, tile: int, task: int, params: tuple, remote: bool) -> int:
        """Claim a record slot and return its integer handle."""
        free = self.free
        if free:
            index = free.pop()
            self.tile[index] = tile
            self.task[index] = task
            self.params[index] = params
            self.remote[index] = remote
            return index
        index = len(self.tile)
        self.tile.append(tile)
        self.task.append(task)
        self.params.append(params)
        self.remote.append(remote)
        return index

    def release(self, index: int) -> None:
        """Return a record slot to the pool (drops the params reference)."""
        self.params[index] = ()
        self.free.append(index)

    @property
    def allocated(self) -> int:
        """Total slots ever created (live + free)."""
        return len(self.tile)

    def live_records(self) -> int:
        """Slots currently claimed (0 at the end of a fully-drained run)."""
        return len(self.tile) - len(self.free)


class FrontierLog:
    """The barrierless local frontiers of every tile, as one columnar log.

    The paper's T3 -> T4 hand-off: T3 pushes each vertex that newly enters
    the frontier with the tile that owns it, and T4 pulls a tile's parked
    vertices back once the tile would otherwise idle.  Entries are kept in
    push order in two int64 columns (the first ``size`` slots); a tile's
    entries, read in log order, are its FIFO queue.
    """

    __slots__ = ("tiles", "vertices", "size")

    def __init__(self) -> None:
        self.tiles = np.empty(16, dtype=np.int64)
        self.vertices = np.empty(16, dtype=np.int64)
        self.size = 0

    def _reserve(self, size: int) -> None:
        if size > len(self.tiles):
            spare = np.empty(max(size, 2 * len(self.tiles)) - self.size, dtype=np.int64)
            self.tiles = np.concatenate((self.tiles[: self.size], spare))
            self.vertices = np.concatenate((self.vertices[: self.size], spare))

    def push(self, tiles: np.ndarray, vertices: np.ndarray) -> None:
        """Append ``(tiles[i], vertices[i])`` entries in item order."""
        start = self.size
        self._reserve(start + len(tiles))
        self.tiles[start : start + len(tiles)] = tiles
        self.vertices[start : start + len(tiles)] = vertices
        self.size = start + len(tiles)

    def push_one(self, tile: int, vertex: int) -> None:
        """Append one entry (the scalar T3 path)."""
        size = self.size
        self._reserve(size + 1)
        self.tiles[size] = tile
        self.vertices[size] = vertex
        self.size = size + 1

    def take(
        self, budget: int, lo: int = 0, hi: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pull up to ``budget`` entries from each tile in ``[lo, hi)``
        (every tile when ``hi`` is None).

        Returns ``(tiles, vertices)`` in tile order, FIFO within each tile
        -- each tile's queue pop, tile after tile -- and leaves the other
        entries in push order.
        """
        tiles = self.tiles[: self.size]
        if hi is not None and hi - lo == 1:
            chosen = np.flatnonzero(tiles == lo)[:budget]
        else:
            inside = np.flatnonzero(tiles >= lo)
            if hi is not None:
                inside = inside[tiles[inside] < hi]
            candidates = inside[np.argsort(tiles[inside], kind="stable")]
            ordered = tiles[candidates]
            starts = np.flatnonzero(np.diff(ordered, prepend=-1))
            rank = np.arange(len(ordered), dtype=np.int64) - np.repeat(
                starts, np.diff(np.append(starts, len(ordered)))
            )
            chosen = candidates[rank < budget]
        taken = tiles[chosen], self.vertices[chosen]
        if len(chosen):
            kept = np.ones(self.size, dtype=bool)
            kept[chosen] = False
            kept = np.flatnonzero(kept)
            self.tiles[: len(kept)] = tiles[kept]
            self.vertices[: len(kept)] = self.vertices[kept]
            self.size = len(kept)
        return taken


class CoreState:
    """All mutable per-tile simulation state, as flat parallel arrays.

    Args:
        num_tiles: number of tiles (rows of every per-tile array).
        task_ids: the program's task ids.  Machine-built programs use dense
            ids ``0..K-1``; the queue-column mapping also accepts sparse ids.
        iq_capacities: input-queue capacity per task id.
        scheduling_policy: ``"occupancy"`` or ``"round_robin"`` (the same
            semantics as :class:`~repro.tile.tsu.TaskSchedulingUnit`).
    """

    def __init__(
        self,
        num_tiles: int,
        task_ids: Sequence[int],
        iq_capacities: Dict[int, int],
        scheduling_policy: str = OCCUPANCY,
        high_threshold: float = 0.75,
        low_threshold: float = 0.25,
    ) -> None:
        if scheduling_policy not in (ROUND_ROBIN, OCCUPANCY):
            raise ConfigurationError(
                f"unknown scheduling policy {scheduling_policy!r}; "
                f"expected one of ({ROUND_ROBIN!r}, {OCCUPANCY!r})"
            )
        self.num_tiles = num_tiles
        self.task_ids = list(task_ids)
        self.num_tasks = len(self.task_ids)
        self.scheduling_policy = scheduling_policy
        self.high_threshold = high_threshold
        self.low_threshold = low_threshold
        #: task id -> queue column (identity for dense machine programs).
        self.task_column = {tid: col for col, tid in enumerate(self.task_ids)}
        #: ``(column, task id)`` pairs in column order, scanned by select_task.
        self.columns = list(enumerate(self.task_ids))
        self.dense_tasks = self.task_ids == list(range(self.num_tasks))
        #: capacity per queue column (identical across tiles).
        self.queue_capacity = [iq_capacities[tid] for tid in self.task_ids]

        slots = num_tiles * self.num_tasks
        # Task input queues, one deque per tile x task (entries are
        # RecordPool handles on the engine hot path; the queue logic itself
        # accepts arbitrary items).  Filled by the first push, since only
        # the cycle engine queues invocations.  A list filled in place, not
        # a cached_property: on CPython 3.11 that would slow every CoreState
        # attribute read in the dispatch loop.
        self.queues: List[deque] = []
        self.queue_pushed = [0] * slots
        self.queue_popped = [0] * slots
        self.queue_max_occupancy = [0] * slots
        #: Pending invocations per tile, summed over its queues (kept by
        #: every push and pop, so idle checks are one lookup).
        self.pending = [0] * num_tiles

        # Engine dispatch flags.
        self.busy = [False] * num_tiles
        self.refill_pending = [False] * num_tiles

        # Processing unit occupancy and the per-tile result columns.
        self.pu_busy_until = [0.0] * num_tiles
        self.pu_busy_cycles = [0.0] * num_tiles
        self.pu_instructions = [0] * num_tiles

        # TSU round-robin cursors.
        self.tsu_cursor = [0] * num_tiles

        # The barrierless local frontiers (the paper's T3 -> T4 hand-off).
        self.frontier = FrontierLog()

        # NoC interface port state, shared with the network models: the next
        # cycle each tile's injection / ejection port is free.
        self.noc_inject_free = [0.0] * num_tiles
        self.noc_eject_free = [0.0] * num_tiles

        #: Pooled pending-invocation records shared by every queue.
        self.records = RecordPool()

    # ------------------------------------------------------------------ queues
    def queue_index(self, tile: int, task_id: int) -> int:
        """Flat queue-column index of ``(tile, task)``."""
        if self.dense_tasks:
            return tile * self.num_tasks + task_id
        return tile * self.num_tasks + self.task_column[task_id]

    def push_invocation(self, tile: int, task_id: int, item) -> None:
        """Push one pending invocation; mirrors ``CircularQueue.push`` with
        ``allow_overflow=True`` (a full queue never rejects).

        This is the single engine-path push implementation (the cycle
        engine's delivery/refill enqueues land here), so it inlines the
        column arithmetic instead of calling :meth:`queue_index`.
        """
        col = task_id if self.dense_tasks else self.task_column[task_id]
        qi = tile * self.num_tasks + col
        queues = self.queues
        if not queues:
            queues.extend(deque() for _ in range(self.num_tiles * self.num_tasks))
        queue = queues[qi]
        queue.append(item)
        self.queue_pushed[qi] += 1
        self.pending[tile] += 1
        occupancy = len(queue)
        if occupancy > self.queue_max_occupancy[qi]:
            self.queue_max_occupancy[qi] = occupancy

    def pop_invocation(self, tile: int, task_id: int):
        """Pop the oldest pending invocation of ``(tile, task)``."""
        qi = self.queue_index(tile, task_id)
        self.queue_popped[qi] += 1
        self.pending[tile] -= 1
        return self.queues[qi].popleft()

    def tile_pending(self, tile: int) -> int:
        """Total pending invocations across the tile's input queues."""
        return self.pending[tile]

    def tile_is_idle(self, tile: int) -> bool:
        return not self.pending[tile]

    # -------------------------------------------------------------- scheduling
    def select_task(self, tile: int) -> Optional[int]:
        """Pick the next task the tile's TSU would run (or ``None``).

        Bit-compatible with ``TaskSchedulingUnit.select_task`` called with no
        output-occupancy hint: the occupancy policy's medium priority level
        (starving downstream consumers) never fires because the default
        output occupancy of 0.5 exceeds the low threshold, exactly as in the
        object implementation.
        """
        if not self.pending[tile]:
            return None
        base = tile * self.num_tasks
        if self.scheduling_policy == ROUND_ROBIN:
            return self._select_round_robin(tile, base)
        queues = self.queues
        ready = [tid for col, tid in self.columns if queues[base + col]]
        if len(ready) == 1:
            # Occupancy selection over a single ready task is that task; the
            # priority comparison only arbitrates between candidates.  (The
            # round-robin policy cannot shortcut: its cursor advances by a
            # data-dependent amount even for a lone candidate.)
            return ready[0]
        return self._select_by_occupancy(tile, ready)

    def _select_round_robin(self, tile: int, base: int) -> int:
        """The first non-empty queue at or after the cursor, in column order.

        The tile has pending work, so one full turn of the cursor finds it.
        """
        queues = self.queues
        num_tasks = self.num_tasks
        cursor = self.tsu_cursor[tile]
        while True:
            col = cursor % num_tasks
            cursor += 1
            if queues[base + col]:
                self.tsu_cursor[tile] = cursor
                return self.task_ids[col]

    def _select_by_occupancy(self, tile: int, ready: List[int]) -> int:
        base = tile * self.num_tasks
        queues = self.queues
        capacities = self.queue_capacity
        high = self.high_threshold
        column = self.task_column

        def priority(task_id: int) -> tuple:
            col = column[task_id]
            occupancy = len(queues[base + col])
            capacity = capacities[col]
            # High priority when the input queue is nearly full; the medium
            # level needs an output-occupancy hint the engines never pass.
            level = 2 if occupancy / capacity >= high else 0
            return (level, capacity, occupancy)

        return max(sorted(ready), key=priority)
