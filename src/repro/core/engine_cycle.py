"""Event-driven cycle engine: TSU scheduling, PU occupancy and link contention.

The engine keeps an event heap of task completions and message deliveries.
A tile's TSU picks the next ready task (round-robin or occupancy priority) only
when the PU is idle; a task executes from beginning to end (tasks never block),
then its outgoing messages traverse the NoC through the configured
:mod:`~repro.core.network` model: the analytical model charges per-link
serialization with persistent busy times (so congestion builds up exactly
where traffic concentrates -- the effect visible in the paper's Fig. 10
heatmaps), while ``network="simulated"`` adds finite router input queues,
credit backpressure and pluggable routing via the flit-level
:class:`~repro.noc.sim.simulator.NocSimulator`.

Remote invocations are non-interrupting when the TSU is present and add the
configured interrupt penalty in the Tesseract-style baseline.  Barriered
executions wait for global idle, add the idle-detection/broadcast latency, and
re-seed the next epoch from the kernel (the paper's per-epoch frontier swap).

Hot-path representation (the columnar-core refactor): pending invocations are
integer handles into the machine state's :class:`~repro.core.state.RecordPool`
(destination tile, task id, params, remote flag in parallel arrays); tile
queues are deques of those handles inside :class:`~repro.core.state.CoreState`;
and heap entries are ``(time, key, payload)`` tuples where ``key`` packs the
event kind and a monotonically increasing sequence number into one integer
(``kind << 60 | seq``), preserving the historical (time, kind, seq) ordering
-- deliveries before completions before refills at equal timestamps -- while
keeping comparisons cheap and payloads unallocated.

Link-load accounting is deferred (it is bookkeeping: message timing comes
from ``network.send`` at emission).  Each emitted message appends its
``(src, dst, flits)`` to growable logs, and :meth:`CycleEngine._flush_traffic`
charges them in one batch at the end of every epoch -- and whenever the log
reaches :data:`TRAFFIC_LOG_CHUNK` messages.  Integer tallies are order-free,
and the one float accumulator (flit-millimeters) folds in emission order via
``LinkLoadModel.record_batch``, so the counters match per-message accounting
bit for bit.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional, Tuple

import numpy as np

from repro.core.batch import SeedColumns
from repro.core.context import TaskContext
from repro.core.engine_base import BaseEngine
from repro.core.network import make_network_model
from repro.core.registry import register_engine
from repro.core.results import SimulationResult
from repro.errors import SimulationError

# Event kinds, ordered so deliveries at a timestamp happen before completions.
_DELIVER = 0
_COMPLETE = 1
_REFILL = 2

#: Bit position of the event kind inside a heap key (seq stays below 2**60).
_KIND_SHIFT = 60
#: Kind bits of delivery and completion keys, for pushes that inline _push.
_DELIVER_KEY = _DELIVER << _KIND_SHIFT
_COMPLETE_KEY = _COMPLETE << _KIND_SHIFT

#: Logged messages that trigger a mid-epoch traffic flush, so the log's
#: memory stays flat however many messages one epoch emits.
TRAFFIC_LOG_CHUNK = 1 << 11


class CycleEngine(BaseEngine):
    """Event-driven engine for detailed runs on small and medium grids."""

    def __init__(self, machine) -> None:
        super().__init__(machine)
        self._heap: List[Tuple[float, int, object]] = []
        self._sequence = 0
        # Message timing is delegated to the configured network model
        # (analytical link serialization, or the flit-level simulator with
        # finite queues).  Published on the machine -- like the tracer -- so
        # the conformance network oracle can inspect it after run().  The
        # model shares the machine's columnar state (NoC port arrays).
        self.network = make_network_model(self.config, self.topology, state=self.state)
        machine.network = self.network
        self._last_event_time = 0.0
        # Deferred traffic accounting: one entry per emitted message, in
        # emission order, charged by _flush_traffic.
        self._log_src: List[int] = []
        self._log_dst: List[int] = []
        self._log_flits: List[int] = []
        self._interrupting = self.config.remote_invocation == "interrupting"

    # ------------------------------------------------------------------- heap
    def _push(self, time: float, kind: int, payload) -> None:
        self._sequence += 1
        heappush(self._heap, (time, (kind << _KIND_SHIFT) | self._sequence, payload))

    # ------------------------------------------------------------------ run
    def run(self) -> SimulationResult:
        epoch_index = 0
        time_base = 0.0
        seeds: Optional[SeedColumns] = self.kernel.initial_tasks(self.machine.graph)

        while seeds:
            self._inject_seeds(seeds, time_base, charge=epoch_index > 0)
            self._drain_events()
            if not self.machine.barrier_effective:
                # Barrierless mode: any work still parked in local frontiers is
                # pulled as soon as its tile idles (no global synchronization).
                while self._refill_idle_tiles(self._last_event_time):
                    self._drain_events()
            self._flush_traffic()
            self.tracer.epoch_finished(epoch_index, self.counters)
            epoch_index += 1
            if not self.machine.barrier_effective:
                break
            if epoch_index >= self.config.max_epochs:
                raise SimulationError(
                    f"exceeded max_epochs={self.config.max_epochs}; "
                    "the kernel is not converging"
                )
            seeds = self.next_epoch_seeds(epoch_index)
            if seeds:
                time_base = (
                    self._last_event_time
                    + self.config.barrier_latency_cycles
                    + self.topology.diameter()
                )

        cycles = max(self._last_event_time, 1.0)
        return self.build_result(cycles, epochs=epoch_index)

    # ------------------------------------------------------------------ seeds
    def _inject_seeds(self, seeds: SeedColumns, time_base: float, charge: bool) -> None:
        seeded = self.resolve_seeds(seeds)
        if charge:
            self.charge_epoch_seeding(seeded.tiles)
        alloc = self.state.records.alloc
        task_id = seeded.task.task_id
        for tile_id, params in seeded.items():
            self._push(time_base, _DELIVER, alloc(tile_id, task_id, params, False))

    # ----------------------------------------------------------------- events
    def _drain_events(self) -> None:
        heap = self._heap
        state = self.state
        records_tile = state.records.tile
        records_task = state.records.task
        push_invocation = state.push_invocation
        busy = state.busy
        try_dispatch = self._try_dispatch
        emit_outputs = self._emit_outputs
        last = self._last_event_time
        # Telemetry is observed in plain locals and flushed once after the
        # loop: with observability off the per-event overhead is a single
        # local-bool branch, and either way the event order is untouched.
        telemetry_on = self.telemetry.enabled
        deliver_count = complete_count = refill_count = 0
        peak_heap_depth = len(heap)
        while heap:
            time, key, payload = heappop(heap)
            if time > last:
                last = time
            kind = key >> _KIND_SHIFT
            if kind == _DELIVER:
                if telemetry_on:
                    deliver_count += 1
                tile_id = records_tile[payload]
                push_invocation(tile_id, records_task[payload], payload)
                if not busy[tile_id]:
                    try_dispatch(tile_id, time)
            elif kind == _COMPLETE:
                if telemetry_on:
                    complete_count += 1
                tile_id, ctx = payload
                busy[tile_id] = False
                emit_outputs(tile_id, ctx, time)
                try_dispatch(tile_id, time)
            else:  # _REFILL: low-priority local frontier drain (paper's T4)
                if telemetry_on:
                    refill_count += 1
                tile_id = payload
                state.refill_pending[tile_id] = False
                if not busy[tile_id] and state.tile_is_idle(tile_id):
                    if self._refill_tile(tile_id, time):
                        self._try_dispatch(tile_id, time)
            if telemetry_on and len(heap) > peak_heap_depth:
                peak_heap_depth = len(heap)
        self._last_event_time = last
        if telemetry_on and (deliver_count or complete_count or refill_count):
            telemetry = self.telemetry
            telemetry.count("engine.cycle.events", deliver_count, kind="deliver")
            telemetry.count("engine.cycle.events", complete_count, kind="complete")
            telemetry.count("engine.cycle.events", refill_count, kind="refill")
            telemetry.gauge("engine.cycle.heap_depth_peak", peak_heap_depth)
            telemetry.observe("engine.cycle.heap_depth", peak_heap_depth)

    def _refill_idle_tiles(self, now: float) -> bool:
        """Give every idle tile work from its local frontier; True if any refilled."""
        refilled = False
        state = self.state
        for tile_id in range(self.config.num_tiles):
            if not state.busy[tile_id] and state.tile_is_idle(tile_id):
                if self._refill_tile(tile_id, now):
                    refilled = True
                    self._try_dispatch(tile_id, now)
        return refilled

    def _refill_tile(self, tile_id: int, now: float) -> bool:
        refill = self.resolve_refill(tile_id, tile_id + 1)
        if refill is None:
            return False
        state = self.state
        alloc = state.records.alloc
        task_id = refill.task.task_id
        for _tile, params in refill.items():
            state.push_invocation(tile_id, task_id, alloc(tile_id, task_id, params, False))
        return True

    def _try_dispatch(self, tile_id: int, now: float) -> None:
        # Callers only dispatch to an idle PU (the busy flag is checked or
        # was just cleared).
        state = self.state
        task_id = state.select_task(tile_id)
        if task_id is None:
            if not self.machine.barrier_effective and not state.refill_pending[tile_id]:
                # The tile is idle: schedule a low-priority pull from its local
                # frontier (the paper's T4 draining the bitmap under TSU
                # control).  The delay models T4's low priority: in-flight
                # updates get a chance to land before the vertex is
                # re-explored, preserving work efficiency.
                state.refill_pending[tile_id] = True
                self._push(
                    now + self.config.frontier_refill_delay_cycles, _REFILL, tile_id
                )
            return
        # CoreState.pop_invocation and RecordPool.release, inlined.
        qi = tile_id * state.num_tasks + (
            task_id if state.dense_tasks else state.task_column[task_id]
        )
        state.queue_popped[qi] += 1
        state.pending[tile_id] -= 1
        handle = state.queues[qi].popleft()
        records = state.records
        params = records.params[handle]
        remote = records.remote[handle]
        records.params[handle] = ()
        records.free.append(handle)

        task = self.task_table[task_id]
        pool = self._context_pool
        ctx = pool.pop().reset(tile_id, task) if pool else TaskContext(
            self.machine, tile_id, task
        )
        task.handler(ctx, *params)
        self.tracer.record_execution(task, ctx.outgoing)
        instructions = ctx.instructions
        cost = instructions + ctx.memory_stall_cycles
        counters = self.counters
        if remote and self._interrupting:
            cost += self.config.interrupt_penalty_cycles
            counters.remote_interrupts += 1

        # The counter charges of BaseEngine.execute_invocation, inlined.
        counters.instructions += instructions
        counters.tasks_executed += 1
        counters.sram_reads += ctx.sram_reads
        counters.sram_writes += ctx.sram_writes
        counters.dram_accesses += ctx.dram_accesses
        counters.cache_hits += ctx.cache_hits
        counters.edges_processed += ctx.edges

        # PU occupancy: the task starts once the PU frees up.
        busy_until = state.pu_busy_until[tile_id]
        completion = (busy_until if busy_until > now else now) + cost
        state.pu_busy_until[tile_id] = completion
        state.pu_busy_cycles[tile_id] += cost
        state.pu_instructions[tile_id] += instructions
        state.busy[tile_id] = True
        self._sequence += 1
        heappush(self._heap, (completion, _COMPLETE_KEY | self._sequence, (tile_id, ctx)))

    def _emit_outputs(self, tile_id: int, ctx, now: float) -> None:
        state = self.state
        alloc = state.records.alloc
        push_invocation = state.push_invocation
        network_send = self.network.send
        heap = self._heap
        sequence = self._sequence
        log_src = self._log_src
        log_dst = self._log_dst
        log_flits = self._log_flits
        for task, params, destination in ctx.outgoing:
            flits = task.flits_per_invocation
            log_src.append(tile_id)
            log_dst.append(destination)
            log_flits.append(flits)
            if destination == tile_id:
                task_id = task.task_id
                push_invocation(tile_id, task_id, alloc(tile_id, task_id, params, False))
            else:
                # Delivery time of one message, per the configured network
                # model (timing, so it stays at emission, in emission order).
                arrival = network_send(tile_id, destination, flits, now)
                sequence += 1
                heappush(
                    heap,
                    (
                        arrival,
                        _DELIVER_KEY | sequence,
                        alloc(destination, task.task_id, params, True),
                    ),
                )
        self._sequence = sequence
        self._context_pool.append(ctx)
        if len(log_src) >= TRAFFIC_LOG_CHUNK:
            self._flush_traffic()

    # --------------------------------------------------------------- traffic
    def _flush_traffic(self) -> None:
        """Charge every logged message to the counters and the link model.

        The batched form of per-message accounting: ``messages``, ``flits``
        and ``local_messages`` count every message; only non-local messages
        reach the link model.
        """
        log_src = self._log_src
        if not log_src:
            return
        srcs = np.array(log_src, dtype=np.int64)
        dsts = np.array(self._log_dst, dtype=np.int64)
        flits = np.array(self._log_flits, dtype=np.int64)
        log_src.clear()
        self._log_dst.clear()
        self._log_flits.clear()

        counters = self.counters
        counters.messages += len(srcs)
        counters.flits += int(flits.sum())
        remote = srcs != dsts
        num_remote = int(np.count_nonzero(remote))
        counters.local_messages += len(srcs) - num_remote
        if not num_remote:
            return
        srcs = srcs[remote]
        dsts = dsts[remote]
        flits = flits[remote]
        hops = self.link_model.record_batch(srcs, dsts, flits, self.tile_pitch_mm)
        flit_hops = int((flits * hops).sum())
        counters.flit_hops += flit_hops
        counters.router_traversals += flit_hops + int(flits.sum())


register_engine("cycle", CycleEngine)
