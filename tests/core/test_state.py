"""Columnar core state: scheduling conformance, record pooling, state reuse.

Three families of checks guard the structure-of-arrays refactor:

* ``CoreState.select_task`` must be bit-compatible with the object
  implementation in :class:`repro.tile.tsu.TaskSchedulingUnit` (the engines
  use the former, standalone tiles the latter);
* the pooled task-record representation must fully recycle -- a drained run
  leaves zero live records, and the pool stays bounded by the run's peak
  in-flight work;
* two back-to-back ``run()`` calls on fresh registry-built machines must
  produce byte-identical payloads (no state leakage through pooled records,
  pooled contexts, or the shared topology route caches).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.core.registry import make_engine, make_kernel
from repro.core.state import CoreState, FrontierLog, RecordPool
from repro.errors import InvariantViolation
from repro.graph.generators import rmat_graph
from repro.runtime import RunSpec
from repro.runtime.backends import execute_to_payload
from repro.tile.queues import CircularQueue
from repro.tile.tsu import TaskSchedulingUnit


class TestRecordPool:
    def test_alloc_release_recycles_slots(self):
        pool = RecordPool()
        first = pool.alloc(1, 2, (3,), False)
        second = pool.alloc(4, 5, (6,), True)
        assert {first, second} == {0, 1}
        pool.release(first)
        assert pool.live_records() == 1
        third = pool.alloc(7, 0, (8, 9), False)
        assert third == first  # the freed slot is reused
        assert pool.allocated == 2
        assert pool.params[third] == (8, 9)
        assert pool.remote[third] is False

    def test_release_drops_params_reference(self):
        pool = RecordPool()
        index = pool.alloc(0, 0, (1, 2, 3), False)
        pool.release(index)
        assert pool.params[index] == ()


class TestQueueColumns:
    def make_state(self, policy="occupancy"):
        return CoreState(2, [0, 1], {0: 4, 1: 8}, policy)

    def test_push_pop_and_stats(self):
        state = self.make_state()
        state.push_invocation(1, 0, "a")
        state.push_invocation(1, 0, "b")
        assert state.tile_pending(1) == 2
        assert state.tile_pending(0) == 0
        assert not state.tile_is_idle(1)
        assert state.pop_invocation(1, 0) == "a"
        qi = state.queue_index(1, 0)
        assert state.queue_pushed[qi] == 2
        assert state.queue_popped[qi] == 1
        assert state.queue_max_occupancy[qi] == 2
        assert state.pending == [0, 1]
        other = state.queue_index(1, 1)
        assert state.queue_pushed[other] == 0
        assert state.queue_max_occupancy[other] == 0

    def test_overflow_counted_not_rejected(self):
        state = CoreState(1, [0], {0: 1}, "occupancy")
        state.push_invocation(0, 0, "x")
        state.push_invocation(0, 0, "y")
        # A full queue never rejects: the push past capacity still lands.
        assert state.queue_pushed[0] == 2
        assert state.queue_max_occupancy[0] == 2
        assert state.tile_pending(0) == 2
        assert list(state.queues[0]) == ["x", "y"]


class TestQueueCounterConformance:
    """The queue counter columns agree with the CircularQueue oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        capacities=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
        ops=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 3), st.booleans()),
            max_size=60,
        ),
    )
    def test_counters_match_oracle_queues(self, capacities, ops):
        task_ids = list(range(len(capacities)))
        capacity_of = dict(enumerate(capacities))
        state = CoreState(2, task_ids, capacity_of, "occupancy")
        oracle = {
            (tile, tid): CircularQueue(capacity_of[tid], allow_overflow=True)
            for tile in range(2)
            for tid in task_ids
        }
        for step, (tile, tid, push) in enumerate(ops):
            tid %= len(task_ids)
            queue = oracle[tile, tid]
            if push:
                queue.push(step)
                state.push_invocation(tile, tid, step)
            elif not queue.is_empty:
                assert state.pop_invocation(tile, tid) == queue.pop()
        for (tile, tid), queue in oracle.items():
            qi = state.queue_index(tile, tid)
            assert state.queue_pushed[qi] == queue.total_pushed
            assert state.queue_popped[qi] == queue.total_popped
            assert state.queue_max_occupancy[qi] == queue.max_occupancy
            # The deques are filled on the first push; before it, all are empty.
            assert (len(state.queues[qi]) if state.queues else 0) == len(queue)
        for tile in range(2):
            assert state.pending[tile] == sum(
                len(oracle[tile, tid]) for tid in task_ids
            )


class TestColumnSet:
    """CoreState keeps only the columns some reader uses."""

    CONFIGURATION = {
        "num_tiles", "task_ids", "num_tasks", "scheduling_policy",
        "high_threshold", "low_threshold", "task_column", "columns",
        "dense_tasks", "queue_capacity",
    }
    COLUMNS = {
        "queues", "queue_pushed", "queue_popped", "queue_max_occupancy",
        "pending", "busy", "refill_pending", "pu_busy_until", "pu_busy_cycles",
        "pu_instructions", "tsu_cursor", "frontier", "noc_inject_free",
        "noc_eject_free", "records",
    }

    def test_exact_column_set(self):
        state = CoreState(3, [0, 1], {0: 4, 1: 8}, "round_robin")
        assert set(vars(state)) == self.CONFIGURATION | self.COLUMNS

    def test_queues_are_filled_on_first_push(self):
        state = CoreState(3, [0, 1], {0: 4, 1: 8}, "round_robin")
        assert state.queues == []
        state.push_invocation(2, 1, "x")
        assert len(state.queues) == 3 * 2
        assert list(state.queues[state.queue_index(2, 1)]) == ["x"]

    def test_frontier_is_one_columnar_log(self):
        state = CoreState(3, [0, 1], {0: 4, 1: 8}, "round_robin")
        assert isinstance(state.frontier, FrontierLog)
        state.frontier.push(np.array([2, 0, 2]), np.array([7, 3, 5]))
        state.frontier.push_one(0, 9)
        log = state.frontier
        assert log.size == 4
        assert log.tiles[:4].tolist() == [2, 0, 2, 0]
        assert log.vertices[:4].tolist() == [7, 3, 5, 9]


class TestLazyQueues:
    """The per-queue deques exist only once a cycle engine queues work."""

    @pytest.mark.parametrize("app,barrier", [
        ("bfs", False), ("wcc", False), ("pagerank", True), ("spmv", False),
    ])
    def test_analytic_run_never_builds_queues(self, small_rmat, app, barrier):
        config = MachineConfig(width=4, height=4, engine="analytic", barrier=barrier)
        kwargs = {"root": small_rmat.highest_degree_vertex()} if app == "bfs" else {}
        machine = DalorexMachine(config, make_kernel(app, **kwargs), small_rmat)
        machine.run(compute_energy=False)
        assert machine.state.queues == []
        assert machine.tracer.summary()["verified"] is True

    def test_cycle_run_builds_queues_and_drains_them(self, small_rmat):
        config = MachineConfig(width=4, height=4, engine="cycle")
        machine = DalorexMachine(config, make_kernel("spmv"), small_rmat)
        machine.run(compute_energy=False)
        assert len(machine.state.queues) == 16 * machine.state.num_tasks
        assert not any(machine.state.queues)

    def test_parked_invocation_at_cycle_run_end_is_caught(self, small_rmat, monkeypatch):
        from repro.core.engine_cycle import CycleEngine

        original = CycleEngine.build_result

        def leave_one_parked(self, cycles, epochs):
            # An invocation queued on tile 0 that no dispatch ever pops.
            self.state.queues[0].append(0)
            return original(self, cycles, epochs)

        monkeypatch.setattr(CycleEngine, "build_result", leave_one_parked)
        config = MachineConfig(width=4, height=4, engine="cycle")
        machine = DalorexMachine(config, make_kernel("spmv"), small_rmat)
        with pytest.raises(InvariantViolation, match="1 invocations still parked"):
            machine.run(compute_energy=False)


@st.composite
def scheduling_scenarios(draw):
    """Random queue occupancies over random task sets and policies."""
    num_tasks = draw(st.integers(min_value=1, max_value=5))
    capacities = {
        tid: draw(st.integers(min_value=1, max_value=16)) for tid in range(num_tasks)
    }
    occupancies = [
        draw(st.integers(min_value=0, max_value=20)) for _ in range(num_tasks)
    ]
    policy = draw(st.sampled_from(["occupancy", "round_robin"]))
    rounds = draw(st.integers(min_value=1, max_value=6))
    return num_tasks, capacities, occupancies, policy, rounds

class TestSchedulingConformance:
    """CoreState.select_task is bit-compatible with TaskSchedulingUnit."""

    @settings(max_examples=60, deadline=None)
    @given(scheduling_scenarios())
    def test_matches_object_tsu(self, scenario):
        num_tasks, capacities, occupancies, policy, rounds = scenario
        task_ids = list(range(num_tasks))
        state = CoreState(1, task_ids, capacities, policy)
        queues = {
            tid: CircularQueue(capacities[tid], allow_overflow=True)
            for tid in task_ids
        }
        tsu = TaskSchedulingUnit(task_ids, policy=policy)
        for tid, occupancy in enumerate(occupancies):
            for item in range(occupancy):
                state.push_invocation(0, tid, item)
                queues[tid].push(item)
        # Repeated selections keep cursors/occupancies in lockstep: pop what
        # each implementation selects and compare every round.
        for _ in range(rounds):
            expected = tsu.select_task(queues)
            got = state.select_task(0)
            assert got == expected
            if expected is None:
                break
            queues[expected].pop()
            state.pop_invocation(0, expected)


def _run_payload(app, engine, barrier, graph):
    config = MachineConfig(width=4, height=4, engine=engine, barrier=barrier)
    kernel = make_kernel(
        app,
        **({"root": graph.highest_degree_vertex()} if app in ("bfs", "sssp") else {}),
    )
    machine = DalorexMachine(config, kernel, graph, dataset_name="reuse-test")
    result = machine.run(verify=True)
    from repro.runtime.serialize import result_to_payload

    return json.dumps(result_to_payload(result), sort_keys=True)


class TestEngineStateReuse:
    """Fresh registry-built engines share no state across runs."""

    @settings(max_examples=10, deadline=None)
    @given(
        app=st.sampled_from(["bfs", "sssp", "pagerank", "wcc", "spmv"]),
        engine=st.sampled_from(["cycle", "analytic"]),
        barrier=st.booleans(),
    )
    def test_back_to_back_runs_identical(self, app, engine, barrier):
        graph = rmat_graph(6, edge_factor=4, seed=11)
        first = _run_payload(app, engine, barrier, graph)
        second = _run_payload(app, engine, barrier, graph)
        assert first == second

    def test_registry_builds_the_configured_engine(self, small_rmat):
        from repro.core.engine_analytic import AnalyticalEngine
        from repro.core.engine_cycle import CycleEngine

        for engine_name, engine_cls in (
            ("cycle", CycleEngine),
            ("analytic", AnalyticalEngine),
        ):
            config = MachineConfig(width=2, height=2, engine=engine_name)
            machine = DalorexMachine(
                config, make_kernel("spmv"), small_rmat
            )
            engine = make_engine(engine_name, machine)
            assert isinstance(engine, engine_cls)

    def test_record_pool_fully_recycled_after_cycle_run(self, small_rmat):
        config = MachineConfig(width=4, height=4, engine="cycle")
        root = small_rmat.highest_degree_vertex()
        machine = DalorexMachine(config, make_kernel("bfs", root=root), small_rmat)
        machine.run()
        pool = machine.state.records
        assert pool.live_records() == 0
        assert pool.allocated >= 1
        # The pool stays far below one-object-per-message: it is bounded by
        # the run's peak in-flight work, not its total message count.
        assert pool.allocated <= machine.tracer.total_spawned

    def test_spec_executor_deterministic_through_registry(self):
        spec = RunSpec(
            app="sssp",
            dataset="rmat16",
            config=MachineConfig(width=4, height=4, engine="cycle"),
            scale=0.05,
            seed=3,
            verify=True,
        )
        key_a, payload_a = execute_to_payload(spec)
        key_b, payload_b = execute_to_payload(spec)
        assert key_a == key_b
        assert json.dumps(payload_a, sort_keys=True) == json.dumps(
            payload_b, sort_keys=True
        )


class TestUnknownPolicy:
    def test_bad_policy_rejected(self):
        with pytest.raises(Exception):
            CoreState(1, [0], {0: 4}, "not-a-policy")
