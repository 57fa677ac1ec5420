"""Sharded execution conformance: byte-identical reports at any shard count.

The tentpole invariant: running one simulation across N shard workers
produces a result payload bit-identical to the serial engine's, for every
shard count, transport, and supported configuration -- and configurations
outside the shardable envelope fall back to the serial path (trivially
identical).  Everything here compares serialized payload bytes, the
strictest equality the runtime defines.
"""

import dataclasses
import os

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.core.shard_exec import (
    InprocChannel,
    ShardWorker,
    run_sharded,
    shard_fallback_reason,
)
from repro.experiments.common import build_kernel
from repro.graph.generators import rmat_graph, uniform_random_graph
from repro.runtime.serialize import result_to_payload
from repro.runtime.spec import RunSpec, execute_spec
from repro.telemetry import telemetry_session


def machine_factory(app, graph, config, **kernel_kwargs):
    def factory():
        kernel = build_kernel(app, graph, **kernel_kwargs)
        return DalorexMachine(config, kernel, graph, dataset_name="test")

    return factory


@pytest.fixture(scope="module")
def small_graph():
    return rmat_graph(scale=8, edge_factor=6, seed=11, weighted=True)


@pytest.fixture(scope="module")
def tiny_graph():
    return uniform_random_graph(num_vertices=96, num_edges=700, seed=5)


# One case per interesting envelope dimension: barrier and barrierless,
# sram and dram memory, detailed link model, placements, interrupts.
CASES = [
    ("bfs", dict(width=4, height=4, noc="torus")),
    ("sssp", dict(width=4, height=4, noc="mesh", memory="dram")),
    ("wcc", dict(width=4, height=4, vertex_placement="block", edge_placement="row")),
    ("pagerank", dict(width=4, height=4, barrier=True)),
    ("spmv", dict(width=8, height=2, remote_invocation="interrupting")),
    ("sssp", dict(width=4, height=4, scheduling="round_robin", barrier=True)),
]


def serial_payload(factory, verify=True):
    return result_to_payload(factory().run(verify=verify))


def sharded_payload(factory, shards, verify=True, channel_factory=None):
    return result_to_payload(
        run_sharded(factory, shards, verify=verify, channel_factory=channel_factory)
    )


class TestInprocByteIdentity:
    @pytest.mark.parametrize("app,overrides", CASES)
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_sharded_report_is_byte_identical(
        self, app, overrides, shards, small_graph
    ):
        config = MachineConfig(**overrides).validate()
        factory = machine_factory(app, small_graph, config)
        assert shard_fallback_reason(factory()) is None
        assert sharded_payload(factory, shards) == serial_payload(factory)

    def test_shard_count_above_tile_count_clamps(self, tiny_graph):
        config = MachineConfig(width=2, height=2).validate()
        factory = machine_factory("bfs", tiny_graph, config)
        assert sharded_payload(factory, 64) == serial_payload(factory)

    def test_single_shard_uses_the_serial_path(self, tiny_graph):
        config = MachineConfig(width=4, height=4).validate()
        factory = machine_factory("bfs", tiny_graph, config)
        assert sharded_payload(factory, 1) == serial_payload(factory)


class TestFallbackEnvelope:
    @pytest.mark.parametrize(
        "overrides,expect",
        [
            (dict(engine="cycle"), "engine"),
            (dict(memory="dram_cache"), "dram_cache"),
            (dict(allow_remote_access=True), "remote_access"),
        ],
    )
    def test_fallback_reason_names_the_gate(self, overrides, expect, tiny_graph):
        config = MachineConfig(**overrides).validate()
        machine = machine_factory("bfs", tiny_graph, config)()
        reason = shard_fallback_reason(machine)
        assert reason is not None and expect in reason

    @pytest.mark.parametrize(
        "overrides",
        [dict(engine="cycle"), dict(memory="dram_cache")],
    )
    def test_fallback_cases_still_byte_identical(self, overrides, tiny_graph):
        config = MachineConfig(**overrides).validate()
        factory = machine_factory("bfs", tiny_graph, config)
        assert sharded_payload(factory, 4) == serial_payload(factory)


class TestNonUniformLinkTopologies:
    """Ruche and 3D stacks have mixed link lengths and shard like any other."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(noc="torus_ruche", width=8, height=8),
            dict(noc="torus_ruche", width=64, height=64),
            dict(noc="mesh3d", width=4, height=2, depth=2),
        ],
        ids=["torus_ruche", "torus_ruche-aggregate", "mesh3d"],
    )
    @pytest.mark.parametrize("shards", [1, 2])
    def test_sharded_report_is_byte_identical(self, overrides, shards, small_graph):
        config = MachineConfig(**overrides).validate()
        factory = machine_factory("sssp", small_graph, config)
        assert shard_fallback_reason(factory()) is None
        assert sharded_payload(factory, shards) == serial_payload(factory)


class TestGoldenCasesSharded:
    def test_all_golden_cases_byte_identical_at_multiple_shard_counts(self):
        from tests.golden.golden_cases import GOLDEN_CASES, build_graph

        for case in GOLDEN_CASES:
            graph = build_graph(case.graph)
            config = case.config()
            factory = machine_factory("".join(case.app), graph, config)
            base = serial_payload(factory)
            for shards in (2, 4):
                assert sharded_payload(factory, shards) == base, (
                    f"{case.name} diverged at {shards} shards"
                )


class TestSpecLevelSharding:
    def run_spec(self, shards, backend):
        spec = RunSpec(
            app="sssp",
            dataset="R16",
            config=MachineConfig(width=4, height=4),
            scale=16.0,
            seed=3,
            verify=True,
            shards=shards,
        )
        old = os.environ.get("DALOREX_SHARD_BACKEND")
        os.environ["DALOREX_SHARD_BACKEND"] = backend
        try:
            return result_to_payload(execute_spec(spec))
        finally:
            if old is None:
                os.environ.pop("DALOREX_SHARD_BACKEND", None)
            else:
                os.environ["DALOREX_SHARD_BACKEND"] = old

    def test_execute_spec_dispatches_and_matches_serial(self):
        base = self.run_spec(1, "inproc")
        assert self.run_spec(3, "inproc") == base

    def test_process_pool_transport_matches_serial(self):
        base = self.run_spec(1, "inproc")
        assert self.run_spec(2, "local") == base


class TestTelemetryDeterminism:
    def test_outputs_byte_identical_with_telemetry_on(self, small_graph):
        config = MachineConfig(width=4, height=4).validate()
        factory = machine_factory("bfs", small_graph, config)
        base = serial_payload(factory)
        with telemetry_session() as telemetry:
            sharded = sharded_payload(factory, 3)
            metrics = telemetry.snapshot()
        assert sharded == base
        names = set(metrics["counters"])
        assert "shard.exchange.messages" in names
        assert "shard.exchange.bytes" in names


class TestFloatExactness:
    """The folds most likely to drift are float folds; pin them explicitly."""

    def test_flit_millimeters_and_cycles_bit_equal(self, small_graph):
        config = MachineConfig(width=4, height=4, memory="dram").validate()
        factory = machine_factory("sssp", small_graph, config)
        serial = factory().run(verify=False)
        sharded = run_sharded(factory, 4, verify=False)
        for attr in ("cycles", "network_bound_cycles"):
            assert getattr(serial, attr) == getattr(sharded, attr)
        assert (
            serial.counters.flit_millimeters == sharded.counters.flit_millimeters
        )
        assert serial.counters.dram_accesses == sharded.counters.dram_accesses
        assert np.array_equal(
            serial.per_tile_busy_cycles, sharded.per_tile_busy_cycles
        )
        for name, array in serial.outputs.items():
            assert np.array_equal(array, sharded.outputs[name]), name


class TestFinalizeShipsOwnedSlices:
    """Shard finalize replies carry per-tile state for the owned extent only."""

    def test_every_finalize_array_is_an_owned_slice(self, small_graph):
        config = MachineConfig(width=4, height=4).validate()
        factory = machine_factory("sssp", small_graph, config)
        workers = []

        def channel_factory(plan):
            for shard in range(plan.num_shards):
                workers.append(ShardWorker(factory(), plan, shard))
            return [InprocChannel(worker) for worker in workers]

        run_sharded(factory, 2, verify=False, channel_factory=channel_factory)
        assert len(workers) == 2
        for worker in workers:
            arrays = list(_array_leaves(worker.finalize({"gather_arrays": False})))
            assert arrays
            for array in arrays:
                assert len(array) == worker.hi - worker.lo

    @pytest.mark.parametrize("app,overrides", CASES)
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_pu_columns_written_only_at_owned_tiles(
        self, app, overrides, shards, small_graph
    ):
        # Shipping owned slices is lossless only if no shard charges a PU
        # outside its extent; the assembled columns then equal the serial ones.
        config = MachineConfig(**overrides).validate()
        factory = machine_factory(app, small_graph, config)
        workers = []

        def channel_factory(plan):
            for shard in range(plan.num_shards):
                workers.append(ShardWorker(factory(), plan, shard))
            return [InprocChannel(worker) for worker in workers]

        sharded = run_sharded(
            factory, shards, verify=False, channel_factory=channel_factory
        )
        serial = factory().run(verify=False)
        assert len(workers) == shards
        for worker in workers:
            state = worker.engine.state
            for column in (state.pu_busy_cycles, state.pu_instructions):
                column = np.asarray(column)
                assert not column[: worker.lo].any()
                assert not column[worker.hi :].any()
        assert np.array_equal(
            sharded.per_tile_busy_cycles, serial.per_tile_busy_cycles
        )
        assert np.array_equal(
            sharded.per_tile_instructions, serial.per_tile_instructions
        )


def _array_leaves(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _array_leaves(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _array_leaves(item)
