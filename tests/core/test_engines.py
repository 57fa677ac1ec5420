"""Tests for the analytical and cycle engines (timing behaviour and agreement)."""

import numpy as np
import pytest

from repro.apps import BFSKernel, SSSPKernel, SPMVKernel
from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.graph.generators import chain_graph, rmat_graph, star_graph


def run(engine, graph, kernel_factory, **overrides):
    config = MachineConfig(width=4, height=4, engine=engine).with_overrides(**overrides)
    machine = DalorexMachine(config, kernel_factory(), graph)
    return machine.run(verify=True)


class TestEngineAgreement:
    """Both engines execute the same functional program."""

    @pytest.mark.parametrize("engine", ["analytic", "cycle"])
    def test_bfs_output_correct(self, engine, small_rmat):
        root = small_rmat.highest_degree_vertex()
        result = run(engine, small_rmat, lambda: BFSKernel(root=root))
        assert result.verified is True

    def test_edges_processed_identical_in_barrier_mode(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        analytic = run("analytic", small_rmat, lambda: BFSKernel(root=root), barrier=True)
        cycle = run("cycle", small_rmat, lambda: BFSKernel(root=root), barrier=True)
        assert analytic.counters.edges_processed == cycle.counters.edges_processed
        assert analytic.counters.messages == cycle.counters.messages

    def test_cycle_counts_same_order_of_magnitude(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        analytic = run("analytic", small_rmat, lambda: BFSKernel(root=root), barrier=True)
        cycle = run("cycle", small_rmat, lambda: BFSKernel(root=root), barrier=True)
        ratio = cycle.cycles / analytic.cycles
        assert 0.2 < ratio < 5.0


class TestAnalyticalEngineBounds:
    def test_more_work_takes_longer(self):
        small = rmat_graph(6, edge_factor=4, seed=2)
        large = rmat_graph(8, edge_factor=4, seed=2)
        small_result = run("analytic", small, lambda: BFSKernel(root=small.highest_degree_vertex()))
        large_result = run("analytic", large, lambda: BFSKernel(root=large.highest_degree_vertex()))
        assert large_result.cycles > small_result.cycles

    def test_hub_serialization_bounds_runtime(self):
        # Every edge of the star updates vertex 0's neighbours; the tile owning
        # the hub's edges must serialize them, so the runtime exceeds the
        # per-tile average substantially.
        graph = star_graph(64)
        result = run("analytic", graph, lambda: BFSKernel(root=0))
        assert result.per_tile_busy_cycles.max() >= result.per_tile_busy_cycles.mean() * 2

    def test_barrier_adds_epochs(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        barriered = run("analytic", small_rmat, lambda: BFSKernel(root=root), barrier=True)
        barrierless = run("analytic", small_rmat, lambda: BFSKernel(root=root), barrier=False)
        assert barriered.epochs > barrierless.epochs

    def test_single_tile_grid_runs(self, chain8):
        config = MachineConfig(width=1, height=1, engine="analytic")
        result = DalorexMachine(config, BFSKernel(root=0), chain8).run(verify=True)
        assert result.verified is True
        assert result.counters.local_messages == result.counters.messages


class TestCycleEngineBehaviour:
    def test_network_contention_increases_cycles(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        fast_net = run("cycle", small_rmat, lambda: SSSPKernel(root=root), noc="torus")
        # A 1-wide mesh (ring-less chain of tiles) serializes all traffic.
        config = MachineConfig(width=16, height=1, engine="cycle", noc="mesh")
        machine = DalorexMachine(config, SSSPKernel(root=root), small_rmat)
        slow_net = machine.run(verify=True)
        assert slow_net.cycles > fast_net.cycles

    def test_per_tile_busy_never_exceeds_total(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        result = run("cycle", small_rmat, lambda: BFSKernel(root=root))
        assert result.per_tile_busy_cycles.max() <= result.cycles + 1e-9

    def test_interrupting_invocation_slower_than_tsu(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        tsu = run("cycle", small_rmat, lambda: BFSKernel(root=root), remote_invocation="tsu")
        interrupting = run(
            "cycle", small_rmat, lambda: BFSKernel(root=root),
            remote_invocation="interrupting", interrupt_penalty_cycles=50,
        )
        assert interrupting.cycles > tsu.cycles
        assert interrupting.counters.remote_interrupts > 0

    def test_dram_memory_slower_than_sram(self, small_rmat):
        root = small_rmat.highest_degree_vertex()
        sram = run("cycle", small_rmat, lambda: BFSKernel(root=root), memory="sram")
        dram = run("cycle", small_rmat, lambda: BFSKernel(root=root), memory="dram")
        assert dram.cycles > sram.cycles
        assert dram.counters.dram_accesses > 0

    def test_spmv_single_pass_has_one_epoch(self, small_rmat):
        result = run("cycle", small_rmat, SPMVKernel)
        assert result.epochs == 1
        assert result.verified is True


class TestPerTileColumns:
    """The per-tile PU columns fold back to the run's global counters."""

    @pytest.mark.parametrize("engine", ["analytic", "cycle"])
    @pytest.mark.parametrize("app", ["bfs", "sssp", "wcc", "pagerank", "spmv"])
    def test_per_tile_instructions_sum_to_global_count(self, engine, app, small_rmat):
        from repro.core.registry import make_kernel

        kwargs = {"root": small_rmat.highest_degree_vertex()} if app in ("bfs", "sssp") else {}
        config = MachineConfig(width=4, height=4, engine=engine)
        machine = DalorexMachine(config, make_kernel(app, **kwargs), small_rmat)
        result = machine.run(verify=True)
        assert len(result.per_tile_instructions) == config.num_tiles
        assert int(result.per_tile_instructions.sum()) == result.counters.instructions
        assert np.all(result.per_tile_busy_cycles >= 0)
        assert result.per_tile_busy_cycles.sum() > 0
