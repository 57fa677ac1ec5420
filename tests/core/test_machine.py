"""Unit tests for machine construction and lifecycle."""

import numpy as np
import pytest

from repro.apps import BFSKernel, SSSPKernel
from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine, run_kernel
from repro.errors import ConfigurationError
from repro.graph.generators import chain_graph, rmat_graph


def make_machine(**overrides):
    config = MachineConfig(width=2, height=2, engine="analytic").with_overrides(**overrides)
    return DalorexMachine(config, BFSKernel(root=0), chain_graph(12, weighted=True))


class TestConstruction:
    def test_arrays_initialized(self):
        machine = make_machine()
        assert set(machine.arrays) >= {"level", "row_begin", "row_degree", "edge_dst"}
        assert len(machine.arrays["level"]) == machine.graph.num_vertices

    def test_placement_spaces_bound(self):
        machine = make_machine()
        assert machine.placement.length("vertex") == machine.graph.num_vertices
        assert machine.placement.length("edge") == machine.graph.num_edges

    def test_row_edge_placement_follows_vertex_owner(self):
        machine = make_machine(edge_placement="row", vertex_placement="block")
        graph = machine.graph
        sources = graph.edge_sources()
        for edge in range(0, graph.num_edges, 3):
            vertex_owner = machine.placement.owner("vertex", int(sources[edge]))
            assert machine.placement.owner("edge", edge) == vertex_owner

    def test_scratchpad_bytes_column(self):
        machine = make_machine()
        config = machine.config
        expected = np.full(
            config.num_tiles, config.code_region_bytes + config.queue_region_bytes
        )
        for spec in machine.program.arrays.values():
            space = machine.placement.space(spec.space)
            expected += spec.entry_bytes * np.array(
                [space.chunk_length(tile) for tile in range(config.num_tiles)]
            )
        assert machine.scratchpad_bytes.dtype == np.int64
        assert machine.scratchpad_bytes.tolist() == expected.tolist()
        assert (machine.scratchpad_bytes > config.code_region_bytes).all()
        assert machine.sram_bytes_per_tile() == int(expected.max())

    def test_dataset_fits_reads_the_column(self):
        needed = int(make_machine().scratchpad_bytes.max())
        assert make_machine(scratchpad_bytes_per_tile=needed).dataset_fits()
        assert not make_machine(scratchpad_bytes_per_tile=needed - 1).dataset_fits()

    def test_sram_bytes_per_tile_auto_sized(self):
        machine = make_machine()
        assert machine.sram_bytes_per_tile() > 0

    def test_sram_bytes_per_tile_configured(self):
        machine = make_machine(scratchpad_bytes_per_tile=1 << 20)
        assert machine.sram_bytes_per_tile() == 1 << 20

    def test_dataset_fits_with_large_scratchpad(self):
        machine = make_machine(scratchpad_bytes_per_tile=1 << 22)
        assert machine.dataset_fits()

    def test_chip_area_positive(self):
        assert make_machine().chip_area_mm2() > 0

    def test_barrier_effective_respects_kernel(self):
        from repro.apps import PageRankKernel

        config = MachineConfig(width=2, height=2, engine="analytic", barrier=False)
        machine = DalorexMachine(config, PageRankKernel(num_iterations=2), chain_graph(8))
        assert machine.barrier_effective


class TestRun:
    def test_run_produces_verified_result(self):
        result = make_machine().run(verify=True)
        assert result.verified is True
        assert result.cycles > 0
        assert result.energy.total_j > 0

    def test_run_twice_rejected(self):
        machine = make_machine()
        machine.run()
        with pytest.raises(ConfigurationError):
            machine.run()

    def test_run_kernel_helper(self):
        config = MachineConfig(width=2, height=2, engine="cycle")
        result = run_kernel(config, SSSPKernel(root=0), chain_graph(10, weighted=True), verify=True)
        assert result.verified is True

    def test_outputs_attached_to_result(self):
        result = make_machine().run()
        assert "level" in result.outputs
        assert len(result.outputs["level"]) == 12

    def test_result_records_dataset_and_config(self):
        config = MachineConfig(name="my-config", width=2, height=2, engine="analytic")
        machine = DalorexMachine(config, BFSKernel(root=0), rmat_graph(5, seed=1), dataset_name="tiny")
        result = machine.run()
        assert result.config_name == "my-config"
        assert result.dataset_name == "tiny"

    def test_energy_skipped_when_disabled(self):
        result = make_machine().run(compute_energy=False)
        assert result.energy.total_j == 0.0
