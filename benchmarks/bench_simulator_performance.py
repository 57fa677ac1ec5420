"""Simulator-performance benchmarks: how fast the two engines themselves run.

These are the only benchmarks measuring *wall-clock* behaviour of the library
itself (the figure benchmarks measure the simulated machine).  They document
the cost of cycle-accurate simulation versus the analytical engine, the cost
of detailed link-load accounting, and the cost of graph generation, which is
what limits stand-in sizes in Python.
"""

import numpy as np
import pytest

from conftest import record
from repro.apps import BFSKernel, PageRankKernel
from repro.core.config import MachineConfig
from repro.core.machine import DalorexMachine
from repro.graph.generators import rmat_graph
from repro.noc.analytical import LinkLoadModel
from repro.noc.topology import Torus2D


@pytest.fixture(scope="module")
def bench_graph():
    return rmat_graph(11, edge_factor=8, seed=4)


@pytest.mark.parametrize("engine", ["analytic", "cycle"])
def test_engine_simulation_speed(benchmark, bench_graph, engine):
    """Simulated-edges-per-second of each engine on a 16x16 grid."""
    root = bench_graph.highest_degree_vertex()

    def run():
        config = MachineConfig(width=16, height=16, engine=engine)
        return DalorexMachine(config, BFSKernel(root=root), bench_graph).run()

    result = benchmark(run)
    record(
        benchmark,
        {
            "graph_edges": bench_graph.num_edges,
            "simulated_cycles": round(result.cycles),
            "tasks_executed": result.counters.tasks_executed,
        },
    )


def test_epoch_boundary_speed(benchmark):
    """The analytic engine's epoch boundary on a 64x64 grid: barrierless BFS
    (an all-tile frontier refill every time the worklist drains) plus a
    two-iteration PageRank (one full-graph reseeding and its seeding charge)."""
    graph = rmat_graph(12, edge_factor=8, seed=4)
    root = graph.highest_degree_vertex()
    config = MachineConfig(width=64, height=64, engine="analytic")

    def run():
        bfs = DalorexMachine(config, BFSKernel(root=root), graph).run(compute_energy=False)
        pagerank = DalorexMachine(
            config, PageRankKernel(num_iterations=2), graph
        ).run(compute_energy=False)
        return bfs, pagerank

    bfs, pagerank = benchmark(run)
    record(
        benchmark,
        {
            "graph_edges": graph.num_edges,
            "bfs_tasks": bfs.counters.tasks_executed,
            "pagerank_epochs": pagerank.epochs,
        },
    )


def test_rmat_generation_speed(benchmark):
    """Generation throughput of the RMAT stand-in generator."""
    graph = benchmark(lambda: rmat_graph(13, edge_factor=10, seed=1))
    record(benchmark, {"vertices": graph.num_vertices, "edges": graph.num_edges})


def test_link_load_batch_speed(benchmark):
    """Detailed ``record_batch`` of a fixed 10k-message batch on a fresh 32x32
    torus (no route memo to reuse, as on a cold process)."""
    rng = np.random.default_rng(15)
    srcs = rng.integers(0, 32 * 32, size=10_000)
    dsts = rng.integers(0, 32 * 32, size=10_000)

    def run():
        model = LinkLoadModel(Torus2D(32, 32), detailed=True)
        model.record_batch(srcs, dsts, 2, 0.5)
        return model

    model = benchmark(run)
    record(
        benchmark,
        {
            "messages": len(srcs),
            "flit_hops": model.total_flit_hops,
            "max_link_load": model.max_link_load(),
        },
    )
