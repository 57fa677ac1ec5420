"""Weakly Connected Components (WCC) in the Dalorex programming model.

Implemented as minimum-label propagation (a coloring approach, as the paper
cites): every vertex starts labelled with its own ID, pushes its label to its
neighbours, and adopts any smaller label it receives, re-entering the frontier
when it improves.  The input graph is symmetrized so the fixpoint labels the
weakly connected components.  WCC has many epochs on high-diameter graphs,
which is why the paper reports it benefits most from barrierless execution.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.common import FrontierGraphKernel, all_vertex_seeds
from repro.core.batch import SeedColumns
from repro.core.program import DalorexProgram, EDGE_SPACE, VERTEX_SPACE
from repro.graph.csr import CSRGraph
from repro.graph.reference import wcc_labels


class WCCKernel(FrontierGraphKernel):
    """Label of the weakly connected component containing each vertex."""

    name = "wcc"
    batch_value_array = "label"

    # ----------------------------------------------------------------- program
    def build_program(self) -> DalorexProgram:
        program = DalorexProgram("wcc")
        program.add_array("label", VERTEX_SPACE, 4, "current component label")
        program.add_array("row_begin", VERTEX_SPACE, 4, "first edge index of the vertex")
        program.add_array("row_degree", VERTEX_SPACE, 4, "out-degree of the vertex")
        program.add_array("in_frontier", VERTEX_SPACE, 1, "local frontier flag")
        program.add_array("edge_dst", EDGE_SPACE, 4, "edge destination vertex")
        program.add_task(
            "T1_explore", self._t1_explore, VERTEX_SPACE, num_params=1, iq_capacity=32,
            description="read the vertex label, fan out to edge chunks",
        )
        program.add_task(
            "T2_expand", self._t2_expand, EDGE_SPACE, num_params=3, iq_capacity=128,
            description="walk an edge chunk, emit one label update per neighbour",
        )
        program.add_task(
            "T3_relax", self._t3_relax, VERTEX_SPACE, num_params=2, iq_capacity=2048,
            description="adopt the smaller label and re-enter the frontier",
        )
        program.add_task(
            "T4_refrontier", self._t4_refrontier, VERTEX_SPACE, num_params=1, iq_capacity=512,
            description="re-explore a vertex whose label improved",
        )
        return program

    def prepare_graph(self, graph: CSRGraph) -> CSRGraph:
        """Symmetrize the graph so label propagation finds *weak* components."""
        if graph.is_symmetric():
            return graph
        return graph.to_undirected()

    def initial_arrays(self, graph: CSRGraph) -> Dict[str, np.ndarray]:
        return {
            "label": np.arange(graph.num_vertices, dtype=np.int64),
            "row_begin": graph.indptr[:-1].astype(np.int64),
            "row_degree": graph.degrees().astype(np.int64),
            "in_frontier": np.zeros(graph.num_vertices, dtype=np.uint8),
            "edge_dst": graph.indices.astype(np.int64),
        }

    def initial_tasks(self, graph: CSRGraph) -> SeedColumns:
        return all_vertex_seeds("T1_explore", graph)

    # ------------------------------------------------------------------ tasks
    def _t1_explore(self, ctx, vertex: int) -> None:
        label = ctx.read("label", vertex)
        begin = ctx.read("row_begin", vertex)
        degree = ctx.read("row_degree", vertex)
        ctx.compute(1)
        if degree > 0:
            ctx.invoke_range("T2_expand", begin, begin + degree, label)

    def _t2_expand(self, ctx, begin: int, end: int, label: int) -> None:
        for edge in range(begin, end):
            neighbor = ctx.read("edge_dst", edge)
            ctx.invoke("T3_relax", neighbor, label)
        ctx.count_edges(end - begin)

    def _t3_relax(self, ctx, vertex: int, label: int) -> None:
        current = ctx.read("label", vertex)
        ctx.compute(1)
        if label < current:
            ctx.write("label", vertex, label)
            self.mark_frontier(ctx, vertex)

    def _t4_refrontier(self, ctx, vertex: int) -> None:
        if ctx.read("in_frontier", vertex):
            ctx.write("in_frontier", vertex, 0)
            ctx.invoke("T1_explore", vertex)

    # ----------------------------------------------------------------- output
    def result(self, machine) -> np.ndarray:
        return machine.arrays["label"].copy()

    def reference(self, graph: CSRGraph) -> np.ndarray:
        return wcc_labels(graph)
