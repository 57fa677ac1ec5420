"""Unit tests for the CSR graph container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import chain_graph, rmat_graph


def build_triangle():
    # 0 -> 1, 1 -> 2, 2 -> 0 with weights 1, 2, 3.
    return CSRGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)], [1.0, 2.0, 3.0])


class TestConstruction:
    def test_from_edges_counts(self):
        graph = build_triangle()
        assert graph.num_vertices == 3
        assert graph.num_edges == 3

    def test_indptr_monotone(self):
        graph = build_triangle()
        assert np.all(np.diff(graph.indptr) >= 0)
        assert graph.indptr[0] == 0
        assert graph.indptr[-1] == graph.num_edges

    def test_neighbors_and_weights(self):
        graph = build_triangle()
        assert list(graph.neighbors(0)) == [1]
        assert list(graph.neighbor_weights(2)) == [3.0]

    def test_isolated_vertices_allowed(self):
        graph = CSRGraph.from_edges(5, [(0, 1)])
        assert graph.out_degree(4) == 0
        assert graph.num_vertices == 5

    def test_empty_graph(self):
        graph = CSRGraph.from_edges(3, [])
        assert graph.num_edges == 0
        assert graph.average_degree == 0.0

    def test_self_loops_removed(self):
        graph = CSRGraph.from_edges(3, [(0, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_self_loops_kept_when_requested(self):
        graph = CSRGraph.from_edges(3, [(0, 0), (0, 1)], remove_self_loops=False)
        assert graph.num_edges == 2

    def test_duplicate_edges_removed(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (0, 1), (1, 2)])
        assert graph.num_edges == 2

    def test_duplicate_edges_kept_when_requested(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (0, 1)], dedup=False)
        assert graph.num_edges == 2

    def test_undirected_mirrors_edges(self):
        graph = CSRGraph.from_edges(3, [(0, 1)], directed=False)
        assert graph.has_edge(0, 1)
        assert graph.has_edge(1, 0)

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [(0, 5)])

    def test_mismatched_values_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(3, [(0, 1)], values=[1.0, 2.0])

    def test_invalid_indptr_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph([0, 2, 1], [0, 1, 2])


class TestQueries:
    def test_edge_range_matches_degree(self):
        graph = build_triangle()
        begin, end = graph.edge_range(1)
        assert end - begin == graph.out_degree(1)

    def test_edge_range_out_of_bounds(self):
        with pytest.raises(GraphError):
            build_triangle().edge_range(7)

    def test_degrees_sum_to_edges(self):
        graph = rmat_graph(6, edge_factor=4, seed=0)
        assert graph.degrees().sum() == graph.num_edges

    def test_edge_sources_align_with_indptr(self):
        graph = rmat_graph(6, edge_factor=4, seed=1)
        sources = graph.edge_sources()
        for vertex in range(graph.num_vertices):
            begin, end = graph.edge_range(vertex)
            assert np.all(sources[begin:end] == vertex)

    def test_iter_edges_matches_count(self):
        graph = build_triangle()
        assert len(list(graph.iter_edges())) == graph.num_edges

    def test_has_edge(self):
        graph = build_triangle()
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 0)

    def test_memory_footprint_positive(self):
        graph = build_triangle()
        assert graph.memory_footprint_bytes() > 0
        assert graph.memory_footprint_bytes(8) == 2 * graph.memory_footprint_bytes(4)

    def test_degree_statistics_fields(self):
        stats = rmat_graph(6, seed=2).degree_statistics()
        assert stats["max"] >= stats["mean"] >= 0

    def test_highest_degree_vertex(self):
        graph = CSRGraph.from_edges(4, [(2, 0), (2, 1), (2, 3), (0, 1)])
        assert graph.highest_degree_vertex() == 2


class TestTransforms:
    def test_transpose_reverses_edges(self):
        graph = build_triangle()
        transposed = graph.transpose()
        assert transposed.has_edge(1, 0)
        assert transposed.num_edges == graph.num_edges

    def test_transpose_twice_is_identity(self):
        graph = rmat_graph(6, edge_factor=4, seed=3)
        round_trip = graph.transpose().transpose()
        assert round_trip == graph

    def test_to_undirected_symmetric(self):
        graph = build_triangle().to_undirected()
        assert graph.is_symmetric()

    def test_chain_is_symmetric(self):
        assert chain_graph(5).is_symmetric()

    def test_with_unit_weights(self):
        graph = build_triangle().with_unit_weights()
        assert np.all(graph.values == 1.0)

    def test_equality(self):
        assert build_triangle() == build_triangle()
        assert not (build_triangle() == chain_graph(3))


class TestVectorizedBuildAndSymmetry:
    def test_ndarray_and_list_edges_build_identical_csr(self):
        rng = np.random.default_rng(5)
        edges = rng.integers(0, 40, size=(300, 2))
        weights = rng.uniform(0.0, 1.0, size=300)
        for directed in (True, False):
            from_array = CSRGraph.from_edges(40, edges, weights, directed=directed)
            from_list = CSRGraph.from_edges(
                40, [tuple(pair) for pair in edges.tolist()], weights.tolist(),
                directed=directed,
            )
            assert np.array_equal(from_array.indptr, from_list.indptr)
            assert np.array_equal(from_array.indices, from_list.indices)
            assert np.array_equal(from_array.values, from_list.values)

    def test_ndarray_edges_are_not_aliased(self):
        edges = np.array([[0, 1], [1, 2]], dtype=np.int64)
        graph = CSRGraph.from_edges(3, edges, remove_self_loops=False, dedup=False)
        edges[:] = 0
        assert graph.indices.tolist() == [1, 2]

    @settings(max_examples=80, deadline=None)
    @given(
        num_vertices=st.integers(min_value=1, max_value=12),
        pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40),
        mirror=st.booleans(),
    )
    def test_is_symmetric_matches_edge_set_walk(self, num_vertices, pairs, mirror):
        pairs = [(u % num_vertices, v % num_vertices) for u, v in pairs]
        if mirror:
            pairs += [(v, u) for u, v in pairs]
        graph = CSRGraph.from_edges(
            num_vertices, pairs, dedup=False, remove_self_loops=False
        )
        forward = set(zip(graph.edge_sources().tolist(), graph.indices.tolist()))
        expected = all((dst, src) in forward for src, dst in forward)
        assert graph.is_symmetric() is expected
