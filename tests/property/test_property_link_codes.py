"""Property: canonical link codes and the array-native link-load model.

Every directed link has the canonical code ``src_tile * link_ports + port``.
``Topology.route_link_codes_batch`` enumerates the codes of many routes in
numpy; it must equal the memoized scalar route walk (``route_entry``) pair by
pair on every NoC kind, including ruche widths that are not multiples of the
ruche factor, dimensions of size 1 and 2, and 3D stacks.  The array
``LinkLoadModel.record_batch`` must leave every read-out of the model equal
to a ``record_message`` loop, and ``merge`` must add two models exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.analytical import LinkLoadModel
from repro.noc.topology import make_topology

DIMENSION = st.integers(min_value=1, max_value=9)


@st.composite
def topologies(draw):
    kind = draw(st.sampled_from(["mesh", "torus", "torus_ruche", "mesh3d", "torus3d"]))
    width, height = draw(DIMENSION), draw(DIMENSION)
    if kind == "torus_ruche":
        return make_topology(kind, width, height, ruche_factor=draw(st.integers(2, 4)))
    if kind.endswith("3d"):
        return make_topology(kind, width, height, depth=draw(st.integers(1, 3)))
    return make_topology(kind, width, height)


@st.composite
def routed_pairs(draw, max_size=40):
    topology = draw(topologies())
    tiles = st.integers(min_value=0, max_value=topology.num_tiles - 1)
    pairs = draw(st.lists(st.tuples(tiles, tiles), max_size=max_size))
    srcs = np.array([src for src, _ in pairs], dtype=np.int64)
    dsts = np.array([dst for _, dst in pairs], dtype=np.int64)
    return topology, srcs, dsts


class TestRouteLinkCodesBatch:
    @given(routed_pairs())
    @settings(max_examples=150, deadline=None)
    def test_equals_concatenated_route_entries(self, case):
        topology, srcs, dsts = case
        n = topology.num_tiles
        expected = [
            code
            for src, dst in zip(srcs.tolist(), dsts.tolist())
            for code in topology.route_entry(src * n + dst)[2]
        ]
        codes = topology.route_link_codes_batch(srcs, dsts)
        assert codes.dtype == np.int64
        assert codes.tolist() == expected

    @given(routed_pairs())
    @settings(max_examples=100, deadline=None)
    def test_codes_name_the_routed_links(self, case):
        topology, srcs, dsts = case
        codes = topology.route_link_codes_batch(srcs, dsts)
        assert ((codes >= 0) & (codes < topology.num_link_codes())).all()
        ends_src, ends_dst = topology.link_code_endpoints
        links = list(zip(ends_src[codes].tolist(), ends_dst[codes].tolist()))
        assert links == [
            link
            for src, dst in zip(srcs.tolist(), dsts.tolist())
            for link in topology.links_on_route(src, dst)
        ]


#: Edge shapes checked on every pair: ruche widths that are not multiples of
#: the factor (and one exactly twice it), size-1 and size-2 dimensions, and
#: 3D stacks with one, two and three layers.
EDGE_SHAPES = [
    ("torus_ruche", 7, 5, {"ruche_factor": 3}),
    ("torus_ruche", 8, 3, {"ruche_factor": 4}),
    ("torus_ruche", 1, 9, {"ruche_factor": 2}),
    ("torus", 2, 2, {}),
    ("torus", 1, 6, {}),
    ("mesh", 6, 1, {}),
    ("mesh", 1, 1, {}),
    ("mesh3d", 3, 2, {"depth": 2}),
    ("torus3d", 2, 3, {"depth": 3}),
    ("torus3d", 4, 1, {"depth": 1}),
]


@pytest.mark.parametrize("kind,width,height,extra", EDGE_SHAPES)
def test_every_pair_on_edge_shapes(kind, width, height, extra):
    topology = make_topology(kind, width, height, **extra)
    n = topology.num_tiles
    srcs, dsts = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    expected = [
        code
        for pair in range(n * n)
        for code in topology.route_entry(pair)[2]
    ]
    assert topology.route_link_codes_batch(srcs, dsts).tolist() == expected


def _readout(model: LinkLoadModel) -> tuple:
    return (
        model.link_flits,
        model.router_traffic().tolist(),
        model.injected_flits.tolist(),
        model.ejected_flits.tolist(),
        model.max_link_load(),
        model.bisection_load(),
        model.link_load_matrix().tolist(),
        model.total_flit_hops,
        model.total_messages,
    )


@st.composite
def traffic(draw):
    topology, srcs, dsts = draw(routed_pairs(max_size=30))
    flits = np.array(
        draw(st.lists(st.integers(1, 5), min_size=len(srcs), max_size=len(srcs))),
        dtype=np.int64,
    )
    split = draw(st.integers(min_value=0, max_value=len(srcs)))
    return topology, srcs, dsts, flits, split


class TestArrayLinkLoadModel:
    @given(traffic())
    @settings(max_examples=120, deadline=None)
    def test_record_batch_equals_record_message_loop(self, case):
        topology, srcs, dsts, flits, _split = case
        batched = LinkLoadModel(topology)
        scalar = LinkLoadModel(topology)
        batched.record_batch(srcs, dsts, flits)
        expected = {}
        for src, dst, count in zip(srcs.tolist(), dsts.tolist(), flits.tolist()):
            scalar.record_message(src, dst, count)
            for link in topology.links_on_route(src, dst):
                expected[link] = expected.get(link, 0) + count
        assert _readout(batched) == _readout(scalar)
        # The dict view is keyed by (src, dst) links, independent of codes.
        assert batched.link_flits == expected
        middle = topology.width // 2
        assert batched.bisection_load() == sum(
            count
            for (src, dst), count in expected.items()
            if (topology.coords(src)[0] < middle) != (topology.coords(dst)[0] < middle)
        )

    @given(traffic())
    @settings(max_examples=80, deadline=None)
    def test_merge_of_split_batches_equals_one_loop(self, case):
        topology, srcs, dsts, flits, split = case
        first = LinkLoadModel(topology)
        second = LinkLoadModel(topology)
        first.record_batch(srcs[:split], dsts[:split], flits[:split])
        second.record_batch(srcs[split:], dsts[split:], flits[split:])
        first.merge(second)
        scalar = LinkLoadModel(topology)
        for src, dst, count in zip(srcs.tolist(), dsts.tolist(), flits.tolist()):
            scalar.record_message(src, dst, count)
        assert _readout(first) == _readout(scalar)
