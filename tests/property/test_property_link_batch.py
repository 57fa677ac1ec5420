"""Property: batched link accounting with per-message flits is bit-exact.

``LinkLoadModel.record_batch`` charges a batch of messages in one
vectorized pass.  Given a per-message flits array it must leave the model
bit-equal to calling ``record_message`` once per message in emission order
-- the guarantee the cycle engine's deferred traffic flush relies on -- and
splitting the same messages over consecutive batches (the flush's chunking)
must not change a single bit either.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.analytical import LinkLoadModel
from repro.noc.topology import make_topology

#: Every NoC kind, with grids small enough to draw many repeated pairs and
#: odd enough to exercise torus wraps, express hops and TSV links.
TOPOLOGIES = st.sampled_from(
    [
        ("mesh", 5, 3, {}),
        ("torus", 4, 5, {}),
        ("torus_ruche", 7, 6, {"ruche_factor": 3}),
        ("mesh3d", 3, 3, {"depth": 2}),
        ("torus3d", 3, 2, {"depth": 3}),
    ]
)


def _model_state(model: LinkLoadModel) -> tuple:
    return (
        model.link_flits,
        model.router_flits.tolist(),
        model.injected_flits.tolist(),
        model.ejected_flits.tolist(),
        model.total_flit_hops,
        model.total_flit_millimeters,
        model.total_messages,
        model.bisection_load(),
        model.network_bound_cycles(),
    )


@st.composite
def batches(draw):
    kind, width, height, extra = draw(TOPOLOGIES)
    topology = make_topology(kind, width, height, **extra)
    tiles = st.integers(min_value=0, max_value=topology.num_tiles - 1)
    # A small pool of pairs, drawn from with replacement, repeats pairs
    # (and includes local src == dst messages) in every batch.
    pool = draw(st.lists(st.tuples(tiles, tiles), min_size=1, max_size=8))
    picks = draw(
        st.lists(st.integers(min_value=0, max_value=len(pool) - 1), min_size=1, max_size=60)
    )
    flits = draw(
        st.lists(
            st.integers(min_value=1, max_value=5), min_size=len(picks), max_size=len(picks)
        )
    )
    split = draw(st.integers(min_value=0, max_value=len(picks)))
    detailed = draw(st.booleans())
    srcs = np.array([pool[i][0] for i in picks], dtype=np.int64)
    dsts = np.array([pool[i][1] for i in picks], dtype=np.int64)
    return topology, srcs, dsts, np.array(flits, dtype=np.int64), split, detailed


class TestRecordBatchPerMessageFlits:
    @given(batches())
    @settings(max_examples=120, deadline=None)
    def test_bit_equal_to_record_message_loop(self, case):
        topology, srcs, dsts, flits, _split, detailed = case
        # A pitch that is not a power of two and a nonzero starting total
        # expose any reordered float fold.
        pitch = 0.1 + 1e-9
        batched = LinkLoadModel(topology, detailed=detailed)
        scalar = LinkLoadModel(topology, detailed=detailed)
        batched.total_flit_millimeters = scalar.total_flit_millimeters = 1e6 / 3
        hops = batched.record_batch(srcs, dsts, flits, pitch)
        expected = [
            scalar.record_message(int(s), int(d), int(f), pitch)
            for s, d, f in zip(srcs, dsts, flits)
        ]
        assert hops.tolist() == expected
        assert _model_state(batched) == _model_state(scalar)

    @given(batches())
    @settings(max_examples=120, deadline=None)
    def test_two_chunked_batches_equal_one_batch(self, case):
        topology, srcs, dsts, flits, split, detailed = case
        pitch = 0.1 + 1e-9
        whole = LinkLoadModel(topology, detailed=detailed)
        chunked = LinkLoadModel(topology, detailed=detailed)
        whole.total_flit_millimeters = chunked.total_flit_millimeters = 1e6 / 3
        hops = whole.record_batch(srcs, dsts, flits, pitch)
        first = chunked.record_batch(srcs[:split], dsts[:split], flits[:split], pitch)
        second = chunked.record_batch(srcs[split:], dsts[split:], flits[split:], pitch)
        assert np.concatenate([first, second]).tolist() == hops.tolist()
        assert _model_state(chunked) == _model_state(whole)

    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_uniform_array_equals_scalar_flits(self, case):
        topology, srcs, dsts, flits, _split, detailed = case
        uniform = np.full(len(srcs), int(flits[0]), dtype=np.int64)
        as_array = LinkLoadModel(topology, detailed=detailed)
        as_scalar = LinkLoadModel(topology, detailed=detailed)
        as_array.record_batch(srcs, dsts, uniform, 0.5)
        as_scalar.record_batch(srcs, dsts, int(flits[0]), 0.5)
        assert _model_state(as_array) == _model_state(as_scalar)
