"""Property tests for the array-native epoch boundary, each against the
scalar walk it replaces: ``split_ranges`` against ``contiguous_ranges`` plus
the ``max_range`` chunk loop, and the columnar frontier log against one FIFO
list per tile."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.batch import split_ranges
from repro.core.placement import make_space_placement
from repro.core.state import FrontierLog
from repro.errors import PlacementError


def scalar_split(space, begins, ends, max_range):
    """The per-item walk of ``TaskContext.invoke_range``."""
    pieces, per_item = [], []
    for begin, end in zip(begins, ends):
        count = 0
        if begin < end:
            for tile, sub_begin, sub_end in space.contiguous_ranges(begin, end):
                cursor = sub_begin
                while cursor < sub_end:
                    chunk_end = min(sub_end, cursor + max_range)
                    pieces.append((tile, cursor, chunk_end))
                    cursor = chunk_end
                    count += 1
        per_item.append(count)
    return pieces, per_item


@st.composite
def split_cases(draw):
    length = draw(st.integers(min_value=0, max_value=80))
    num_tiles = draw(st.integers(min_value=1, max_value=9))
    policy = draw(st.sampled_from(["block", "interleave", "row"]))
    owner_map = None
    if policy == "row":
        owner_map = draw(
            st.lists(st.integers(0, num_tiles - 1), min_size=length, max_size=length)
        )
    space = make_space_placement(policy, length, num_tiles, owner_map=owner_map)
    # Mostly in-range items, with empty, inverted and out-of-range ones mixed in.
    items = draw(
        st.lists(
            st.tuples(st.integers(-2, length + 2), st.integers(-3, 30)), max_size=10
        )
    )
    begins = [begin for begin, _ in items]
    ends = [begin + span for begin, span in items]
    max_range = draw(st.integers(min_value=1, max_value=7))
    return space, begins, ends, max_range


class TestSplitRanges:
    @settings(max_examples=300, deadline=None)
    @given(split_cases())
    def test_matches_scalar_walk(self, case):
        space, begins, ends, max_range = case
        try:
            expected = scalar_split(space, begins, ends, max_range)
        except PlacementError as error:
            with pytest.raises(PlacementError, match=re.escape(str(error))):
                split_ranges(space, np.array(begins), np.array(ends), max_range)
            return
        dests, piece_begin, piece_end, counts = split_ranges(
            space,
            np.array(begins, dtype=np.int64),
            np.array(ends, dtype=np.int64),
            max_range,
        )
        pieces, per_item = expected
        got = list(zip(dests.tolist(), piece_begin.tolist(), piece_end.tolist()))
        assert got == pieces
        assert counts.tolist() == per_item
        for column in (dests, piece_begin, piece_end, counts):
            assert column.dtype == np.int64


class TestFrontierLog:
    @settings(max_examples=200, deadline=None)
    @given(
        num_tiles=st.integers(min_value=1, max_value=6),
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("push"),
                    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 99)), max_size=8),
                ),
                st.tuples(st.just("push_one"), st.integers(0, 5), st.integers(0, 99)),
                st.tuples(
                    st.just("take"),
                    st.integers(0, 4),
                    st.integers(0, 6),
                    st.integers(0, 6),
                ),
            ),
            max_size=30,
        ),
    )
    def test_take_matches_per_tile_fifo(self, num_tiles, ops):
        log = FrontierLog()
        oracle = [[] for _ in range(num_tiles)]
        for op in ops:
            if op[0] == "push":
                entries = [(tile % num_tiles, vertex) for tile, vertex in op[1]]
                log.push(
                    np.array([tile for tile, _ in entries], dtype=np.int64),
                    np.array([vertex for _, vertex in entries], dtype=np.int64),
                )
                for tile, vertex in entries:
                    oracle[tile].append(vertex)
            elif op[0] == "push_one":
                tile = op[1] % num_tiles
                log.push_one(tile, op[2])
                oracle[tile].append(op[2])
            else:
                _, budget, lo, span = op
                if span == 0:
                    # The all-tile take the analytic engine issues.
                    lo, hi = 0, num_tiles
                    tiles, vertices = log.take(budget)
                else:
                    # span 1 is the cycle engine's one-tile take.
                    lo %= num_tiles
                    hi = min(num_tiles, lo + span)
                    tiles, vertices = log.take(budget, lo, hi)
                expected = []
                for tile in range(lo, hi):
                    taken = oracle[tile][:budget]
                    del oracle[tile][:budget]
                    expected.extend((tile, vertex) for vertex in taken)
                assert list(zip(tiles.tolist(), vertices.tolist())) == expected
            # What stays behind keeps its push order within every tile.
            tiles = log.tiles[: log.size].tolist()
            vertices = log.vertices[: log.size].tolist()
            for tile in range(num_tiles):
                left = [v for t, v in zip(tiles, vertices) if t == tile]
                assert left == oracle[tile]
