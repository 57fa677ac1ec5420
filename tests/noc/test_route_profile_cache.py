"""The per-instance route memo must stay bounded with eviction.

``cached_topology`` keeps topology instances alive for the whole process, so
an unbounded (or insert-only) memo would grow toward ``num_tiles ** 2``
entries on a long broker/worker run that sweeps many traffic patterns.  The
cache is a bounded FIFO keyed by pair code: it never exceeds the limit, keeps
serving correct routes past it, and keeps admitting (not just recomputing)
new entries.  ``route_profile`` and ``route_link_codes`` are two views of the
same entries, so one bound covers both.  Link codes are canonical
(``src_tile * link_ports + port``), so they do not depend on which routes were
memoized first or evicted.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.noc.topology import Mesh2D, RucheTorus2D, Torus2D, make_topology


def _decode(topo, codes):
    """The ``(src, dst)`` links that canonical ``codes`` name."""
    srcs, dsts = topo.link_code_endpoints
    return [(int(srcs[code]), int(dsts[code])) for code in codes]


def test_route_profile_cache_never_exceeds_limit():
    topo = Torus2D(8, 8)
    topo.ROUTE_PROFILE_CACHE_LIMIT = 16
    for src in range(topo.num_tiles):
        for dst in range(topo.num_tiles):
            topo.route_profile(src, dst)
            assert len(topo.routes) <= 16
    assert len(topo.routes) == 16


def test_one_bound_covers_both_views():
    topo = Mesh2D(8, 8)
    topo.ROUTE_PROFILE_CACHE_LIMIT = 16
    n = topo.num_tiles
    for src in range(n):
        for dst in range(n):
            # Alternate the views: each pair occupies one entry either way.
            if (src + dst) % 2:
                topo.route_profile(src, dst)
            else:
                topo.route_link_codes(src * n + dst)
            assert len(topo.routes) <= 16
    assert len(topo.routes) == 16
    # Only the one memo exists: no second cache grew beside it.
    assert [name for name in vars(topo) if "route" in name] == ["routes"]


def test_route_profile_cache_evicts_oldest_and_admits_new():
    topo = Mesh2D(8, 8)
    topo.ROUTE_PROFILE_CACHE_LIMIT = 4
    for dst in range(6):
        topo.route_profile(0, dst)
    cached = set(topo.routes)
    # FIFO: the two oldest pairs fell out, the four newest remain cached.
    assert cached == {2, 3, 4, 5}


def test_route_profile_correct_after_eviction():
    topo = Torus2D(4, 4)
    topo.ROUTE_PROFILE_CACHE_LIMIT = 2
    fresh = Torus2D(4, 4)  # default (large) limit: no eviction
    for src in range(topo.num_tiles):
        for dst in range(topo.num_tiles):
            assert topo.route_profile(src, dst) == fresh.route_profile(src, dst)
            # Canonical codes do not depend on what was cached or evicted.
            code = src * topo.num_tiles + dst
            assert topo.route_link_codes(code) == fresh.route_link_codes(code)


@pytest.mark.parametrize(
    "kind,extra",
    [
        ("mesh", {}),
        ("torus", {}),
        ("torus_ruche", {"ruche_factor": 3}),
        ("mesh3d", {"depth": 2}),
        ("torus3d", {"depth": 3}),
    ],
)
def test_views_agree_on_every_pair(kind, extra):
    topo = make_topology(kind, 7, 5, **extra)
    n = topo.num_tiles
    code_of = {}
    for src in range(n):
        for dst in range(n):
            links, lengths = topo.route_profile(src, dst)
            assert links == topo.links_on_route(src, dst)
            assert lengths == [topo.link_length_tiles(*link) for link in links]
            codes = topo.route_link_codes(src * n + dst)
            assert _decode(topo, codes) == links
            # A link's code is its source tile's port, whichever route uses it.
            assert [code // topo.link_ports for code in codes] == [s for s, _ in links]
            for link, code in zip(links, codes):
                assert code_of.setdefault(link, code) == code
    # Canonical codes: one per distinct link, inside the code space the
    # analytical network sizes its per-link state by.
    assert len(set(code_of.values())) == len(code_of)
    assert all(0 <= code < topo.num_link_codes() for code in code_of.values())
    assert len(code_of) <= topo.num_directed_links()


def test_concurrent_misses_hand_out_each_link_code_once():
    # Topologies are shared process-wide and a worker may simulate on
    # several threads; racing misses must publish the same canonical codes
    # a single-threaded topology computes.
    topo = RucheTorus2D(16, 16, ruche_factor=3)
    fresh = RucheTorus2D(16, 16, ruche_factor=3)
    n = topo.num_tiles
    pairs = [src * n + dst for src in range(n) for dst in range(0, n, 3)]
    failures = []

    def route_all(offset: int) -> None:
        try:
            for code in pairs[offset:] + pairs[:offset]:
                topo.route_entry(code)
        except Exception as exc:  # surfaced by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=route_all, args=(offset,))
            for offset in range(0, len(pairs), len(pairs) // 8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    for code in pairs:
        links, _lengths = topo.route_profile(code // n, code % n)
        assert links == topo.links_on_route(code // n, code % n)
        assert topo.route_link_codes(code) == fresh.route_link_codes(code)
        assert _decode(topo, topo.route_link_codes(code)) == links
