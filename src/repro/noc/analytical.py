"""Analytical link-load model used by the fast (non-cycle) simulation engine.

Every message is routed over the topology and its flits are charged to each
directed link on the path.  The resulting per-link loads bound the achievable
runtime (one flit per link per cycle), expose the mesh-vs-torus center
congestion the paper shows in Fig. 10, and feed the energy model via flit-hops.
Per-link loads live in an ``int64`` array indexed by the topology's canonical
link codes, so a batch of messages is charged with one ``np.bincount``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.core.batch import sequential_sum as _sequential_sum
from repro.noc.topology import Topology

Link = Tuple[int, int]


def millimeter_terms(
    topology: Topology,
    srcs: np.ndarray,
    dsts: np.ndarray,
    flits,
    tile_pitch_mm: float,
    detailed: bool,
) -> np.ndarray:
    """Flit-millimeter terms of non-local messages, in scalar fold order.

    :meth:`LinkLoadModel.record_message` adds ``flits * length * pitch`` once
    per link, route by route, in detailed mode and ``flits * span * pitch``
    once per message in aggregate mode.  Folding the returned terms with
    ``sequential_sum`` reproduces that ``+=`` loop bit-exactly.  ``flits`` is
    one length for every message or a per-message array; in detailed mode
    each message's length repeats over its route's links.
    """
    if detailed:
        lengths = topology.route_link_lengths_batch(srcs, dsts)
        if np.ndim(flits):
            flits = np.repeat(flits, topology.hop_distance_batch(srcs, dsts))
    else:
        lengths = topology.route_span_batch(srcs, dsts)
    return (flits * lengths) * tile_pitch_mm


def _tally(index: np.ndarray, flits, minlength: int) -> np.ndarray:
    """Per-bin flit totals of messages binned by ``index``, as ``int64``.

    ``flits`` is one length for every message or a per-message array;
    ``bincount`` weights go through float64, which is exact for the
    < 2^53 flit totals involved.
    """
    if np.ndim(flits):
        return np.bincount(index, weights=flits, minlength=minlength).astype(np.int64)
    return flits * np.bincount(index, minlength=minlength)


class LinkLoadModel:
    """Accumulates flit traffic per directed link, per router, and per endpoint.

    Two accounting modes are supported:

    * ``detailed=True`` (default): every message is routed and its flits are
      charged to each link on the path, in ``code_flits`` (one ``int64``
      per canonical link code).  Exact, but O(hops) per message --
      appropriate up to a few thousand tiles.
    * ``detailed=False``: only aggregate statistics are kept (flit-hops via the
      O(1) hop distance, endpoint loads, bisection crossings); the hottest link
      is estimated as ``flit_hops / links * congestion_factor``.  Used by the
      analytical engine on very large grids, where per-link accounting would
      dominate simulation time.
    """

    def __init__(self, topology: Topology, detailed: bool = True) -> None:
        self.topology = topology
        self.detailed = detailed
        self.reset()

    @property
    def link_flits(self) -> Dict[Link, int]:
        """``{(src, dst): flits}`` of every loaded link, built on demand."""
        used = np.flatnonzero(self.code_flits)
        srcs, dsts = self.topology.link_code_endpoints
        links = zip(srcs[used].tolist(), dsts[used].tolist())
        return dict(zip(links, self.code_flits[used].tolist()))

    def record_message(self, src: int, dst: int, flits: int, tile_pitch_mm: float = 1.0) -> int:
        """Charge one ``flits``-long message from ``src`` to ``dst``.

        Returns the hop count of the route (0 for a local, same-tile message).
        """
        self.total_messages += 1
        self.injected_flits[src] += flits
        self.ejected_flits[dst] += flits
        if src == dst:
            return 0
        topology = self.topology
        if not self.detailed:
            hops = topology.hop_distance(src, dst)
            self.total_flit_hops += flits * hops
            self.total_flit_millimeters += (
                flits * topology.route_span_tiles(src, dst) * tile_pitch_mm
            )
            middle = topology.width // 2
            if (topology.coords(src)[0] < middle) != (topology.coords(dst)[0] < middle):
                self._bisection_flits += flits
            return hops
        # Route, per-link lengths and link codes come memoized from the
        # topology.  A minimal route visits no link and no router twice, so
        # fancy-indexed adds charge each one once.
        links, lengths, codes = topology.route_entry(src * topology.num_tiles + dst)
        self.code_flits[codes] += flits
        self.router_flits[[link[0] for link in links]] += flits
        self.router_flits[dst] += flits
        millimeters = self.total_flit_millimeters
        for length in lengths:
            millimeters += flits * length * tile_pitch_mm
        self.total_flit_millimeters = millimeters
        self.total_flit_hops += flits * len(links)
        return len(links)

    def record_batch(
        self, srcs: np.ndarray, dsts: np.ndarray, flits, tile_pitch_mm: float = 1.0
    ) -> np.ndarray:
        """Charge a batch of messages; returns per-message hops.

        ``flits`` is one length for every message or an ``int64`` array of
        per-message lengths.  Bit-equal to calling :meth:`record_message`
        once per ``(src, dst)`` pair in order: the integer tallies are
        order-free scatters, and the only float accumulator
        (``total_flit_millimeters``) folds :func:`millimeter_terms` in
        emission order with ``sequential_sum``, which reproduces the scalar
        ``+=`` loop for any link lengths -- so one batch and the same
        messages split over consecutive batches agree bit for bit.
        """
        topology = self.topology
        num = len(srcs)
        self.total_messages += num
        if num == 0:
            return np.zeros(0, dtype=np.int64)
        num_tiles = topology.num_tiles
        self.injected_flits += _tally(srcs, flits, num_tiles)
        self.ejected_flits += _tally(dsts, flits, num_tiles)

        nonlocal_mask = srcs != dsts
        hops = np.zeros(num, dtype=np.int64)
        if not nonlocal_mask.any():
            return hops
        nl_src = srcs[nonlocal_mask]
        nl_dst = dsts[nonlocal_mask]
        if np.ndim(flits):
            flits = flits[nonlocal_mask]
        nl_hops = topology.hop_distance_batch(nl_src, nl_dst)
        hops[nonlocal_mask] = nl_hops
        self.total_flit_hops += int((flits * nl_hops).sum())
        self.total_flit_millimeters = _sequential_sum(
            self.total_flit_millimeters,
            millimeter_terms(
                topology, nl_src, nl_dst, flits, tile_pitch_mm, self.detailed
            ),
        )

        if not self.detailed:
            middle = topology.width // 2
            crossing = ((nl_src % topology.width) < middle) != (
                (nl_dst % topology.width) < middle
            )
            self._bisection_flits += int((flits * crossing).sum())
            return hops

        # One bincount over every hop's canonical link code.  A router
        # carries the flits it ejects plus those of its outgoing links.
        self.router_flits += _tally(nl_dst, flits, num_tiles)
        link_sums = _tally(
            topology.route_link_codes_batch(nl_src, nl_dst),
            np.repeat(flits, nl_hops) if np.ndim(flits) else flits,
            len(self.code_flits),
        )
        self.code_flits += link_sums
        self.router_flits += link_sums.reshape(num_tiles, topology.link_ports).sum(axis=1)
        return hops

    # ------------------------------------------------------------------ bounds
    def max_link_load(self) -> float:
        """Heaviest per-link flit count: a lower bound on cycles (1 flit/cycle)."""
        if not self.detailed:
            links = max(1, self.topology.num_directed_links())
            return self.total_flit_hops / links * self.topology.congestion_factor
        return int(self.code_flits.max(initial=0))

    def max_endpoint_load(self) -> int:
        """Heaviest injection/ejection flit count over all tiles."""
        return int(max(self.injected_flits.max(), self.ejected_flits.max()))

    def bisection_load(self) -> int:
        """Flits crossing the vertical middle cut (both directions)."""
        if not self.detailed:
            return self._bisection_flits
        return int(self.code_flits[self.topology.bisection_code_mask].sum())

    def bisection_bound_cycles(self) -> float:
        """Cycles needed to push the bisection traffic through the bisection links."""
        links = self.topology.bisection_links()
        if links == 0:
            return 0.0
        return self.bisection_load() / links

    def network_bound_cycles(self) -> float:
        """Overall network lower bound on execution cycles."""
        return float(
            max(self.max_link_load(), self.max_endpoint_load(), self.bisection_bound_cycles())
        )

    # ------------------------------------------------------------------- stats
    def router_traffic(self) -> np.ndarray:
        """Flits traversing each router (for utilization heatmaps)."""
        return self.router_flits.copy()

    def link_load_matrix(self) -> np.ndarray:
        """Dense (num_tiles x num_tiles) matrix of link loads (0 where no link)."""
        matrix = np.zeros((self.topology.num_tiles, self.topology.num_tiles), dtype=np.int64)
        if self.detailed:
            srcs, dsts = self.topology.link_code_endpoints
            np.add.at(matrix, (srcs, dsts), self.code_flits)
        return matrix

    def merge(self, other: "LinkLoadModel") -> None:
        """Accumulate another model's traffic into this one.

        Both models must use the same accounting mode and an identical
        topology; merging across modes would silently drop the detailed
        per-link loads (or the aggregate bisection estimate) and miscount
        every bound derived from them, so a mismatch raises instead.
        """
        if self.detailed != other.detailed:
            raise ValueError(
                f"cannot merge a detailed={other.detailed} link-load model into "
                f"a detailed={self.detailed} one; per-link and aggregate "
                "accounting are not interchangeable"
            )
        if not self.topology.same_grid(other.topology):
            raise ValueError(
                "cannot merge link-load models built on different topologies: "
                f"{self.topology.describe()} vs {other.topology.describe()}"
            )
        self.code_flits += other.code_flits
        self.router_flits += other.router_flits
        self.injected_flits += other.injected_flits
        self.ejected_flits += other.ejected_flits
        self.total_flit_hops += other.total_flit_hops
        self.total_flit_millimeters += other.total_flit_millimeters
        self.total_messages += other.total_messages
        self._bisection_flits += other._bisection_flits

    def reset(self) -> None:
        """Clear all accumulated traffic (the topology keeps its route cache)."""
        topology = self.topology
        #: Flits per canonical link code (empty in aggregate mode).
        self.code_flits = np.zeros(
            topology.num_link_codes() if self.detailed else 0, dtype=np.int64
        )
        self.router_flits = np.zeros(topology.num_tiles, dtype=np.int64)
        self.injected_flits = np.zeros(topology.num_tiles, dtype=np.int64)
        self.ejected_flits = np.zeros(topology.num_tiles, dtype=np.int64)
        self.total_flit_hops = 0
        self.total_flit_millimeters = 0.0
        self.total_messages = 0
        self._bisection_flits = 0
