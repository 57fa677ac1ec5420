"""NoC topologies: 2D mesh/torus (plus ruche channels) and stacked 3D variants.

Routing is dimension-ordered (X then Y, then Z on 3D stacks), matching the
paper's wormhole network.  A route is the ordered list of tiles a message
traverses, including source and destination; the directed links used are the
consecutive pairs of that list.  Every directed link also has a canonical
dense code, ``src_tile * link_ports + port``, where ``port`` indexes the
sorted unit steps of each dimension in routing order: per-link state lives in
flat arrays over that code space, and :meth:`Topology.route_link_codes_batch`
enumerates the codes of many routes at once in numpy.
:meth:`Topology.route_dims` generalizes the same per-dimension
decomposition to arbitrary dimension orders, and
:meth:`Topology.minimal_next_hops` exposes the per-dimension minimal next-hop
candidates -- the API the :mod:`repro.noc.sim` routing policies (oblivious
XY/YX, minimal-adaptive) are built on.

The torus models the paper's folded layout ("consecutive logical tiles at a
distance of two in the silicon"): link length is twice the tile pitch, which the
energy model uses.  Ruche channels are long physical wires that skip
``ruche_factor - 1`` routers in one dimension, increasing bisection bandwidth.
3D stacks (``mesh3d``/``torus3d``) connect ``depth`` silicon layers through
short TSV pillars; vertical hops cost a full router traversal but only a
fraction of a tile pitch in wire length.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from functools import cached_property, lru_cache
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

Link = Tuple[int, int]

#: Serializes route-memo misses.  Topologies are shared process-wide
#: (``cached_topology``) and a worker may simulate on several threads; the
#: bounded FIFO must evict each entry once.  Hits never take the lock:
#: entries are immutable once published.
_ROUTE_MISS_LOCK = threading.Lock()


def _ring_distance(delta: np.ndarray, size: int) -> np.ndarray:
    """Shortest-direction distance around a ring of ``size`` routers."""
    forward = delta % size
    return np.minimum(forward, size - forward)


def _ring_direction(delta: np.ndarray, size: int) -> np.ndarray:
    """Unit step of the shortest direction around a ring (ties go forward)."""
    forward = delta % size
    return np.where(forward <= size - forward, 1, -1)


class Topology(ABC):
    """Base class for 2D tiled topologies addressed as ``tile = y * width + x``."""

    kind = "abstract"
    #: Express-channel skip distance; only ruche topologies set a value.
    ruche_factor: Optional[int] = None

    def __init__(self, width: int, height: int) -> None:
        if width < 1 or height < 1:
            raise ConfigurationError("topology dimensions must be positive")
        self.width = width
        self.height = height
        #: Route memo behind :meth:`route_entry`, keyed by pair code.  Hot
        #: loops probe it directly (a hit skips the method call); only
        #: route_entry fills it.
        self.routes: dict = {}

    # -------------------------------------------------------------- addressing
    @property
    def num_tiles(self) -> int:
        return self.width * self.height

    def coords(self, tile: int) -> Tuple[int, int]:
        """Return ``(x, y)`` coordinates of a tile ID."""
        if tile < 0 or tile >= self.num_tiles:
            raise ConfigurationError(f"tile {tile} out of range")
        return tile % self.width, tile // self.width

    def tile_at(self, x: int, y: int) -> int:
        """Return the tile ID at coordinates ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ConfigurationError(f"coordinates ({x}, {y}) out of range")
        return y * self.width + x

    # -------------------------------------------------------- n-d addressing
    def dimension_sizes(self) -> Tuple[int, ...]:
        """Extent of every dimension, in routing (dimension-order) order."""
        return (self.width, self.height)

    def coords_nd(self, tile: int) -> Tuple[int, ...]:
        """Tile coordinates as a tuple with one entry per dimension."""
        return self.coords(tile)

    def tile_from_nd(self, coords: Tuple[int, ...]) -> int:
        """Inverse of :meth:`coords_nd`."""
        return self.tile_at(*coords)

    # ----------------------------------------------------------------- routing
    @abstractmethod
    def next_hop_offsets(self, delta: int, size: int) -> List[int]:
        """Decompose a 1D displacement into a sequence of per-hop offsets."""

    def route(self, src: int, dst: int) -> List[int]:
        """Dimension-ordered (X then Y) route from ``src`` to ``dst`` inclusive."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        width = self.width
        height = self.height
        path = [src]
        x, y = sx, sy
        # Coordinates stay in range (every step wraps), so tiles are
        # computed directly rather than through the checked tile_at.
        for step in self.next_hop_offsets(dx - sx, width):
            x = (x + step) % width
            path.append(y * width + x)
        for step in self.next_hop_offsets(dy - sy, height):
            y = (y + step) % height
            path.append(y * width + x)
        return path

    def route_dims(self, src: int, dst: int, dim_order: Tuple[int, ...]) -> List[int]:
        """Minimal route visiting dimensions in ``dim_order`` (e.g. Y before X).

        ``route_dims(src, dst, (0, 1))`` reproduces :meth:`route` exactly; a
        permuted order is what the oblivious XY/YX routing policy uses to
        spread traffic over both dimension orders.
        """
        sizes = self.dimension_sizes()
        cur = list(self.coords_nd(src))
        target = self.coords_nd(dst)
        path = [src]
        for dim in dim_order:
            for step in self.next_hop_offsets(target[dim] - cur[dim], sizes[dim]):
                cur[dim] = (cur[dim] + step) % sizes[dim]
                path.append(self.tile_from_nd(tuple(cur)))
        return path

    def minimal_next_hops(self, cur: int, dst: int) -> List[Tuple[int, int]]:
        """Minimal next-hop candidates from ``cur`` toward ``dst``.

        Returns ``(dimension, next_tile)`` pairs, one per dimension that still
        has displacement to cover, in dimension order (so taking the first
        candidate at every step reproduces dimension-ordered routing).  The
        per-dimension step is the same greedy first hop :meth:`route` takes,
        so express (ruche) channels and shortest-direction torus wraps are
        honoured by every policy built on this.
        """
        sizes = self.dimension_sizes()
        cur_c = self.coords_nd(cur)
        dst_c = self.coords_nd(dst)
        candidates: List[Tuple[int, int]] = []
        for dim, size in enumerate(sizes):
            offsets = self.next_hop_offsets(dst_c[dim] - cur_c[dim], size)
            if not offsets:
                continue
            nxt = list(cur_c)
            nxt[dim] = (nxt[dim] + offsets[0]) % size
            candidates.append((dim, self.tile_from_nd(tuple(nxt))))
        return candidates

    def hop_distance(self, src: int, dst: int) -> int:
        """Number of router-to-router hops between two tiles (O(1) arithmetic)."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        return self._dimension_hops(dx - sx, self.width) + self._dimension_hops(
            dy - sy, self.height
        )

    def _dimension_hops(self, delta: int, size: int) -> int:
        """Hop count along one dimension; subclasses override for O(1) math."""
        return len(self.next_hop_offsets(delta, size))

    def _dimension_span(self, delta: int, size: int) -> int:
        """Tile-pitch distance traveled along one dimension (before folding)."""
        return abs(delta)

    def route_span_tiles(self, src: int, dst: int) -> float:
        """Physical wire length (in tile pitches) traveled from ``src`` to ``dst``."""
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        span = self._dimension_span(dx - sx, self.width) + self._dimension_span(
            dy - sy, self.height
        )
        return span * self.physical_length_factor

    #: Physical wire length per tile of logical displacement (folded torus = 2).
    physical_length_factor = 1.0

    # ------------------------------------------------------- batched routing
    # Vectorized twins of hop_distance / route_span_tiles / the per-link
    # lengths of route_profile, over arrays of (src, dst) pairs.  They use
    # the same integer arithmetic and the same float operations in the same
    # order as the scalar methods, so every element is bit-equal to them.
    def _coords_batch(self, tiles: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Per-dimension coordinate arrays of ``tiles`` (routing order)."""
        return tiles % self.width, tiles // self.width

    def _dimension_hops_batch(self, delta: np.ndarray, size: int) -> np.ndarray:
        return np.abs(delta)

    def _dimension_span_batch(self, delta: np.ndarray, size: int) -> np.ndarray:
        return np.abs(delta)

    def _dimension_runs_batch(
        self, delta: np.ndarray, size: int, length: float
    ) -> List[Tuple[np.ndarray, np.ndarray, float]]:
        """Links along one dimension, in route order, as ``(count, step,
        length)`` runs of ``count`` hops of signed ``step`` each (wrapping
        modulo ``size``), every one ``length`` tile pitches long."""
        return [(np.abs(delta), np.where(delta < 0, -1, 1), length)]

    def _dimension_link_lengths(self) -> Tuple[float, ...]:
        """Length of a unit hop along each dimension, in tile pitches."""
        return (self.physical_length_factor,) * len(self.dimension_sizes())

    def _deltas_batch(self, srcs, dsts) -> List[Tuple[np.ndarray, int]]:
        src_c = self._coords_batch(np.asarray(srcs, dtype=np.int64))
        dst_c = self._coords_batch(np.asarray(dsts, dtype=np.int64))
        return [
            (d - s, size) for s, d, size in zip(src_c, dst_c, self.dimension_sizes())
        ]

    def hop_distance_batch(self, srcs, dsts) -> np.ndarray:
        """Vectorized :meth:`hop_distance`."""
        hops = [
            self._dimension_hops_batch(delta, size)
            for delta, size in self._deltas_batch(srcs, dsts)
        ]
        return np.sum(hops, axis=0, dtype=np.int64)

    def route_span_batch(self, srcs, dsts) -> np.ndarray:
        """Vectorized :meth:`route_span_tiles`."""
        (dx, width), (dy, height) = self._deltas_batch(srcs, dsts)
        span = self._dimension_span_batch(dx, width) + self._dimension_span_batch(
            dy, height
        )
        return span * self.physical_length_factor

    def route_link_lengths_batch(self, srcs, dsts) -> np.ndarray:
        """Per-link physical lengths of every route, concatenated in order.

        Message ``i``'s links come before message ``i + 1``'s, and within a
        message they follow the dimension-ordered route -- the order in
        which :meth:`route_profile` lists its lengths, so the result equals
        concatenating ``route_profile(s, d)[1]`` over the pairs.
        """
        runs: List[Tuple[np.ndarray, np.ndarray, float]] = []
        for (delta, size), length in zip(
            self._deltas_batch(srcs, dsts), self._dimension_link_lengths()
        ):
            runs.extend(self._dimension_runs_batch(delta, size, length))
        counts = np.stack([count for count, _, _ in runs], axis=1)
        lengths = np.array([length for _, _, length in runs], dtype=np.float64)
        return np.repeat(np.broadcast_to(lengths, counts.shape).ravel(), counts.ravel())

    def route_link_codes_batch(self, srcs, dsts) -> np.ndarray:
        """Canonical link codes of every route, concatenated in order.

        The same order as :meth:`route_link_lengths_batch`, so the result
        equals concatenating ``route_entry(s * num_tiles + d)[2]`` over the
        pairs.  Each dimension's runs (:meth:`_dimension_runs_batch`) start
        at the tile the previous run ended on.  Within a run the codes step
        by ``step * stride * link_ports`` per hop, except for one jump back
        by the ring size at the hop that wraps, so the whole sequence is one
        cumulative sum of per-hop increments.
        """
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        ports = self.link_ports
        src_c = self._coords_batch(srcs)
        dst_c = self._coords_batch(dsts)
        tile = srcs
        runs = []  # per run: (count, first code, increment, wrap hop, wrap jump)
        for dim, size in enumerate(self.dimension_sizes()):
            stride = self._strides[dim]
            scale = stride * ports
            steps = np.array(self._port_steps[dim], dtype=np.int64)
            coord = src_c[dim]
            for count, step, _length in self._dimension_runs_batch(
                dst_c[dim] - coord, size, 0.0
            ):
                port = self._port_offsets[dim] + np.searchsorted(steps, step)
                forward = step > 0
                # First hop whose coordinate coord + step * k leaves [0, size).
                wrap = np.where(forward, (size - coord + step - 1) // step, coord // -step + 1)
                jump = np.where(forward, -size * scale, size * scale)
                runs.append((count, tile * ports + port, step * scale, wrap, jump))
                end = (coord + step * count) % size
                tile = tile + (end - coord) * stride
                coord = end
        count, first, increment, wrap, jump = (
            np.stack([run[i] for run in runs], axis=1).ravel() for i in range(5)
        )
        used = count > 0
        count, first, increment, wrap, jump = (
            column[used] for column in (count, first, increment, wrap, jump)
        )
        start = np.cumsum(count) - count
        wrapped = wrap < count
        last = first + increment * (count - 1) + np.where(wrapped, jump, 0)
        deltas = np.repeat(increment, count)
        deltas[start] = first - np.concatenate(([0], last[:-1]))
        deltas[(start + wrap)[wrapped]] += jump[wrapped]
        return np.cumsum(deltas)

    #: Ratio of the hottest link load to the average link load under uniform
    #: random traffic with dimension-ordered routing; used by the sparse
    #: link-load model on very large grids.
    congestion_factor = 1.0

    def num_directed_links(self) -> int:
        """Total number of directed router-to-router links (closed form).

        Links run along one dimension at a time, and every line of routers
        along a dimension carries the same number of them.
        """
        num_tiles = self.num_tiles
        return sum(
            num_tiles // size * self._line_links(size)
            for size in self.dimension_sizes()
        )

    def _line_links(self, size: int) -> int:
        """Directed links along one wrapped line of ``size`` routers."""
        return size * len({step % size for step in self._unit_steps(size)} - {0})

    def links_on_route(self, src: int, dst: int) -> List[Link]:
        """Directed links traversed by a message from ``src`` to ``dst``."""
        path = self.route(src, dst)
        return list(zip(path[:-1], path[1:]))

    # --------------------------------------------------- canonical link codes
    @cached_property
    def _port_steps(self) -> Tuple[Tuple[int, ...], ...]:
        """Sorted unit steps of every dimension, in routing order."""
        return tuple(tuple(sorted(self._unit_steps(size))) for size in self.dimension_sizes())

    @cached_property
    def _port_offsets(self) -> Tuple[int, ...]:
        """First port of every dimension."""
        return tuple(np.cumsum([0] + [len(steps) for steps in self._port_steps])[:-1].tolist())

    @cached_property
    def _strides(self) -> Tuple[int, ...]:
        """Tile-id distance of one coordinate step along every dimension."""
        return tuple(np.cumprod((1,) + self.dimension_sizes()[:-1]).tolist())

    @cached_property
    def link_ports(self) -> int:
        """Output ports per router: one per unit step of every dimension."""
        return sum(len(steps) for steps in self._port_steps)

    def num_link_codes(self) -> int:
        """Size of the canonical link-code space, ``num_tiles * link_ports``.

        Codes of ports that lead nowhere (a mesh edge, a size-1 dimension)
        stay unused, so the space can exceed :meth:`num_directed_links`.
        """
        return self.num_tiles * self.link_ports

    @cached_property
    def link_code_endpoints(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` tile arrays indexed by link code."""
        tiles = np.arange(self.num_tiles, dtype=np.int64)
        coords = self._coords_batch(tiles)
        dsts = [
            tiles + ((coords[dim] + step) % size - coords[dim]) * self._strides[dim]
            for dim, size in enumerate(self.dimension_sizes())
            for step in self._port_steps[dim]
        ]
        return np.repeat(tiles, self.link_ports), np.array(dsts, dtype=np.int64).T.ravel()

    @cached_property
    def bisection_code_mask(self) -> np.ndarray:
        """Link codes whose link crosses the vertical middle cut (on x)."""
        srcs, dsts = self.link_code_endpoints
        middle = self.width // 2
        return (srcs % self.width < middle) != (dsts % self.width < middle)

    @cached_property
    def _code_table(self) -> Tuple[list, list, list]:
        """Per-code link tuples, lengths and code ints, shared by every
        memoized route (a cached route costs a list slot per link)."""
        srcs, dsts = self.link_code_endpoints
        links = list(zip(srcs.tolist(), dsts.tolist()))
        lengths = [self.link_length_tiles(*link) for link in links]
        return links, lengths, list(range(len(links)))

    #: Per-topology cap on memoized routes.  Topology instances are
    #: process-lived (``cached_topology``), so an uncapped cache would grow
    #: toward num_tiles^2 entries on a long-running worker; 16x16 and 32x32
    #: grids stay fully cached, larger grids cache their hottest pairs.
    ROUTE_PROFILE_CACHE_LIMIT = 1 << 17

    def route_entry(self, pair_code: int) -> tuple:
        """Memoized ``(links, lengths, codes)`` of route ``src*num_tiles + dst``.

        ``links`` is :meth:`links_on_route`, ``lengths`` the matching
        per-link physical lengths in tile pitches, and ``codes`` the same
        links as canonical link codes, all below :meth:`num_link_codes`, so
        per-link state can live in a flat array.  Routes are pure functions
        of the pair and the cache lives on the topology instance, so every
        consumer sharing one topology -- the scalar link-load path and the
        analytical network -- shares one route computation per pair, and
        one bound covers every view of it.
        """
        entry = self.routes.get(pair_code)
        if entry is None:
            with _ROUTE_MISS_LOCK:
                entry = self._route_miss(pair_code)
        return entry

    def _route_miss(self, pair_code: int) -> tuple:
        """Compute, memoize and return one route entry (under the miss lock)."""
        cache = self.routes
        entry = cache.get(pair_code)
        if entry is None:
            src, dst = divmod(pair_code, self.num_tiles)
            ports = self.link_ports
            src_c = self.coords_nd(src)
            dst_c = self.coords_nd(dst)
            tile = src
            raw = []
            for dim, size in enumerate(self.dimension_sizes()):
                coord = src_c[dim]
                steps = self._port_steps[dim]
                offset = self._port_offsets[dim]
                for step in self.next_hop_offsets(dst_c[dim] - coord, size):
                    raw.append(tile * ports + offset + steps.index(step))
                    end = (coord + step) % size
                    tile += (end - coord) * self._strides[dim]
                    coord = end
            links, lengths, codes = self._code_table
            entry = (
                [links[code] for code in raw],
                [lengths[code] for code in raw],
                [codes[code] for code in raw],
            )
            # Bounded FIFO: evict the oldest-inserted entry once full, so a
            # process-lived topology serving many traffic patterns keeps a
            # bounded working set instead of merely refusing to learn new
            # routes (or, worse, growing toward num_tiles^2 entries).
            while len(cache) >= self.ROUTE_PROFILE_CACHE_LIMIT:
                cache.pop(next(iter(cache)))
            cache[pair_code] = entry
        return entry

    def route_profile(self, src: int, dst: int) -> tuple:
        """Memoized ``(links, lengths)`` of the dimension-ordered route."""
        return self.route_entry(src * self.num_tiles + dst)[:2]

    def route_link_codes(self, pair_code: int) -> List[int]:
        """Memoized canonical link codes of route ``src*num_tiles + dst``."""
        return self.route_entry(pair_code)[2]

    def links(self) -> Iterator[Link]:
        """All directed links of the topology."""
        seen = set()
        for tile in range(self.num_tiles):
            for neighbor in self.neighbors(tile):
                link = (tile, neighbor)
                if link not in seen:
                    seen.add(link)
                    yield link

    def neighbors(self, tile: int) -> List[int]:
        """Tiles directly reachable from ``tile`` over one link."""
        coords = self.coords_nd(tile)
        result = set()
        for dim, size in enumerate(self.dimension_sizes()):
            for step in self._unit_steps(size):
                moved = list(coords)
                moved[dim] += step
                if self.wraps or 0 <= moved[dim] < size:
                    moved[dim] %= size
                    result.add(self.tile_from_nd(tuple(moved)))
        return sorted(result - {tile})

    #: True when dimensions have wraparound links (set by the routing mixins).
    wraps = False

    def _unit_steps(self, size: int) -> List[int]:
        """Offsets reachable in one hop along one dimension."""
        return [-1, 1] if size > 1 else []

    # -------------------------------------------------------------- properties
    @abstractmethod
    def bisection_links(self) -> int:
        """Number of directed links crossing a vertical cut through the middle."""

    @abstractmethod
    def link_length_tiles(self, src: int, dst: int) -> float:
        """Physical length of the ``src -> dst`` link, in tile pitches."""

    @property
    @abstractmethod
    def area_factor(self) -> float:
        """Router+wiring area relative to a plain 2D mesh (mesh == 1.0)."""

    def average_hop_distance(self, sample: int = 256) -> float:
        """Average hop count over a deterministic sample of tile pairs."""
        total = 0
        count = 0
        stride = max(1, self.num_tiles // max(1, int(sample ** 0.5)))
        for src in range(0, self.num_tiles, stride):
            for dst in range(0, self.num_tiles, stride):
                total += self.hop_distance(src, dst)
                count += 1
        return total / count if count else 0.0

    def diameter(self) -> int:
        """Maximum hop distance between any two tiles (computed per-dimension)."""
        return sum(
            max(len(self.next_hop_offsets(d, size)) for d in range(size))
            for size in self.dimension_sizes()
        )

    # --------------------------------------------------------------- identity
    def signature(self) -> Tuple:
        """Value identity of this topology: kind, grid shape and ruche factor."""
        return (self.kind, self.width, self.height, self.ruche_factor)

    def same_grid(self, other: "Topology") -> bool:
        """True when ``other`` describes the identical network."""
        return self.signature() == other.signature()

    def describe(self) -> str:
        """Short human-readable identity used in error messages."""
        kind, width, height, ruche = self.signature()
        suffix = f" (ruche={ruche})" if ruche is not None else ""
        return f"{kind} {width}x{height}{suffix}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.width}x{self.height})"


class _LineRouting:
    """Mesh routing in every dimension: unit hops, no wraparound."""

    wraps = False

    def next_hop_offsets(self, delta: int, size: int) -> List[int]:
        step = 1 if delta > 0 else -1
        return [step] * abs(delta)

    def _dimension_hops(self, delta: int, size: int) -> int:
        return abs(delta)

    def _line_links(self, size: int) -> int:
        return 2 * (size - 1)


class _RingRouting:
    """Torus routing in every dimension: the shortest direction around the
    ring, forward on ties."""

    wraps = True

    def next_hop_offsets(self, delta: int, size: int) -> List[int]:
        if size <= 1 or delta == 0:
            return []
        forward = delta % size
        backward = size - forward
        if forward <= backward:
            return [1] * forward
        return [-1] * backward

    def _dimension_hops(self, delta: int, size: int) -> int:
        if size <= 1 or delta == 0:
            return 0
        forward = delta % size
        return min(forward, size - forward)

    def _dimension_span(self, delta: int, size: int) -> int:
        return self._dimension_hops(delta, size)

    def _dimension_hops_batch(self, delta: np.ndarray, size: int) -> np.ndarray:
        return _ring_distance(delta, size)

    _dimension_span_batch = _dimension_hops_batch

    def _dimension_runs_batch(
        self, delta: np.ndarray, size: int, length: float
    ) -> List[Tuple[np.ndarray, np.ndarray, float]]:
        return [(_ring_distance(delta, size), _ring_direction(delta, size), length)]


class Mesh2D(_LineRouting, Topology):
    """Plain 2D mesh with nearest-neighbour links and no wraparound."""

    kind = "mesh"
    area_factor = 1.0
    physical_length_factor = 1.0
    # Dimension-ordered routing concentrates traffic on the central columns/rows.
    congestion_factor = 2.0

    def bisection_links(self) -> int:
        # Directed links crossing the vertical middle cut, both directions.
        return 2 * self.height

    def link_length_tiles(self, src: int, dst: int) -> float:
        return 1.0


class Torus2D(_RingRouting, Topology):
    """2D torus with wraparound links and shortest-direction dimension routing.

    The paper notes a 32-bit 2D torus is ~50% larger than a mesh but doubles the
    bisection bandwidth; the folded physical layout makes every link span two
    tile pitches.
    """

    kind = "torus"
    area_factor = 1.5
    physical_length_factor = 2.0
    congestion_factor = 1.25

    def bisection_links(self) -> int:
        # Wraparound doubles the number of links crossing the middle cut.
        return 4 * self.height

    def link_length_tiles(self, src: int, dst: int) -> float:
        # Folded torus layout: every link spans two tile pitches.
        return 2.0


class RucheTorus2D(Torus2D):
    """Torus augmented with ruche (express) channels of a configurable factor.

    A ruche factor ``R`` adds physical links that skip ``R - 1`` routers in each
    dimension.  Routing greedily uses express hops and finishes with unit hops.
    """

    kind = "torus_ruche"

    congestion_factor = 1.1

    def __init__(self, width: int, height: int, ruche_factor: int = 2) -> None:
        super().__init__(width, height)
        if ruche_factor < 2:
            raise ConfigurationError("ruche factor must be at least 2")
        self.ruche_factor = ruche_factor

    def _dimension_hops(self, delta: int, size: int) -> int:
        if size <= 1 or delta == 0:
            return 0
        forward = delta % size
        distance = min(forward, size - forward)
        return distance // self.ruche_factor + distance % self.ruche_factor

    def _dimension_span(self, delta: int, size: int) -> int:
        if size <= 1 or delta == 0:
            return 0
        forward = delta % size
        return min(forward, size - forward)

    def _dimension_hops_batch(self, delta: np.ndarray, size: int) -> np.ndarray:
        distance = _ring_distance(delta, size)
        return distance // self.ruche_factor + distance % self.ruche_factor

    def _dimension_span_batch(self, delta: np.ndarray, size: int) -> np.ndarray:
        return _ring_distance(delta, size)

    def _dimension_runs_batch(
        self, delta: np.ndarray, size: int, length: float
    ) -> List[Tuple[np.ndarray, np.ndarray, float]]:
        # Express hops first, then unit hops (next_hop_offsets order).  An
        # express link spans ruche_factor unit links (link_length_tiles).
        distance = _ring_distance(delta, size)
        step = _ring_direction(delta, size)
        factor = self.ruche_factor
        return [
            (distance // factor, step * factor, length * factor),
            (distance % factor, step, length),
        ]

    @property
    def area_factor(self) -> float:
        # The paper reports the ruche-torus NoC uses more than twice the area of
        # a regular torus (1.2% vs 0.2% of chip area in their configuration).
        return 1.5 * (1.0 + self.ruche_factor)

    def next_hop_offsets(self, delta: int, size: int) -> List[int]:
        if size <= 1 or delta == 0:
            return []
        forward = delta % size
        backward = size - forward
        distance, sign = (forward, 1) if forward <= backward else (backward, -1)
        hops: List[int] = []
        remaining = distance
        while remaining >= self.ruche_factor:
            hops.append(sign * self.ruche_factor)
            remaining -= self.ruche_factor
        hops.extend([sign] * remaining)
        return hops

    def _unit_steps(self, size: int) -> List[int]:
        steps = [-1, 1]
        if size > self.ruche_factor:
            steps.extend([-self.ruche_factor, self.ruche_factor])
        return steps

    def bisection_links(self) -> int:
        # Express channels crossing the cut add (R - 1) links per row/direction.
        return 4 * self.height + 4 * self.height * (self.ruche_factor - 1)

    def link_length_tiles(self, src: int, dst: int) -> float:
        sx, sy = self.coords(src)
        dx, dy = self.coords(dst)
        span_x = min(abs(dx - sx), self.width - abs(dx - sx))
        span_y = min(abs(dy - sy), self.height - abs(dy - sy))
        span = max(span_x, span_y, 1)
        return 2.0 * span


class Topology3D(Topology):
    """Base for stacked topologies addressed as ``tile = (z * height + y) * width + x``.

    Each of the ``depth`` silicon layers is a ``width x height`` grid;
    vertical links are through-silicon-via (TSV) pillars between vertically
    adjacent routers.  Routing is dimension-ordered X, then Y, then Z.
    Vertical hops cost a full router traversal (they go through the same
    switch) but only :attr:`via_length_tiles` of a tile pitch in wire length
    -- TSVs are far shorter than in-plane links.
    """

    #: Physical length of one vertical (TSV) hop, in tile pitches.
    via_length_tiles = 0.25

    def __init__(self, width: int, height: int, depth: int) -> None:
        super().__init__(width, height)
        if depth < 1:
            raise ConfigurationError("topology depth must be positive")
        self.depth = depth

    # -------------------------------------------------------------- addressing
    @property
    def num_tiles(self) -> int:
        return self.width * self.height * self.depth

    def coords(self, tile: int) -> Tuple[int, int, int]:
        """Return ``(x, y, z)`` coordinates of a tile ID."""
        if tile < 0 or tile >= self.num_tiles:
            raise ConfigurationError(f"tile {tile} out of range")
        layer = self.width * self.height
        z, rest = divmod(tile, layer)
        return rest % self.width, rest // self.width, z

    def tile_at(self, x: int, y: int, z: int = 0) -> int:
        """Return the tile ID at coordinates ``(x, y, z)``."""
        if not (0 <= x < self.width and 0 <= y < self.height and 0 <= z < self.depth):
            raise ConfigurationError(f"coordinates ({x}, {y}, {z}) out of range")
        return (z * self.height + y) * self.width + x

    def dimension_sizes(self) -> Tuple[int, ...]:
        return (self.width, self.height, self.depth)

    # ----------------------------------------------------------------- routing
    def route(self, src: int, dst: int) -> List[int]:
        """Dimension-ordered (X, then Y, then Z) route, inclusive."""
        return self.route_dims(src, dst, (0, 1, 2))

    def hop_distance(self, src: int, dst: int) -> int:
        src_c = self.coords(src)
        dst_c = self.coords(dst)
        return sum(
            self._dimension_hops(dst_c[dim] - src_c[dim], size)
            for dim, size in enumerate(self.dimension_sizes())
        )

    def route_span_tiles(self, src: int, dst: int) -> float:
        src_c = self.coords(src)
        dst_c = self.coords(dst)
        horizontal = sum(
            self._dimension_span(dst_c[dim] - src_c[dim], size)
            for dim, size in ((0, self.width), (1, self.height))
        )
        vertical = self._dimension_span(dst_c[2] - src_c[2], self.depth)
        return horizontal * self.physical_length_factor + vertical * self.via_length_tiles

    def _coords_batch(self, tiles: np.ndarray) -> Tuple[np.ndarray, ...]:
        layer = self.width * self.height
        rest = tiles % layer
        return rest % self.width, rest // self.width, tiles // layer

    def _dimension_link_lengths(self) -> Tuple[float, ...]:
        plane = self.physical_length_factor
        return (plane, plane, self.via_length_tiles)

    def route_span_batch(self, srcs, dsts) -> np.ndarray:
        (dx, width), (dy, height), (dz, depth) = self._deltas_batch(srcs, dsts)
        horizontal = self._dimension_span_batch(dx, width) + self._dimension_span_batch(
            dy, height
        )
        vertical = self._dimension_span_batch(dz, depth)
        return horizontal * self.physical_length_factor + vertical * self.via_length_tiles

    # -------------------------------------------------------------- properties
    def bisection_links(self) -> int:
        # The vertical middle cut through X is crossed once per (row, layer)
        # pair per direction; wraparound (torus) doubles it.
        per_row = 4 if self.wraps else 2
        return per_row * self.height * self.depth

    def link_length_tiles(self, src: int, dst: int) -> float:
        if self.coords(src)[2] != self.coords(dst)[2]:
            return self.via_length_tiles
        return self.physical_length_factor

    # --------------------------------------------------------------- identity
    def signature(self) -> Tuple:
        return (self.kind, self.width, self.height, self.depth, self.ruche_factor)

    def describe(self) -> str:
        return f"{self.kind} {self.width}x{self.height}x{self.depth}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.width}x{self.height}x{self.depth})"


class Mesh3D(_LineRouting, Topology3D):
    """Stacked 3D mesh: nearest-neighbour links, no wraparound in any dimension."""

    kind = "mesh3d"
    physical_length_factor = 1.0
    # One extra router port pair for the vertical dimension.
    area_factor = 1.2
    congestion_factor = 2.0


class Torus3D(_RingRouting, Topology3D):
    """Stacked 3D torus: shortest-direction wraparound in all three dimensions.

    In-plane links follow the folded-torus layout (two tile pitches each);
    vertical wrap links reuse the TSV pillars, so a Z wrap costs the same via
    length as a unit Z hop.
    """

    kind = "torus3d"
    physical_length_factor = 2.0
    area_factor = 1.7
    congestion_factor = 1.25


_TOPOLOGY_KINDS = {
    "mesh": Mesh2D,
    "torus": Torus2D,
    "torus_ruche": RucheTorus2D,
    "mesh3d": Mesh3D,
    "torus3d": Torus3D,
}

#: Kinds that accept (and route over) a depth dimension.
TOPOLOGY_3D_KINDS = ("mesh3d", "torus3d")


def make_topology(
    kind: str, width: int, height: int, ruche_factor: int = 2, depth: int = 1
) -> Topology:
    """Factory for topologies by name (``mesh``, ``torus``, ``torus_ruche``,
    ``mesh3d``, ``torus3d``); ``depth`` only applies to the 3D kinds."""
    key = kind.strip().lower()
    if key not in _TOPOLOGY_KINDS:
        raise ConfigurationError(
            f"unknown NoC kind {kind!r}; expected one of {sorted(_TOPOLOGY_KINDS)}"
        )
    if key in TOPOLOGY_3D_KINDS:
        return _TOPOLOGY_KINDS[key](width, height, depth)
    if depth != 1:
        raise ConfigurationError(
            f"NoC kind {kind!r} is two-dimensional; depth={depth} requires one "
            f"of {TOPOLOGY_3D_KINDS}"
        )
    if key == "torus_ruche":
        return RucheTorus2D(width, height, ruche_factor=ruche_factor)
    return _TOPOLOGY_KINDS[key](width, height)


@lru_cache(maxsize=64)
def cached_topology(
    kind: str, width: int, height: int, ruche_factor: int = 2, depth: int = 1
) -> Topology:
    """Memoized topology construction (topologies are immutable)."""
    return make_topology(kind, width, height, ruche_factor, depth)
