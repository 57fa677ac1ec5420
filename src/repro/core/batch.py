"""Batch execution toolkit: numpy vectorization that is bit-equal to the loops.

The analytical engine's hot path executes task invocations one at a time
through :class:`~repro.core.context.TaskContext`.  Because the worklist is a
FIFO and every kernel task emits invocations of exactly one downstream task,
the worklist always drains in *runs* of same-task invocations -- and a run can
be executed as one numpy batch, provided the batch reproduces the sequential
semantics exactly:

* **Integer accounting** (instructions, reads, writes, edges, flits) is
  order-free: vector sums and ``np.add.at`` scatters are exact.
* **Float accumulators** (memory stalls, cache-hit fractions, flit
  millimeters) are order-*sensitive*: IEEE addition does not associate.  The
  helpers here reproduce the exact left-to-right folds the scalar loops
  perform -- ``np.add.accumulate`` is specified as an in-order accumulation,
  and ``np.add.at`` / ``np.minimum.at`` apply duplicate indices in element
  order, so both are bit-identical to the loops they replace.
* **Conditional relaxations** (the T3 ``if new < current`` pattern) depend on
  the order of intra-batch duplicates; :func:`relax_min` replays that order.

The :class:`Segment` / :class:`BatchResult` containers are the contract
between the engine (which owns accounting and message traffic) and the kernel
batch handlers (which own array semantics and emissions).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


class BatchFallback(Exception):
    """Raised by a batch handler that cannot vectorize one segment exactly.

    The engine catches it and re-executes the segment through the scalar
    per-invocation path, which is always exact.
    """


# --------------------------------------------------------------- float folds
def sequential_sum(initial: float, terms: np.ndarray) -> float:
    """Left-to-right IEEE fold: ``((initial + t0) + t1) + ...``.

    ``np.add.accumulate`` performs an in-order accumulation, so the result is
    bit-identical to the scalar ``+=`` loop it replaces -- unlike ``np.sum``,
    which is free to use pairwise summation.
    """
    terms = np.asarray(terms, dtype=np.float64)
    if terms.size == 0:
        return float(initial)
    chain = np.concatenate((np.array([initial], dtype=np.float64), terms))
    return float(np.add.accumulate(chain)[-1])


def repeated_add_prefix(step: float, count: int) -> np.ndarray:
    """``prefix[k]`` = the value of ``k`` repeated additions of ``step`` to 0.0.

    The scalar memory model accumulates its per-access stall (and the
    fractional cache-hit/miss charges) by repeated addition, which is *not*
    ``k * step`` in IEEE arithmetic.  Indexing this table by an access count
    reproduces the repeated-addition value exactly.
    """
    prefix = np.empty(count + 1, dtype=np.float64)
    prefix[0] = 0.0
    if count:
        np.add.accumulate(np.full(count, step, dtype=np.float64), out=prefix[1:])
    return prefix


# ----------------------------------------------------------------- containers
class Segment:
    """One run of same-task invocations, in worklist order, as columns."""

    __slots__ = ("task", "tiles", "params", "gens", "remote", "n")

    def __init__(
        self,
        task,
        tiles: np.ndarray,
        params: Tuple[np.ndarray, ...],
        gens: np.ndarray,
        remote: np.ndarray,
    ) -> None:
        self.task = task
        self.tiles = tiles
        self.params = params
        self.gens = gens
        self.remote = remote
        self.n = len(tiles)

    @classmethod
    def fresh(cls, task, tiles: np.ndarray, params: Tuple[np.ndarray, ...]) -> "Segment":
        """Seed or refill invocations: generation 0, none remote."""
        n = len(tiles)
        return cls(task, tiles, params, np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool))

    def items(self):
        """``(tile, params)`` per invocation, as Python scalars, for the
        per-invocation paths (the scalar engine and the cycle engine)."""
        return zip(self.tiles.tolist(), zip(*(column.tolist() for column in self.params)))


class SeedColumns:
    """Invocations of one task as int64 parameter columns.

    The form kernels hand work to the engines in (``initial_tasks``,
    ``next_epoch`` and ``refill``): invocation ``i`` is
    ``task(params[0][i], params[1][i], ...)``, in seeding order.  An empty
    set of columns is falsy, so "no more work" reads naturally.
    """

    __slots__ = ("task", "params")

    def __init__(self, task: str, *params) -> None:
        self.task = task
        self.params = tuple(np.asarray(column, dtype=np.int64) for column in params)

    def __len__(self) -> int:
        return len(self.params[0]) if self.params else 0


class BatchResult:
    """Per-item accounting plus emissions returned by a kernel batch handler.

    ``reads`` / ``writes`` count scratchpad accesses per item; ``extra`` is
    every instruction beyond the per-access charge (compute instructions plus
    the per-invocation flit-write charge); ``edges`` counts processed edges.
    ``emits`` is ``(out_task, dests, params_columns, counts_per_item)`` with
    messages laid out in invocation order, or ``None``.
    """

    __slots__ = ("reads", "writes", "extra", "edges", "emits")

    def __init__(self, reads, writes, extra, edges=None, emits=None) -> None:
        self.reads = reads
        self.writes = writes
        self.extra = extra
        self.edges = edges
        self.emits = emits


def segments_from_items(items: Sequence[Tuple]) -> List[Segment]:
    """Group ``(tile, task, params, gen, remote)`` items into same-task runs.

    Consecutive items sharing a task become one :class:`Segment`; run
    boundaries are semantically invisible (every batch replays sequential
    semantics), so the grouping only has to preserve item order.
    """
    segments: List[Segment] = []
    start = 0
    total = len(items)
    while start < total:
        task = items[start][1]
        end = start + 1
        while end < total and items[end][1] is task:
            end += 1
        run = items[start:end]
        tiles = np.fromiter((item[0] for item in run), dtype=np.int64, count=len(run))
        params = tuple(
            np.asarray([item[2][position] for item in run])
            for position in range(task.num_params)
        )
        gens = np.fromiter((item[3] for item in run), dtype=np.int64, count=len(run))
        remote = np.fromiter((item[4] for item in run), dtype=bool, count=len(run))
        segments.append(Segment(task, tiles, params, gens, remote))
        start = end
    return segments


# -------------------------------------------------------------- range helpers
def concat_ranges(begins: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``[begins[i], ends[i])`` index ranges in item order.

    Returns the flat index array plus the per-item counts, matching the edge
    order of the scalar ``for edge in range(begin, end)`` loops.
    """
    begins = np.asarray(begins, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    counts = ends - begins
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    starts = np.repeat(begins, counts)
    bases = np.repeat(np.cumsum(counts) - counts, counts)
    flat = starts + (np.arange(total, dtype=np.int64) - bases)
    return flat, counts


def split_ranges(
    space_placement, begins: np.ndarray, ends: np.ndarray, max_range: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Replay ``TaskContext.invoke_range`` splitting for a batch of ranges.

    For every item the range is split at data-owner boundaries and then into
    ``max_range`` chunks, in the exact order the scalar path emits them.
    Returns ``(dest_tiles, piece_begins, piece_ends, pieces_per_item)``.

    The split is array work: the owners of every index in the ranges mark
    the runs (a run ends where the owner or the item changes), and each
    run is cut into ``max_range`` chunks with ``np.repeat``/``cumsum``.
    Empty ranges emit nothing; a non-empty range reaching outside the space
    raises the scalar path's :class:`~repro.errors.PlacementError`.
    """
    begins = np.asarray(begins, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    nonempty = begins < ends
    length = space_placement.length
    bad_begin = nonempty & ((begins < 0) | (begins >= length))
    bad = bad_begin | (nonempty & (ends > length))
    if bad.any():
        # The scalar walk checks each item's begin, then its last index.
        item = int(np.argmax(bad))
        space_placement._check_index(
            int(begins[item]) if bad_begin[item] else int(ends[item]) - 1
        )
    flat, counts = concat_ranges(begins, np.where(nonempty, ends, begins))
    total = len(flat)
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, np.zeros(len(begins), dtype=np.int64)
    owners = space_placement.owners_of(flat)
    new_run = np.empty(total, dtype=bool)
    new_run[0] = True
    np.not_equal(owners[1:], owners[:-1], out=new_run[1:])
    item_ends = np.cumsum(counts)
    new_run[(item_ends - counts)[nonempty]] = True
    run_start = np.flatnonzero(new_run)
    run_len = np.diff(np.append(run_start, total))
    chunks = (run_len + (max_range - 1)) // max_range
    chunk_run = np.repeat(np.arange(len(run_start)), chunks)
    chunk_rank = np.arange(len(chunk_run), dtype=np.int64) - np.repeat(
        np.cumsum(chunks) - chunks, chunks
    )
    first = flat[run_start]
    piece_begin = first[chunk_run] + chunk_rank * max_range
    piece_end = np.minimum(piece_begin + max_range, (first + run_len)[chunk_run])
    run_item = np.searchsorted(item_ends, run_start, side="right")
    pieces = np.bincount(run_item[chunk_run], minlength=len(begins)).astype(np.int64)
    return owners[run_start][chunk_run], piece_begin, piece_end, pieces


# ------------------------------------------------------------------ relaxation
def relax_min(
    values: np.ndarray, vertices: np.ndarray, news: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact sequential min-relaxation of one batch, applied to ``values``.

    Reproduces, bit for bit, the loop::

        for i in range(n):
            if news[i] < values[vertices[i]]:
                values[vertices[i]] = news[i]

    Returns ``(improved, first_improving)`` boolean arrays in the original
    item order: ``improved[i]`` is the loop's comparison outcome at step ``i``
    (against the value *including* earlier intra-batch updates), and
    ``first_improving[i]`` marks the item that made its vertex's first
    improvement of the batch (the item whose ``mark_frontier`` can observe an
    unset flag).
    """
    n = len(vertices)
    improved = np.zeros(n, dtype=bool)
    first = np.zeros(n, dtype=bool)
    if n == 0:
        return improved, first
    order = np.argsort(vertices, kind="stable")
    v_sorted = vertices[order]
    new_sorted = news[order]
    group_start = np.ones(n, dtype=bool)
    group_start[1:] = v_sorted[1:] != v_sorted[:-1]
    imp_sorted = new_sorted < values[v_sorted]
    starts = np.flatnonzero(group_start)
    sizes = np.diff(np.append(starts, n))
    multi = sizes > 1
    if multi.any():
        # Duplicate vertices: each later item compares against the running
        # minimum of its group's earlier improvements, exactly as the loop.
        for start, size in zip(starts[multi].tolist(), sizes[multi].tolist()):
            current = values[v_sorted[start]]
            for j in range(start, start + size):
                if new_sorted[j] < current:
                    imp_sorted[j] = True
                    current = new_sorted[j]
                else:
                    imp_sorted[j] = False
    # np.minimum.at applies duplicates in element order; the final value per
    # vertex is the minimum of its improving news, identical to the loop.
    np.minimum.at(values, v_sorted[imp_sorted], new_sorted[imp_sorted])
    improved[order] = imp_sorted
    # First improving item of each group: improving with no earlier improving
    # item in the same group.
    imp_int = imp_sorted.astype(np.int64)
    cum = np.cumsum(imp_int)
    group_base = np.repeat(cum[starts] - imp_int[starts], sizes)
    first[order] = imp_sorted & ((cum - imp_int - group_base) == 0)
    return improved, first


def first_occurrences(indices: np.ndarray) -> np.ndarray:
    """Boolean mask of the first occurrence of every value, in item order."""
    n = len(indices)
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    order = np.argsort(indices, kind="stable")
    sorted_vals = indices[order]
    is_first = np.ones(n, dtype=bool)
    is_first[1:] = sorted_vals[1:] != sorted_vals[:-1]
    mask[order] = is_first
    return mask
