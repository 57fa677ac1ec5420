"""Sharded execution: wall-clock scaling and the chunked-generator budget.

Two honest measurements behind ``--shards`` (see docs/SHARDING.md):

* ``test_sharded_wall_clock``: one fig6-scale analytic run executed at
  1/2/4 shards on the local process transport, in ``ROUNDS`` interleaved
  rounds (1, 2, 4, 1, 2, 4, ...) so that no shard count absorbs the process
  cold start alone.  The median wall-clock per shard count and the
  *detected CPU core count* are recorded side by side -- sharding can only
  beat serial when the host actually has spare cores, so the report carries
  the denominator instead of asserting a speedup a single-core CI box cannot
  produce.  What *is* asserted is the invariant that makes the feature safe
  to use at all: payloads byte-identical at every shard count and round.

* ``test_chunked_rmat_peak_memory``: the chunked RMAT generator must build
  the same graph as the serial generator while holding a fraction of its
  peak memory -- the "exceeds a single process's budget" demonstration,
  measured with tracemalloc rather than claimed.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
import tracemalloc

from conftest import BENCH_SCALE, record
from repro.core.config import MachineConfig
from repro.graph.generators import rmat_graph, rmat_graph_chunked
from repro.runtime import RunSpec, execute_to_payload, reset_graph_memo

SHARD_COUNTS = (1, 2, 4)
#: Interleaved repeats of every shard count; medians are reported.
ROUNDS = 3


def _spec(shards: int) -> RunSpec:
    spec = RunSpec(
        app="bfs",
        dataset="rmat16",
        config=MachineConfig(width=8, height=8, engine="analytic"),
        scale=BENCH_SCALE,
        seed=0,
    )
    return dataclasses.replace(spec, shards=shards) if shards > 1 else spec


def test_sharded_wall_clock(benchmark):
    """Median wall-clock at 1/2/4 shards plus the byte-identity invariant."""
    os.environ["DALOREX_SHARD_BACKEND"] = "local"
    try:
        seconds = {shards: [] for shards in SHARD_COUNTS}
        payloads = []

        def run():
            for _round in range(ROUNDS):
                for shards in SHARD_COUNTS:
                    reset_graph_memo()
                    started = time.perf_counter()
                    _key, payload = execute_to_payload(_spec(shards))
                    seconds[shards].append(time.perf_counter() - started)
                    # Spec keys differ (shards hashes into the key) but the
                    # result payload must not.
                    payloads.append((shards, payload))
            return payloads

        benchmark.pedantic(run, rounds=1, iterations=1)
        for shards, payload in payloads[1:]:
            assert payload == payloads[0][1], (
                f"{shards}-shard payload diverged from serial"
            )
        medians = {shards: statistics.median(seconds[shards]) for shards in SHARD_COUNTS}
        cores = len(os.sched_getaffinity(0))
        record(benchmark, {
            "cpu_cores_detected": cores,
            "rounds": ROUNDS,
            "seconds_by_shards": {
                str(shards): round(medians[shards], 3) for shards in SHARD_COUNTS
            },
            "samples_by_shards": {
                str(shards): [round(value, 3) for value in seconds[shards]]
                for shards in SHARD_COUNTS
            },
            "speedup_4_shards": round(medians[1] / medians[4], 2),
            "byte_identical": True,
        })
    finally:
        os.environ.pop("DALOREX_SHARD_BACKEND", None)


def test_chunked_rmat_peak_memory(benchmark):
    """Chunked generation: same graph, a fraction of the peak footprint."""
    kwargs = dict(scale=17, edge_factor=10, seed=0)
    peaks = {}

    def measure(label, build):
        tracemalloc.start()
        graph = build()
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[label] = peak
        return graph

    def run():
        serial = measure("serial", lambda: rmat_graph(**kwargs))
        chunked = measure(
            "chunked",
            lambda: rmat_graph_chunked(chunk_edges=1 << 17, **kwargs),
        )
        return serial, chunked

    serial, chunked = benchmark.pedantic(run, rounds=1, iterations=1)
    assert chunked == serial
    assert chunked.values.tobytes() == serial.values.tobytes()
    # The chunked path must hold materially less than the serial edge-list
    # peak; 60% is far above what it actually needs, so this stays stable.
    assert peaks["chunked"] < 0.6 * peaks["serial"], peaks
    record(benchmark, {
        "serial_peak_mb": round(peaks["serial"] / 1e6, 1),
        "chunked_peak_mb": round(peaks["chunked"] / 1e6, 1),
        "reduction": round(peaks["serial"] / peaks["chunked"], 2),
    })
