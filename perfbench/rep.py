"""One repetition of one workload, in a fresh process.

A fresh interpreter per repetition is what gives every repetition cold
in-process caches (graph memo, topologies and their route caches), the state
users start from on every invocation.  ``run.py`` launches this script and
reads the JSON object it prints as its last line::

    python3 perfbench/rep.py --workload fig5_cycle --seed 1 --workdir DIR \
        [--size tiny] [--trace] [--mode run|setup|inproc]

``--mode setup`` stops once the first spec could run (set-up probes);
``--mode inproc`` executes the workload's specs serially in this process and
reports their digests (the reference the fleet's payloads must equal).
``ready`` in the output is ``time.monotonic()`` at the moment the first spec
could run; the parent compares it with its own launch time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from workloads import (  # noqa: E402 - after the sys.path set-up
    FIG6_SHARDS,
    SIZES,
    WORKLOADS,
    build_specs,
    serial_payloads,
    sim_stats,
    spec_digests,
    spec_failures,
    workload_digest,
)

#: Workloads that keep a result cache; fleet_sweep's broker has its own.
CACHED = ("fig5_cycle", "fig7_analytic")


def peak_rss_mb() -> float:
    """Peak resident set of this process and every child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def outcome(payloads, attempted: int, failed: int, errors) -> dict:
    """Digests, simulated statistics and failures of one repetition."""
    present = [p for p in payloads if p is not None]
    digests = spec_digests(present)
    return {
        "attempted": attempted,
        "failed": failed + spec_failures(present),
        "errors": errors[:5],
        "digests": digests,
        "digest": workload_digest(digests),
        "sim": sim_stats(present),
    }


def run_inprocess(args, workdir: Path) -> dict:
    from repro.runtime import ExperimentRunner
    from repro.runtime.cache import ResultCache
    from repro.runtime.serialize import result_to_payload

    specs = build_specs(args.workload, args.seed, args.size)
    cache = ResultCache(workdir / "cache") if args.workload in CACHED else None
    shards = FIG6_SHARDS if args.workload == "fig6_sharded" else None
    runner = ExperimentRunner(cache=cache, shards=shards)
    tracer = telemetry = None
    if args.trace:
        from layers import LayerTracer
        from repro.telemetry import configure

        telemetry = configure(enabled=True)
        tracer = LayerTracer().install()
    ready = time.monotonic()
    if args.mode == "setup":
        return {"ready": ready}
    errors = []
    start = time.perf_counter()
    try:
        results = runner.run_batch(specs)
    except Exception as exc:  # a failing spec fails the repetition, reported
        results = [None] * len(specs)
        errors.append(f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    runner.close()
    if tracer is not None:
        tracer.uninstall()
    payloads = [None if r is None else result_to_payload(r) for r in results]
    report = outcome(payloads, len(specs), payloads.count(None), errors)
    report.update(ready=ready, wall_s=wall)
    if tracer is not None:
        layers = dict(tracer.seconds)
        layers.update(traced_extras(tracer, telemetry, wall))
        if args.workload == "fig6_sharded":
            layers.update(shard_comparison(specs, tracer))
        report["layers"] = layers
    return report


def traced_extras(tracer, telemetry, wall: float) -> dict:
    from layers import telemetry_layers

    extras = telemetry_layers(telemetry.snapshot())
    named = sum(tracer.seconds.values())
    events = extras["engine.cycle.events"]
    extras.update(
        {
            "graph.builds": tracer.calls.get("graph.generate", 0),
            "engine.cycle.us_per_event": (
                1e6 * tracer.seconds["engine.cycle_s"] / events if events else 0.0
            ),
            "runtime.unattributed_s": wall - named,
            "trace.coverage_frac": named / wall,
        }
    )
    return extras


def shard_comparison(specs, tracer) -> dict:
    """Sharded minus serial execution of the specs that really sharded."""
    import dataclasses

    from layers import LayerTracer
    from repro.core.shard_exec import shard_fallback_reason
    from repro.runtime.spec import build_machine, execute_spec, reset_graph_memo

    sharded = [
        dataclasses.replace(spec, shards=FIG6_SHARDS)
        for spec in specs
        if min(FIG6_SHARDS, spec.config.num_tiles) > 1
    ]
    reset_graph_memo()
    # The same wrappers as the sharded pass, so both sides pay their cost.
    with LayerTracer():
        start = time.perf_counter()
        for spec in sharded:
            execute_spec(dataclasses.replace(spec, shards=1))
        serial = time.perf_counter() - start
    fallback = sum(1 for spec in sharded if shard_fallback_reason(build_machine(spec)))
    return {
        "shard.overhead_s": tracer.inclusive.get("shard.execute", 0.0) - serial,
        "shard.fallback_specs": fallback,
    }


def run_fleet(args, workdir: Path) -> dict:
    from fleet import Fleet, fleet_layers

    specs = build_specs(args.workload, args.seed, args.size)
    pairs = [(spec.key(), spec.canonical()) for spec in specs]
    fleet = Fleet(workdir, dict(os.environ, PYTHONPATH=SRC), trace=args.trace)
    try:
        fleet.start()
        ready = time.monotonic()
        if args.mode == "setup":
            return {"ready": ready}
        start = time.perf_counter()
        swept = fleet.sweep(pairs)
        wall = time.perf_counter() - start
        snapshot = fleet.metrics() if args.trace else {}
        write_bytes = fleet.broker_write_bytes() if args.trace else 0
        fleet.shutdown()
    finally:
        fleet.close()
    payloads = [swept["payloads"].get(key) for key, _ in pairs]
    errors = [f"{key[:12]}: {reason}" for key, reason in swept["failed"].items()]
    report = outcome(payloads, len(specs), payloads.count(None), errors)
    report.update(ready=ready, wall_s=wall)
    if args.trace:
        submit_ms = [1000.0 * s for s in swept["submit_s"]]
        fetch_ms = [1000.0 * s for s in swept["fetch_s"]]
        tail = max(1, len(submit_ms) // 10)
        layers = fleet_layers(snapshot)
        named = (
            sum(swept["submit_s"]) + sum(swept["fetch_s"])
            + layers["worker.lease_s"] + layers["worker.execute_s"] + layers["worker.upload_s"]
        )
        layers.update(
            {
                "broker.submit_ms.p50": statistics.median(submit_ms),
                "broker.submit_ms.p95": statistics.quantiles(submit_ms, n=20)[-1]
                if len(submit_ms) > 1 else submit_ms[0],
                "broker.submit_ms.last_over_first": (
                    statistics.median(submit_ms[-tail:]) / statistics.median(submit_ms[:tail])
                ),
                "broker.fetch_ms.p50": statistics.median(fetch_ms),
                "broker.write_bytes": write_bytes,
                "worker.exit_s": fleet.worker_exit_s,
                "runtime.unattributed_s": wall - named,
                "trace.coverage_frac": named / wall,
            }
        )
        report["layers"] = layers
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=SIZES)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--mode", default="run", choices=("run", "setup", "inproc"))
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "inproc":
        report = {"digests": spec_digests(serial_payloads(args.workload, args.seed, args.size))}
    elif args.workload == "fleet_sweep":
        report = run_fleet(args, workdir)
    else:
        report = run_inprocess(args, workdir)
    report["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
