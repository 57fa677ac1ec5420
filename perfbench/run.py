"""Repository benchmark: figure regeneration and a fleet sweep, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig5_cycle --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload all`` measures every workload untraced, then every workload
traced, in one command.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fig5_cycle`` -- the Fig. 5 ladder on the cycle engine at 16x16;
* ``fig7_analytic`` -- Fig. 7 strong scaling, 16^2..128^2 tiles, analytic;
* ``fig6_sharded`` -- Fig. 6 BFS strong scaling with two shards per spec;
* ``fleet_sweep`` -- a broker and a worker subprocess fed one spec per
  ``submit`` op from a single client connection.

Each repetition runs in a fresh process (``rep.py``), so every repetition
starts with cold in-process caches, as a user's invocation does.  The run
first takes a few set-up probes, then repeats the workload until
``--seconds`` are spent, and reports medians:

* ``--trace 0``: ``wall_s`` (first spec handed over -> last result in
  hand), ``setup_s`` (process start -> first spec can run) and
  ``peak_rss_mb`` (largest resident set over the workload's processes);
* ``--trace 1``: untraced and traced repetitions alternate; the traced ones
  give the per-layer split (``perfbench/layers.py``), and the pair gives
  ``trace.overhead_frac``.

Outputs are checked on every repetition: each spec must verify against its
sequential reference, every repetition must produce the same payload bytes,
those bytes must match ``perfbench/reference.json`` for the seeds recorded
there, and fleet payloads must equal in-process payloads of the same specs.
Every mismatch counts as a failed spec.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))

from workloads import SIZES, WORKLOADS  # noqa: E402 - after the sys.path set-up

#: Set-up probes per run, on top of the set-up of every repetition.
SETUP_PROBES = 3
#: Every run ends well inside the 180 s a run may take.
HARD_LIMIT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Per-layer metrics and their units, in report order.
PER_LAYER = {
    "graph.build_s": "s",
    "graph.builds": "count",
    "machine.build_s": "s",
    "engine.analytic_s": "s",
    "engine.analytic.scalar_epoch_s": "s",
    "engine.analytic.batched_epoch_s": "s",
    "engine.cycle_s": "s",
    "engine.cycle.events": "count",
    "engine.cycle.us_per_event": "us",
    "energy.attach_s": "s",
    "verify.reference_s": "s",
    "runtime.serialize_s": "s",
    "runtime.deserialize_s": "s",
    "cache.store_s": "s",
    "cache.load_s": "s",
    "runtime.unattributed_s": "s",
    "shard.execute_s": "s",
    "shard.overhead_s": "s",
    "shard.fallback_specs": "count",
    "shard.exchange.messages": "count",
    "shard.exchange.bytes": "bytes",
    "shard.exchange.barrier_wait_s": "s",
    "broker.submit_ms.p50": "ms",
    "broker.submit_ms.p95": "ms",
    "broker.submit_ms.last_over_first": "ratio",
    "broker.fetch_ms.p50": "ms",
    "broker.op_ms.lease": "ms",
    "broker.op_ms.result": "ms",
    "broker.ingest_s": "s",
    "broker.lease_hit_ratio": "ratio",
    "broker.write_bytes": "bytes",
    "worker.lease_s": "s",
    "worker.execute_s": "s",
    "worker.upload_s": "s",
    "worker.exit_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "sim.cycles": "cycles",
    "sim.tasks": "count",
    "sim.flit_hops": "count",
    "payload_digest": "sha256-52bit",
    "calibration.unit_s": "s",
}

#: Coverage below this flags a workload whose wall time the layers miss.
MIN_COVERAGE = 0.95


class Harness:
    """Launches repetition processes and always stops them again."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("DALOREX_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["TMPDIR"] = str(workdir / "tmp")
        self.proc: Optional[subprocess.Popen] = None
        self.count = 0

    def rep(self, args, mode: str = "run", trace: bool = False) -> dict:
        """Run one repetition process; returns its report plus ``setup_s``."""
        self.count += 1
        command = [
            sys.executable, str(HERE / "rep.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--mode", mode,
            "--workdir", str(self.workdir / f"rep{self.count}"),
        ] + (["--trace"] if trace else [])
        launched = time.monotonic()
        # A session of its own, so stop() reaches every process it starts
        # (broker, worker, shard children) with one signal.
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self.env, cwd=str(ROOT), text=True, start_new_session=True,
        )
        try:
            out, err = self.proc.communicate(timeout=max(1.0, self.deadline - launched))
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"{args.workload} repetition overran the run's time limit")
        finally:
            self.stop()
        lines = out.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            raise RuntimeError(f"{args.workload} repetition failed:\n{err[-2000:]}")
        report = json.loads(lines[-1])
        if "ready" in report:
            report["setup_s"] = report["ready"] - launched
        report["duration_s"] = time.monotonic() - launched
        shutil.rmtree(self.workdir / f"rep{self.count}", ignore_errors=True)
        return report

    def stop(self) -> None:
        """Kill the current repetition's process group and wait it out."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group has exited already
        proc.wait()
        for _ in range(200):  # processes reparented away still hold the group
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.025)


def stored_digest(args) -> Optional[str]:
    """The recorded reference digest for this workload, size and seed, if any."""
    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    return data.get("digests", {}).get(args.workload, {}).get(args.size, {}).get(str(args.seed))


def _calibration_unit() -> float:
    """The bench gate's calibration unit (``scripts/check_bench_regression.py``)."""
    sys.path.insert(0, str(ROOT / "scripts"))
    from check_bench_regression import calibrate

    return calibrate()


def measure(args, harness: Harness, deadline: float) -> Dict:
    """Probes and repetitions until ``deadline``; returns the raw reports."""
    probes = [harness.rep(args, mode="setup") for _ in range(SETUP_PROBES)]
    plan = [False, True] if args.trace else [False]
    reps: List[dict] = []
    durations: List[float] = []
    while True:
        trace = plan[len(reps) % len(plan)]
        reps.append(harness.rep(args, trace=trace))
        durations.append(reps[-1]["duration_s"])
        if len(reps) >= len(plan) and (
            time.monotonic() + statistics.median(durations) > deadline
        ):
            return {"probes": probes, "reps": reps}


def check(reps: List[dict], expected: Optional[str], reference: Optional[List[str]]) -> Dict:
    """Count failed specs: unverified, missing, or with unexpected bytes.

    ``expected`` is the recorded digest of the whole repetition and
    ``reference`` the per-spec digests of a serial in-process run; either
    may be absent.
    """
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    errors = [error for rep in reps for error in rep["errors"]]
    first = reps[0]["digests"]
    for rep in reps:
        digests = rep["digests"]
        if len(digests) != rep["attempted"]:
            continue  # missing payloads were already counted as failed
        mismatched = sum(1 for a, b in zip(digests, first) if a != b)
        if reference is not None:
            mismatched = max(mismatched, sum(1 for a, b in zip(digests, reference) if a != b))
        if expected is not None and rep["digest"] != expected:
            mismatched = rep["attempted"]
        if mismatched:
            errors.append(f"{mismatched} payload(s) differ from the reference bytes")
        failed += mismatched
    return {"attempted": attempted, "failed": failed, "errors": errors}


def summarize(args, raw: Dict, calibration: float) -> Dict[str, float]:
    reps = raw["reps"]
    plain = [rep for rep in reps if "layers" not in rep]
    traced = [rep for rep in reps if "layers" in rep]
    if not args.trace:
        setups = [rep["setup_s"] for rep in raw["probes"] + plain]
        return {
            "wall_s": statistics.median(rep["wall_s"] for rep in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
        }
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in PER_LAYER:
        values = [rep["layers"][name] for rep in traced if name in rep["layers"]]
        if values:
            metrics[name] = statistics.median(values)
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    untraced_wall = statistics.median(rep["wall_s"] for rep in plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics.update(traced[0]["sim"])
    metrics["payload_digest"] = int(traced[0]["digest"][:13], 16)
    metrics["calibration.unit_s"] = calibration
    return metrics


def report_lines(
    args, metrics: Dict[str, float], verdict: Dict, calibration: float, samples: List[float]
) -> List[str]:
    """Human-readable report: every metric by name with its unit."""
    units = PER_LAYER if args.trace else END_TO_END
    lines = [f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}"]
    for name, value in metrics.items():
        lines.append(f"  {name:36s} {value:>16.6g} {units[name]}")
    walls = " ".join(f"{w:.4g}" for w in samples)
    lines.append(f"  {'samples.wall_s':36s} {len(samples):>16d} reps: {walls}")
    if not args.trace:
        # Raw seconds normalise across hosts by this unit, as the bench gate does.
        lines.append(f"  {'calibration.unit_s':36s} {calibration:>16.6g} s")
    frac = verdict["failed"] / verdict["attempted"]
    lines.append(f"  {'failed_frac':36s} {frac:>16.6g} ratio "
                 f"({verdict['failed']}/{verdict['attempted']} specs)")
    for error in verdict["errors"][:5]:
        lines.append(f"  failure: {error}")
    if args.trace and metrics["trace.coverage_frac"] < MIN_COVERAGE:
        lines.append(f"  FLAG: trace.coverage_frac {metrics['trace.coverage_frac']:.3f} "
                     f"< {MIN_COVERAGE}: named layers miss part of the wall time")
    return lines


def run_workload(args) -> Dict:
    """Measure one workload; returns its report lines and result object."""
    started = time.monotonic()
    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    harness = Harness(workdir, deadline=started + HARD_LIMIT_S)
    try:
        calibration = _calibration_unit()
        expected = stored_digest(args)
        reference = None
        if args.workload == "fleet_sweep" and expected is None:
            # Unrecorded seed: compare the fleet's bytes with a serial run here.
            reference = harness.rep(args, mode="inproc")["digests"]
        deadline = min(time.monotonic() + args.seconds, started + HARD_LIMIT_S / 2)
        raw = measure(args, harness, deadline)
    finally:
        harness.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    verdict = check(raw["reps"], expected, reference)
    metrics = summarize(args, raw, calibration)
    units = PER_LAYER if args.trace else END_TO_END
    return {
        "lines": report_lines(
            args, metrics, verdict, calibration, [rep["wall_s"] for rep in raw["reps"]]
        ),
        "result": {
            "correct": verdict["failed"] == 0,
            "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="'all' measures every workload, untraced then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' shrinks every workload (self-test only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "scripts").is_dir():
        print(f"no repro sources under {ROOT}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so every clean-up in a finally runs.
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload != "all":
            run = run_workload(args)
            print("\n".join(run["lines"]))
            print(json.dumps(run["result"]))
            return 0
        results = {}
        for trace in (0, 1):
            for workload in WORKLOADS:
                one = argparse.Namespace(**dict(vars(args), workload=workload, trace=trace))
                run = run_workload(one)
                print("\n".join(run["lines"]), flush=True)
                results[f"{workload}/trace{trace}"] = run["result"]
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "runs": results,
        }))
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
