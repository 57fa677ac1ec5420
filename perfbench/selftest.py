"""Self-test of the benchmark at its tiny size.

Checks, for every workload, that every metric ``BENCHMARK.json`` names is
emitted with its unit, that two invocations give the same payload digest and
simulated statistics, and that per-layer seconds stay within the traced wall
time; and that the benchmark refuses to run without the program's sources.
Run it from the repository root (about two minutes on two cores)::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from layers import LAYERS  # noqa: E402 - layers charged in the benchmark process


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--size", "tiny"]
    return subprocess.run(command, cwd=str(cwd), capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int) -> dict:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_metrics(report: dict, declared) -> None:
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0
    assert report["attempted"] >= 1
    metrics = report["metrics"]
    assert set(metrics) == {entry["name"] for entry in declared}
    for entry in declared:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert isinstance(metrics[entry["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    report = result(workload, trace=0)
    assert_metrics(report, SPEC["end_to_end"])
    assert all(report["metrics"][name]["value"] > 0 for name in ("wall_s", "setup_s"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    first, second = result(workload, trace=1), result(workload, trace=1)
    assert_metrics(first, SPEC["per_layer"])
    a = {name: entry["value"] for name, entry in first["metrics"].items()}
    b = {name: entry["value"] for name, entry in second["metrics"].items()}
    for name in ("payload_digest", "sim.cycles", "sim.tasks", "sim.flit_hops"):
        assert a[name] == b[name], name
    wall = a["trace.wall_s"]
    if workload == "fleet_sweep":
        # The worker executes and uploads one spec at a time inside the sweep.
        assert a["worker.execute_s"] + a["worker.upload_s"] <= wall
        assert a["worker.execute_s"] > 0
    else:
        assert 0 < sum(a[name] for name in LAYERS) <= wall


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], trace=0, cwd=Path(tmp))
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
