"""The benchmark gate must survive calibration jitter.

The gate normalizes benchmark means by an on-the-spot calibration
measurement.  A best-of-N calibration taken once per invocation is exactly
as lucky as its luckiest sample: one quiet scheduler window deflates the
calibration, inflates every normalized cost, and fails the gate with no real
regression.  The replacement interleaves median-of-pool calibration with the
checks; these tests drive it with synthetic timers to pin that behaviour.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression", REPO / "scripts" / "check_bench_regression.py"
)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


class FakeTimer:
    """Timer whose consecutive (start, stop) pairs yield scripted durations."""

    def __init__(self, durations):
        self._durations = list(durations)
        self._now = 0.0
        self._pending = None

    def __call__(self) -> float:
        if self._pending is None:
            # start of a sample: remember where it began
            self._pending = self._now
            return self._now
        duration = self._durations.pop(0) if self._durations else 0.1
        self._now = self._pending + duration
        self._pending = None
        return self._now


def _noop():
    pass


def test_median_pool_ignores_lucky_sample():
    # One 10x-lucky sample among steady 0.1s samples: best-of would return
    # 0.01 (10x off); the median pool stays at the true 0.1.
    timer = FakeTimer([0.1, 0.1, 0.01, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    pool = gate.CalibrationPool(timer=timer, workload=_noop)
    assert pool.value() == pytest.approx(0.1)


def test_pool_grows_per_check():
    timer = FakeTimer([0.1] * 100)
    pool = gate.CalibrationPool(samples_per_check=3, min_samples=9,
                                timer=timer, workload=_noop)
    pool.value()
    first = len(pool.samples)
    assert first == 9
    pool.value()
    assert len(pool.samples) == first + 3


def _write_gate_files(tmp_path, base_mean=1.0, now_mean=1.0):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "calibration_seconds": 0.1,
        "benchmarks": {"bench_run[fig6]": base_mean},
    }))
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({
        "benchmarks": [
            {"name": "bench_run[fig6]", "stats": {"mean": now_mean}},
        ],
    }))
    return baseline, bench


def test_gate_passes_despite_lucky_calibration_samples(tmp_path):
    # Identical performance, but the calibration stream contains 10x-lucky
    # samples.  Under best-of-5 the normalized cost would read as a 10x
    # slowdown and fail; the interleaved median keeps the ratio at 1.0.
    baseline, bench = _write_gate_files(tmp_path)
    durations = [0.1, 0.01, 0.1, 0.1, 0.01, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
    code = gate.main(
        ["--bench-json", str(bench), "--baseline", str(baseline)],
        timer=FakeTimer(durations), workload=_noop,
    )
    assert code == 0


def test_gate_still_catches_real_regressions(tmp_path):
    baseline, bench = _write_gate_files(tmp_path, base_mean=1.0, now_mean=2.0)
    code = gate.main(
        ["--bench-json", str(bench), "--baseline", str(baseline)],
        timer=FakeTimer([0.1] * 20), workload=_noop,
    )
    assert code == 1


def test_gate_refuses_to_run_with_telemetry_enabled(tmp_path, monkeypatch, capsys):
    # The gate certifies the telemetry-off hot path; a stray
    # DALOREX_TELEMETRY in the job environment must fail loudly rather
    # than benchmark the instrumented build against the baseline.
    baseline, bench = _write_gate_files(tmp_path)
    monkeypatch.setenv("DALOREX_TELEMETRY", "1")
    code = gate.main(
        ["--bench-json", str(bench), "--baseline", str(baseline)],
        timer=FakeTimer([0.1] * 20), workload=_noop,
    )
    assert code == 2
    assert "disabled-telemetry" in capsys.readouterr().err


def test_gate_refuses_a_jsonl_sink_too(tmp_path, monkeypatch):
    baseline, bench = _write_gate_files(tmp_path)
    monkeypatch.delenv("DALOREX_TELEMETRY", raising=False)
    monkeypatch.setenv("DALOREX_TELEMETRY_JSONL", str(tmp_path / "t.jsonl"))
    code = gate.main(
        ["--bench-json", str(bench), "--baseline", str(baseline)],
        timer=FakeTimer([0.1] * 20), workload=_noop,
    )
    assert code == 2


def test_update_baseline_keeps_format(tmp_path):
    baseline, bench = _write_gate_files(tmp_path)
    code = gate.main(
        ["--bench-json", str(bench), "--baseline", str(baseline),
         "--update-baseline"],
        timer=FakeTimer([0.1] * 20), workload=_noop,
    )
    assert code == 0
    written = json.loads(baseline.read_text())
    assert set(written) == {"calibration_seconds", "benchmarks"}
    assert written["calibration_seconds"] == pytest.approx(0.1)
    assert written["benchmarks"] == {"bench_run[fig6]": 1.0}


def test_update_baseline_keep_existing_only_adds_new_entries(tmp_path):
    baseline, bench = _write_gate_files(tmp_path, base_mean=1.0, now_mean=3.0)
    blob = json.loads(bench.read_text())
    blob["benchmarks"].append({"name": "bench_new", "stats": {"mean": 0.4}})
    bench.write_text(json.dumps(blob))
    code = gate.main(
        ["--bench-json", str(bench), "--baseline", str(baseline),
         "--update-baseline", "--keep-existing"],
        timer=FakeTimer([0.2] * 20), workload=_noop,
    )
    assert code == 0
    written = json.loads(baseline.read_text())
    # The committed entry and calibration are untouched; the new mean is
    # rescaled from today's 0.2 s calibration to the committed 0.1 s unit.
    assert written["calibration_seconds"] == pytest.approx(0.1)
    assert written["benchmarks"]["bench_run[fig6]"] == 1.0
    assert written["benchmarks"]["bench_new"] == pytest.approx(0.2)


def test_keep_existing_requires_update_baseline(tmp_path):
    baseline, bench = _write_gate_files(tmp_path)
    code = gate.main(
        ["--bench-json", str(bench), "--baseline", str(baseline), "--keep-existing"],
        timer=FakeTimer([0.1] * 20), workload=_noop,
    )
    assert code == 2


def test_gate_fails_a_measured_benchmark_without_baseline(tmp_path, capsys):
    # A new benchmark that nobody added to the baseline must not pass
    # silently ungated.
    baseline, bench = _write_gate_files(tmp_path)
    blob = json.loads(bench.read_text())
    blob["benchmarks"].append({"name": "bench_new", "stats": {"mean": 5.0}})
    bench.write_text(json.dumps(blob))
    code = gate.main(
        ["--bench-json", str(bench), "--baseline", str(baseline)],
        timer=FakeTimer([0.1] * 20), workload=_noop,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "'bench_new' has no baseline entry" in err
    assert "--update-baseline" in err
