"""The benchmark's workloads: which specs each one runs, and how outputs digest.

Every workload is a list of :class:`repro.runtime.RunSpec` built from the
graph seed alone, so the same seed always yields the same specs (and, the
simulator being deterministic, the same payload bytes).  ``verify=True`` is
set on every spec, so each result also carries the kernel's own check
against its sequential reference.

``size="tiny"`` shrinks every workload to a few sub-second specs; the
self-test uses it.  ``size="full"`` is what the benchmark measures.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence

WORKLOADS = ("fig5_cycle", "fig7_analytic", "fig6_sharded", "fleet_sweep")
SIZES = ("full", "tiny")

#: Fig. 5 ladder: every rung, four apps, one dataset (so rungs share graphs).
FIG5_APPS = ("bfs", "wcc", "pagerank", "sssp")
FIG5_DATASET = "amazon"
FIG5_SCALE = 0.05

#: Fig. 7 strong scaling: five apps on the rmat26 stand-in, 16^2..128^2 tiles.
FIG7_APPS = ("bfs", "wcc", "pagerank", "sssp", "spmv")
FIG7_WIDTHS = (16, 32, 64, 128)
FIG7_SCALE = 0.05

#: Fig. 6 BFS strong scaling, run with two shards per spec.
FIG6_DATASETS = ("rmat16", "rmat22", "rmat25", "rmat26")
FIG6_WIDTHS = (1, 2, 4, 8, 16, 32, 64, 128)
FIG6_SCALE = 0.2
FIG6_SHARDS = 2

#: Fleet sweep: many tiny, distinct specs on the rmat16 stand-in.
FLEET_APPS = ("bfs", "wcc", "sssp", "spmv", "pagerank")
FLEET_WIDTHS = (1, 2, 4)
FLEET_ENGINES = ("analytic", "cycle")
FLEET_SCALES = (0.02, 0.03, 0.04, 0.05)


def build_specs(workload: str, seed: int, size: str = "full") -> List["RunSpec"]:
    """The specs one repetition of ``workload`` runs, in submission order."""
    from repro.analysis.sweep import scaling_run_specs
    from repro.baselines.ladder import LADDER_ORDER, dalorex_config, ladder_configs
    from repro.core.config import MachineConfig
    from repro.experiments.common import experiment_dataset_vertices
    from repro.runtime import RunSpec

    tiny = size == "tiny"
    if workload == "fig5_cycle":
        width = 4 if tiny else 16
        ladder = ladder_configs(width, width, engine="cycle")
        apps = FIG5_APPS[:2] if tiny else FIG5_APPS
        scale = 0.01 if tiny else FIG5_SCALE
        return [
            RunSpec(app, FIG5_DATASET, ladder[rung], scale=scale, seed=seed, verify=True)
            for app in apps
            for rung in LADDER_ORDER
        ]
    if workload == "fig7_analytic":
        apps = FIG7_APPS[:2] if tiny else FIG7_APPS
        widths = (4, 8) if tiny else FIG7_WIDTHS
        return [
            RunSpec(
                app,
                "rmat26",
                dalorex_config(width, width, engine="analytic"),
                scale=FIG7_SCALE,
                seed=seed,
                verify=True,
            )
            for app in apps
            for width in widths
        ]
    if workload == "fig6_sharded":
        datasets = FIG6_DATASETS[:2] if tiny else FIG6_DATASETS
        scale = 0.02 if tiny else FIG6_SCALE
        specs: List[RunSpec] = []
        for dataset in datasets:
            vertices = experiment_dataset_vertices(dataset, scale=scale)
            widths = [w for w in FIG6_WIDTHS if w * w <= max(1, vertices)]
            specs.extend(
                scaling_run_specs("bfs", dataset, widths, scale=scale, seed=seed, verify=True)
            )
        return specs
    if workload == "fleet_sweep":
        apps = FLEET_APPS[:2] if tiny else FLEET_APPS
        scales = FLEET_SCALES[:1] if tiny else FLEET_SCALES
        return [
            RunSpec(
                app,
                "rmat16",
                MachineConfig(width=width, height=width, engine=engine),
                scale=scale,
                seed=seed,
                verify=True,
            )
            for scale in scales
            for engine in FLEET_ENGINES
            for app in apps
            for width in FLEET_WIDTHS
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def serial_payloads(workload: str, seed: int, size: str = "full") -> List[Dict]:
    """Payloads of the workload's specs executed one at a time in this
    process, with no runner, cache, shards or broker in between: the path
    every workload's output must match byte for byte."""
    from repro.runtime.backends import execute_to_payload

    return [execute_to_payload(spec)[1] for spec in build_specs(workload, seed, size)]


def spec_digests(payloads: Sequence[Dict]) -> List[str]:
    """Per-spec SHA-256 of each payload's canonical JSON."""
    from repro.runtime.cache import payload_digest

    return [payload_digest(payload) for payload in payloads]


def workload_digest(per_spec: Sequence[str]) -> str:
    """One digest over a whole repetition: the per-spec digests in order."""
    return hashlib.sha256("".join(per_spec).encode("ascii")).hexdigest()


def sim_stats(payloads: Sequence[Dict]) -> Dict[str, float]:
    """Simulated statistics that must repeat exactly for a given seed."""
    return {
        "sim.cycles": float(sum(float(p["cycles"]) for p in payloads)),
        "sim.tasks": int(sum(int(p["counters"]["tasks_executed"]) for p in payloads)),
        "sim.flit_hops": int(sum(int(p["counters"]["flit_hops"]) for p in payloads)),
    }


def spec_failures(payloads: Sequence[Dict]) -> int:
    """Specs whose result did not pass the kernel's own verification."""
    return sum(1 for payload in payloads if payload.get("verified") is not True)
