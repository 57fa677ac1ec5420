"""Machine configuration: every architectural knob the evaluation sweeps.

A single configuration class drives both the Dalorex design points and the
Tesseract-style baselines, so the Fig. 5 feature ladder is obtained by toggling
one field at a time (see :mod:`repro.baselines.ladder`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

NOC_KINDS = ("mesh", "torus", "torus_ruche", "mesh3d", "torus3d")
NOC_3D_KINDS = ("mesh3d", "torus3d")
SCHEDULING_KINDS = ("round_robin", "occupancy")
PLACEMENT_KINDS = ("block", "interleave", "row")
INVOCATION_KINDS = ("tsu", "interrupting")
MEMORY_KINDS = ("sram", "dram", "dram_cache")
ENGINE_KINDS = ("analytic", "cycle")
NETWORK_KINDS = ("analytical", "simulated")
ROUTING_KINDS = ("dimension_ordered", "xy_yx", "adaptive")


@dataclass
class MachineConfig:
    """All architectural and simulation parameters of one design point.

    Attributes mirror the paper's design space:

    * grid shape and NoC kind (mesh / torus / torus+ruche),
    * data placement for vertex-space and edge-space arrays,
    * remote task invocation style (non-interrupting TSU vs interrupting
      remote calls as in Tesseract),
    * TSU scheduling policy (round-robin vs occupancy/traffic-aware),
    * per-epoch global barrier vs barrierless local frontiers,
    * memory technology (local SRAM scratchpad, DRAM/HMC, or DRAM behind a
      large cache for the Tesseract-LC approximation),
    * simulation engine (event/cycle or analytical).
    """

    name: str = "dalorex"
    # Grid / NoC
    width: int = 16
    height: int = 16
    depth: int = 1
    noc: str = "torus"
    ruche_factor: int = 2
    # Network timing model: "analytical" charges zero-contention hop latency
    # through the LinkLoadModel serialization state (the seed behaviour);
    # "simulated" routes every message through the flit-level NoC simulator
    # (finite input queues, credit backpressure) -- cycle engine only, the
    # analytic engine is itself a closed-form bound and ignores it.
    network: str = "analytical"
    routing: str = "dimension_ordered"
    queue_depth: int = 4
    # Scheduling and invocation
    scheduling: str = "occupancy"
    remote_invocation: str = "tsu"
    interrupt_penalty_cycles: int = 50
    # Data placement
    vertex_placement: str = "interleave"
    edge_placement: str = "block"
    # Synchronization
    barrier: bool = False
    barrier_latency_cycles: int = 128
    max_epochs: int = 100_000
    # Memory system
    memory: str = "sram"
    sram_latency_cycles: int = 1
    dram_latency_cycles: int = 60
    cache_hit_latency_cycles: int = 2
    cache_hit_rate: float = 0.85
    scratchpad_bytes_per_tile: Optional[int] = None
    # Simulation
    engine: str = "analytic"
    frequency_ghz: float = 1.0
    flit_bytes: int = 4
    max_range_per_message: int = 1024
    task_overhead_instructions: int = 4
    epoch_seed_instructions: int = 3
    frontier_refill_batch: int = 32
    frontier_refill_delay_cycles: int = 256
    queue_region_bytes: int = 16 * 1024
    code_region_bytes: int = 4 * 1024
    allow_remote_access: bool = False
    remote_access_penalty_cycles: int = 40

    # ------------------------------------------------------------- derived
    @property
    def num_tiles(self) -> int:
        return self.width * self.height * self.depth

    @property
    def clock_period_ns(self) -> float:
        return 1.0 / self.frequency_ghz

    def cycles_to_seconds(self, cycles: float) -> float:
        return cycles * 1e-9 / self.frequency_ghz

    def memory_latency_cycles(self) -> float:
        """Average latency of one local data access for this memory system."""
        if self.memory == "sram":
            return float(self.sram_latency_cycles)
        if self.memory == "dram":
            return float(self.dram_latency_cycles)
        if self.memory == "dram_cache":
            return (
                self.cache_hit_rate * self.cache_hit_latency_cycles
                + (1.0 - self.cache_hit_rate) * self.dram_latency_cycles
            )
        raise ConfigurationError(f"unknown memory kind {self.memory!r}")

    # ----------------------------------------------------------- validation
    def validate(self) -> "MachineConfig":
        """Check field values; returns ``self`` so it can be chained."""
        if self.width < 1 or self.height < 1 or self.depth < 1:
            raise ConfigurationError("grid dimensions must be positive")
        if self.noc not in NOC_KINDS:
            raise ConfigurationError(f"noc must be one of {NOC_KINDS}, got {self.noc!r}")
        if self.depth > 1 and self.noc not in NOC_3D_KINDS:
            raise ConfigurationError(
                f"depth={self.depth} requires a 3D NoC kind ({NOC_3D_KINDS}), "
                f"got {self.noc!r}"
            )
        if self.network not in NETWORK_KINDS:
            raise ConfigurationError(
                f"network must be one of {NETWORK_KINDS}, got {self.network!r}"
            )
        if self.routing not in ROUTING_KINDS:
            raise ConfigurationError(
                f"routing must be one of {ROUTING_KINDS}, got {self.routing!r}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be positive, got {self.queue_depth}"
            )
        if self.scheduling not in SCHEDULING_KINDS:
            raise ConfigurationError(
                f"scheduling must be one of {SCHEDULING_KINDS}, got {self.scheduling!r}"
            )
        if self.vertex_placement not in PLACEMENT_KINDS:
            raise ConfigurationError(
                f"vertex_placement must be one of {PLACEMENT_KINDS}, got {self.vertex_placement!r}"
            )
        if self.edge_placement not in PLACEMENT_KINDS:
            raise ConfigurationError(
                f"edge_placement must be one of {PLACEMENT_KINDS}, got {self.edge_placement!r}"
            )
        if self.vertex_placement == "row":
            raise ConfigurationError("row placement only applies to edge-space arrays")
        if self.remote_invocation not in INVOCATION_KINDS:
            raise ConfigurationError(
                f"remote_invocation must be one of {INVOCATION_KINDS}, got {self.remote_invocation!r}"
            )
        if self.memory not in MEMORY_KINDS:
            raise ConfigurationError(f"memory must be one of {MEMORY_KINDS}, got {self.memory!r}")
        if self.engine not in ENGINE_KINDS:
            raise ConfigurationError(f"engine must be one of {ENGINE_KINDS}, got {self.engine!r}")
        if not 0.0 <= self.cache_hit_rate <= 1.0:
            raise ConfigurationError("cache_hit_rate must be within [0, 1]")
        if self.frequency_ghz <= 0:
            raise ConfigurationError("frequency must be positive")
        if self.ruche_factor < 2:
            raise ConfigurationError("ruche_factor must be at least 2")
        if self.max_range_per_message < 1:
            raise ConfigurationError("max_range_per_message must be positive")
        if self.frontier_refill_batch < 1:
            # A tile that may pull nothing leaves its frontier parked forever.
            raise ConfigurationError("frontier_refill_batch must be positive")
        return self

    # -------------------------------------------------------------- variants
    def with_overrides(self, **overrides) -> "MachineConfig":
        """Return a copy with the given fields replaced (and re-validated)."""
        return dataclasses.replace(self, **overrides).validate()

    def with_grid(self, width: int, height: Optional[int] = None) -> "MachineConfig":
        """Return a copy resized to ``width x height`` (square when height omitted)."""
        return self.with_overrides(width=width, height=height if height is not None else width)

    def describe(self) -> str:
        """One-line summary used in reports."""
        grid = f"{self.width}x{self.height}"
        if self.depth > 1:
            grid += f"x{self.depth}"
        summary = (
            f"{self.name}: {grid} {self.noc}, "
            f"sched={self.scheduling}, placement=v:{self.vertex_placement}/e:{self.edge_placement}, "
            f"invoke={self.remote_invocation}, barrier={self.barrier}, mem={self.memory}, "
            f"engine={self.engine}"
        )
        if self.network != "analytical":
            summary += (
                f", network={self.network}(routing={self.routing}, "
                f"queue_depth={self.queue_depth})"
            )
        return summary
