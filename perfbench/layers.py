"""Per-layer timing from outside the program: wrap each layer's public calls.

:class:`LayerTracer` replaces a handful of public functions and methods with
timing wrappers for the duration of a traced repetition and restores them
afterwards.  Each wrapper charges its *self time* -- its own duration minus
the time of wrapped calls nested inside it -- to one named layer, so layer
seconds never double count and their sum is bounded by the traced wall time.
The program itself is not modified; what the wrappers cannot see (work in
other processes) is read from the telemetry the program already emits.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

#: Layers charged by the wrappers, in report order.
LAYERS = (
    "graph.build_s",
    "machine.build_s",
    "engine.analytic_s",
    "engine.cycle_s",
    "energy.attach_s",
    "verify.reference_s",
    "runtime.serialize_s",
    "runtime.deserialize_s",
    "cache.store_s",
    "cache.load_s",
    "shard.execute_s",
)


class LayerTracer:
    """Self-time accounting for wrapped calls, keyed by layer name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: Dict[str, int] = {}
        #: Inclusive seconds per wrapped call site (children included).
        self.inclusive: Dict[str, float] = {}
        self._stack: List[List[float]] = []
        self._restore: List[tuple] = []

    # ------------------------------------------------------------ wrapping
    def _timed(self, layer_of: Callable, site: str, original: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            layer = layer_of(args)
            frame = [0.0]  # seconds spent in nested wrapped calls
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._stack.pop()
                tracer.seconds[layer] = tracer.seconds.get(layer, 0.0) + elapsed - frame[0]
                tracer.inclusive[site] = tracer.inclusive.get(site, 0.0) + elapsed
                tracer.calls[site] = tracer.calls.get(site, 0) + 1
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed

        wrapper.__wrapped__ = original
        return wrapper

    def wrap(self, owner, name: str, layer, site: Optional[str] = None) -> None:
        """Time ``owner.name`` into ``layer`` (a name, or ``f(args) -> name``)."""
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        layer_of = layer if callable(layer) else (lambda _args, _layer=layer: _layer)
        site = site or f"{getattr(owner, '__name__', owner)}.{name}"
        setattr(owner, name, self._timed(layer_of, site, original))
        self._restore.append((owner, name, original))

    def install(self) -> "LayerTracer":
        """Wrap every layer's public entry points."""
        import repro.experiments.common as common
        import repro.runtime.backends as backends
        import repro.runtime.runner as runner
        import repro.runtime.sharding as sharding
        import repro.runtime.spec as spec_module
        from repro.apps.common import Kernel
        from repro.core.machine import DalorexMachine
        from repro.energy.area import AreaModel
        from repro.energy.model import EnergyModel
        from repro.runtime.cache import ResultCache

        self.wrap(spec_module, "load_graph", "graph.build_s")
        # Memo misses only: the call that actually generates a stand-in.
        self.wrap(common, "load_experiment_dataset", "graph.build_s",
                  site="graph.generate")
        self.wrap(common, "build_kernel", "machine.build_s")
        self.wrap(DalorexMachine, "__init__", "machine.build_s")
        # machine.run minus the energy/area/verify calls nested inside it is
        # the engine run (the same work as machine.run(compute_energy=False)).
        self.wrap(DalorexMachine, "run",
                  lambda args: f"engine.{args[0].config.engine}_s")
        self.wrap(EnergyModel, "attach", "energy.attach_s")
        self.wrap(DalorexMachine, "chip_area_mm2", "energy.attach_s")
        self.wrap(AreaModel, "hmc_area_mm2", "energy.attach_s")
        self.wrap(Kernel, "verify", "verify.reference_s")
        self.wrap(backends, "result_to_payload", "runtime.serialize_s")
        self.wrap(runner, "result_from_payload", "runtime.deserialize_s")
        self.wrap(ResultCache, "store", "cache.store_s")
        self.wrap(ResultCache, "load", "cache.load_s")
        self.wrap(sharding, "execute_spec_sharded", "shard.execute_s", site="shard.execute")
        return self

    def uninstall(self) -> None:
        """Put every wrapped function back (safe to call twice)."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


def telemetry_layers(snapshot: Dict) -> Dict[str, float]:
    """Per-layer numbers read from an in-process telemetry snapshot."""
    histograms = snapshot.get("histograms", {})
    counters = snapshot.get("counters", {})

    def span_sum(name: str, labels: str = "") -> float:
        return float(histograms.get(f"span.{name}.seconds", {}).get(labels, {}).get("sum", 0.0))

    def hist(name: str) -> Dict:
        return histograms.get(name, {}).get("", {})

    return {
        "engine.analytic.scalar_epoch_s": span_sum("engine.analytic.epoch", "mode=scalar"),
        "engine.analytic.batched_epoch_s": span_sum("engine.analytic.epoch", "mode=batched"),
        "engine.cycle.events": int(sum(counters.get("engine.cycle.events", {}).values())),
        "shard.exchange.messages": int(sum(counters.get("shard.exchange.messages", {}).values())),
        "shard.exchange.bytes": int(sum(counters.get("shard.exchange.bytes", {}).values())),
        "shard.exchange.barrier_wait_s": float(
            hist("shard.exchange.barrier_wait_seconds").get("sum", 0.0)
        ),
    }
