"""NetworkModel seam: how the cycle engine turns one message into a latency.

Two implementations sit behind one ``send(src, dst, flits, now) -> arrival``
interface, selected by the ``network`` field of
:class:`~repro.core.config.MachineConfig`:

* :class:`AnalyticalNetwork` (``network="analytical"``, the default): the
  seed behaviour, byte-identical to the original engine code -- messages
  traverse their dimension-ordered route charging per-link serialization
  with persistent busy times, but routers have infinite buffers and flits
  never pipeline (a message holds each link for its full length).
* :class:`~repro.noc.sim.simulator.NocSimulator` (``network="simulated"``):
  the flit-level model -- finite input queues, credit backpressure,
  injection/ejection port serialization and pluggable routing, so messages
  experience real queueing delay where traffic concentrates.

Both are deterministic and both are driven by the cycle engine's event loop
in nondecreasing time order, so either choice keeps simulation results
replayable, cacheable and distributable.
"""

from __future__ import annotations

from typing import List

from repro.noc.sim.simulator import NocSimulator
from repro.noc.topology import Topology


class AnalyticalNetwork:
    """Zero-buffer link-serialization model (the seed cycle-engine network).

    Each directed link has a persistent busy-until time; a message charges
    ``flits`` cycles to every link on its dimension-ordered route in
    sequence.  No queues, no credits, no pipelining -- exactly the original
    :meth:`CycleEngine._network_delay` arithmetic, kept bit-identical so
    ``network="analytical"`` reproduces historical results byte for byte.

    Routes come from the topology's route memo, keyed by pair code
    (:meth:`Topology.route_entry`), shared with the link-load accounting on
    the same topology instance.
    """

    kind = "analytical"

    def __init__(self, topology: Topology, state=None) -> None:
        self.topology = topology
        self._num_tiles = topology.num_tiles
        self._routes = topology.routes
        # Busy-until time per directed link, indexed by canonical link code.
        self._link_free: List[float] = [0.0] * topology.num_link_codes()
        if state is not None:
            # Publish the persistent link state on the machine's columnar
            # state so diagnostics read network occupancy where everything
            # else lives.
            state.noc_link_free = self._link_free

    def send(self, src: int, dst: int, flits: int, now: float) -> float:
        """Walk the route charging per-link serialization with persistent state."""
        code = src * self._num_tiles + dst
        entry = self._routes.get(code)
        if entry is None:
            entry = self.topology.route_entry(code)
        link_free = self._link_free
        time = now
        for code in entry[2]:
            busy = link_free[code]
            time = (busy if busy > time else time) + flits
            link_free[code] = time
        return time


def make_network_model(config, topology: Topology, state=None):
    """Build the network model a machine configuration selects.

    ``network="analytical"`` returns :class:`AnalyticalNetwork`;
    ``network="simulated"`` returns a
    :class:`~repro.noc.sim.simulator.NocSimulator` honouring the config's
    ``routing`` and ``queue_depth`` knobs.  Both expose ``send`` and
    ``kind``.  When given the machine's columnar
    :class:`~repro.core.state.CoreState`, the simulator keeps its per-tile
    injection/ejection port times in the state's ``noc_inject_free`` /
    ``noc_eject_free`` arrays, and both models publish their persistent
    link-busy state as ``state.noc_link_free`` (a list indexed by canonical
    link code for the analytical model, a dict keyed by link for the
    simulator) -- network occupancy lives where the rest of the machine
    state does.
    """
    if config.network == "simulated":
        return NocSimulator(
            topology,
            routing=config.routing,
            queue_depth=config.queue_depth,
            state=state,
        )
    return AnalyticalNetwork(topology, state=state)
