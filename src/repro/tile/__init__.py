"""Tile microarchitecture: queues, scratchpad, processing unit, TSU, and cache.

These are standalone object models of one tile's components.  The engines
keep every tile's mutable state in the flat columns of
:class:`~repro.core.state.CoreState` instead; ``tests/core/test_state.py``
uses these classes as oracles for the columnar scheduling and queue logic.
"""

from repro.tile.queues import CircularQueue
from repro.tile.scratchpad import Scratchpad
from repro.tile.pu import ProcessingUnit
from repro.tile.tsu import TaskSchedulingUnit
from repro.tile.cache import SetAssociativeCache

__all__ = [
    "CircularQueue",
    "Scratchpad",
    "ProcessingUnit",
    "TaskSchedulingUnit",
    "SetAssociativeCache",
]
