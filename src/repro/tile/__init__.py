"""Standalone object models of one tile's input queues and TSU.

The engines keep every tile's mutable state in the flat columns of
:class:`~repro.core.state.CoreState` instead; ``tests/core/test_state.py``
uses these classes as oracles for the columnar scheduling and queue logic.
"""

from repro.tile.queues import CircularQueue
from repro.tile.tsu import TaskSchedulingUnit

__all__ = ["CircularQueue", "TaskSchedulingUnit"]
