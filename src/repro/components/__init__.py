"""Executable components (operational layer).

The theory layer (:mod:`repro.automata`) encodes the paper's definitions
relationally; this subpackage provides the *operational* counterparts the
discrete-event simulator runs:

- :class:`~repro.components.base.Process` — an algorithm automaton
  ``A_i`` written against perfect real time (the paper's simple
  programming model, Section 3). The same process code runs unchanged in
  all three system models; the transformations in :mod:`repro.core`
  reinterpret its notion of time.
- :class:`~repro.components.base.Entity` — a top-level scheduling unit
  of the simulator (node, channel, client, tick source).
- :class:`~repro.components.base.TimedNodeEntity` — a node of the timed
  model ``D_T`` (process sees the global ``now``).
- :mod:`repro.components.mmt` — MMT automata, the step policies, and
  :class:`~repro.components.mmt.TimedFromMMT`, the one wrapper that
  gives every MMT automaton (Simulation 2's node included) time.
- :mod:`repro.components.tick` — the clock subsystem ``C^m`` that feeds
  ``TICK(c)`` actions to MMT nodes.
- :mod:`repro.components.pinger` — the minimal pinger/echo workload used
  by the simulation tests, the experiment harness, and campaign smoke
  grids.
"""

from repro.components.base import (
    Entity,
    Process,
    ProcessContext,
    TimedNodeEntity,
)

__all__ = [
    "Entity",
    "Process",
    "ProcessContext",
    "TimedNodeEntity",
]
