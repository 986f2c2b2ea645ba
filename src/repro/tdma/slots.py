"""The TDMA slot scheduler and its trace analysis.

:class:`TDMAProcess` is a message-free algorithm in the paper's
programming model: it reads only its notion of time, so it is eps-time
independent and transforms with Simulation 1 unchanged. Node ``i``
emits, for each owned slot ``k`` (``k mod n == i``):

- ``ENTER_i(k)`` at ``k*W + guard``;
- ``EXIT_i(k)``  at ``(k+1)*W - guard``.

Analysis helpers extract critical-section intervals from a visible
trace, measure the worst overlap between different nodes' sections (the
mutual-exclusion violation magnitude), the smallest inter-section gap,
and the achieved utilization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.automata.signature import Signature
from repro.components.base import Process, ProcessContext
from repro.core.pipeline import Design, Lowering, SystemSpec, lower
from repro.errors import SpecificationError, TransitionError
from repro.network.topology import Topology

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE


@dataclass
class TDMAState:
    in_critical: bool = False
    current_slot: Optional[int] = None
    next_owned_slot: int = 0
    sections_done: int = 0


class TDMAProcess(Process):
    """Slot-owner process for node ``i`` of ``n``."""

    def __init__(
        self,
        node: int,
        n: int,
        slot_width: float,
        guard: float,
        sections: int = 4,
    ):
        if slot_width <= 0:
            raise SpecificationError("slot width must be positive")
        if not 0 <= guard * 2 < slot_width:
            raise SpecificationError(
                f"guard {guard:g} must satisfy 0 <= 2*guard < W={slot_width:g}"
            )
        signature = Signature(
            outputs=PatternActionSet(
                [ActionPattern("ENTER", (node,)), ActionPattern("EXIT", (node,))]
            ),
        )
        super().__init__(node, signature, name=f"tdma({node})")
        self.n = n
        self.slot_width = slot_width
        self.guard = guard
        self.sections = sections

    def initial_state(self) -> TDMAState:
        state = TDMAState()
        state.next_owned_slot = self.node
        return state

    def apply_input(self, state, action, ctx):
        raise AssertionError("tdma processes have no inputs")

    def _enter_time(self, slot: int) -> float:
        return slot * self.slot_width + self.guard

    def _exit_time(self, slot: int) -> float:
        return (slot + 1) * self.slot_width - self.guard

    def enabled(self, state: TDMAState, ctx: ProcessContext) -> List[Action]:
        now = ctx.time
        if state.in_critical:
            if abs(now - self._exit_time(state.current_slot)) <= _TOLERANCE:
                return [Action("EXIT", (self.node, state.current_slot))]
            return []
        if state.sections_done >= self.sections:
            return []
        if abs(now - self._enter_time(state.next_owned_slot)) <= _TOLERANCE:
            return [Action("ENTER", (self.node, state.next_owned_slot))]
        return []

    def fire(self, state: TDMAState, action: Action, ctx) -> None:
        if action.name == "ENTER":
            state.in_critical = True
            state.current_slot = action.params[1]
        elif action.name == "EXIT":
            state.in_critical = False
            state.current_slot = None
            state.sections_done += 1
            state.next_owned_slot += self.n
        else:
            raise TransitionError(f"{self.name}: cannot fire {action}")

    def deadline(self, state: TDMAState, ctx) -> float:
        if state.in_critical:
            return self._exit_time(state.current_slot)
        if state.sections_done >= self.sections:
            return INFINITY
        return self._enter_time(state.next_owned_slot)


def build_tdma_system(
    lowering: Lowering,
    n: int,
    slot_width: float,
    guard: float,
    sections: int = 4,
) -> SystemSpec:
    """A message-free TDMA system in ``lowering``'s model."""
    topology = Topology(n, [])  # no links: coordination is purely temporal

    def processes(i: int) -> Process:
        return TDMAProcess(i, n, slot_width, guard, sections)

    return lower(Design(topology, processes, 0.0, 1.0), lowering)


# ---------------------------------------------------------------------------
# trace analysis
# ---------------------------------------------------------------------------

Interval = Tuple[int, int, float, float]  # (node, slot, enter, exit)


def critical_intervals(trace) -> List[Interval]:
    """Extract completed critical sections from a visible trace."""
    open_sections: Dict[int, Tuple[int, float]] = {}
    intervals: List[Interval] = []
    for ev in trace:
        if ev.action.name == "ENTER":
            node, slot = ev.action.params
            open_sections[node] = (slot, ev.time)
        elif ev.action.name == "EXIT":
            node, slot = ev.action.params
            opened = open_sections.pop(node, None)
            if opened is None or opened[0] != slot:
                raise SpecificationError(
                    f"EXIT without matching ENTER: node {node}, slot {slot}"
                )
            intervals.append((node, slot, opened[1], ev.time))
    intervals.sort(key=lambda iv: iv[2])
    return intervals


def max_overlap(intervals: List[Interval]) -> float:
    """The largest overlap between sections of *different* nodes.

    Zero (or negative: the smallest gap, negated) means mutual exclusion
    held.
    """
    worst = -INFINITY
    for a in range(len(intervals)):
        for b in range(a + 1, len(intervals)):
            n1, _, s1, e1 = intervals[a]
            n2, _, s2, e2 = intervals[b]
            if n1 == n2:
                continue
            worst = max(worst, min(e1, e2) - max(s1, s2))
    return worst if worst != -INFINITY else 0.0


def min_gap(intervals: List[Interval]) -> float:
    """The smallest gap between consecutive sections (any nodes)."""
    best = INFINITY
    for (_, _, _, e1), (_, _, s2, _) in zip(intervals, intervals[1:]):
        best = min(best, s2 - e1)
    return best


def utilization(intervals: List[Interval], horizon: float) -> float:
    """Fraction of the horizon covered by critical sections."""
    if horizon <= 0:
        return 0.0
    covered = sum(e - s for _, _, s, e in intervals)
    return covered / horizon
