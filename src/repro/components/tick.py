"""The clock subsystem ``C^m_{i,eps,l}`` (Section 5.2).

An MMT automaton whose sole output is ``TICK(c)``, where ``c`` is the
current clock reading — always within ``eps`` of real time. Its single
class has boundmap ``[0, l_tick]``, so consecutive ticks are at most
``l_tick`` apart; between ticks the node's knowledge of the clock is
stale, which is one of the sources of the Theorem 5.1 shift bound.

Clock readings come from a :class:`~repro.clocks.sources.ClockSource`
(hardware-clock models live in :mod:`repro.clocks.sources`).

It is written as a timed entity, not as an
:class:`~repro.components.mmt.MMTAutomaton` under ``TimedFromMMT``:
``TICK(c)`` reads the source at real time ``now`` and checks
``|c - now| <= eps``, and an MMT automaton has no ``now``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.automata.signature import Signature
from repro.components.base import Entity
from repro.errors import ClockEnvelopeError
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    SKEW_BUCKETS,
)

from repro.constants import TOLERANCE as _TOLERANCE


@dataclass
class TickState:
    next_tick_time: float = 0.0
    last_value: float = 0.0
    ticks: int = 0


class TickEntity(Entity):
    """Emits ``TICK_i(c)`` every at-most-``l_tick`` time units."""

    # deadline == state.next_tick_time (set by fire), and the TICK only
    # becomes enabled when time reaches it; source readings are pure
    # functions of ``now``.
    static_deadline = True
    wakes_at_deadline = True

    def __init__(self, node: int, source, tick_interval: float, eps: float):
        if tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        signature = Signature(
            outputs=PatternActionSet([ActionPattern("TICK", (node,))])
        )
        super().__init__(f"tick({node})", signature)
        self.node = node
        self.source = source
        self.tick_interval = tick_interval
        self.eps = eps
        self._ticks = NULL_COUNTER
        self._skew_hist = NULL_HISTOGRAM
        self._skew_max = NULL_GAUGE

    def instrument(self, metrics) -> None:
        """Publish tick counts and observed tick-reading skew."""
        self._ticks = metrics.counter("repro.clock.ticks")
        self._skew_hist = metrics.histogram("repro.clock.skew", SKEW_BUCKETS)
        self._skew_max = metrics.gauge("repro.clock.skew_max")
        metrics.gauge("repro.clock.eps").set_max(float(self.eps))
        if hasattr(self.source, "instrument"):
            self.source.instrument(metrics)

    def initial_state(self) -> TickState:
        return TickState()

    def _reading(self, state: TickState, now: float) -> float:
        value = self.source.value(now)
        if abs(value - now) > self.eps + _TOLERANCE:
            raise ClockEnvelopeError(
                f"tick({self.node}): source reading {value:g} at now={now:g} "
                f"is outside the C_{self.eps:g} envelope"
            )
        # Readings handed to the node are monotone; a momentarily
        # backward source (within its envelope) reads as stale.
        return max(value, state.last_value)

    def enabled(self, state: TickState, now: float) -> List[Action]:
        if now + _TOLERANCE < state.next_tick_time:
            return []
        return [Action("TICK", (self.node, self._reading(state, now)))]

    def fire(self, state: TickState, action: Action, now: float) -> None:
        state.last_value = action.params[1]
        state.ticks += 1
        state.next_tick_time = now + self.tick_interval
        self._ticks.inc()
        skew = abs(state.last_value - now)
        if self.eps < skew <= self.eps + _TOLERANCE:
            skew = self.eps
        self._skew_hist.observe(skew)
        self._skew_max.set_max(skew)

    def deadline(self, state: TickState, now: float) -> float:
        return state.next_tick_time

    def apply_input(self, state: TickState, action: Action, now: float) -> None:
        raise AssertionError("tick entities have no inputs")

    def clock_value(self, state: TickState, now: float) -> Optional[float]:
        return state.last_value
