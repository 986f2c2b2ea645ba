"""Simulation 2: the MMT transformation ``M(A^c, l)`` (Definition 5.1).

The MMT model removes direct access to time entirely: the node learns the
clock only through ``TICK(c)`` inputs from the clock subsystem
(Section 5.2), and its locally controlled actions are only guaranteed to
occur within ``l`` of each other (boundmap ``[0, l]`` on the single
class).

The transformation performs a *delayed simulation* of the underlying
clock machine:

- ``TICK(c)`` only updates ``mmtclock`` (the simulation is lazy);
- a *catch-up* advances the simulated machine's clock to ``mmtclock``,
  firing the machine's urgent actions along the way; outputs discovered
  during catch-up are **queued** on ``pending`` (their effects apply to
  the simulated state immediately, but the externally visible action
  fires later) — this is Definition 5.1's ``frag``/``fragoutputs``;
- each MMT step (at most ``l`` apart, chosen by a
  :class:`~repro.components.mmt.StepPolicy`) either emits the first
  pending output or performs the internal ``tau`` (a bare catch-up);
- inputs are applied at the caught-up state (Definition 5.1's
  ``(s.fragstate, a, s'.simstate)``).

Outputs are thereby shifted into the future by at most
``k*l + 2*eps + 3*l`` (Theorem 5.1), which
:func:`repro.core.pipeline.simulation2_shift_bound` computes and the
THM5.1 benchmark measures.

:class:`DelayedSimulation` is the automaton, with no notion of time;
:class:`~repro.components.mmt.TimedFromMMT` gives it time like any other
MMT automaton.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.automata.actions import Action, ActionPattern, PatternActionSet, UnionActionSet
from repro.automata.signature import Signature
from repro.components.mmt import Boundmap, MMTAutomaton
from repro.core.clock_transform import MachineState
from repro.errors import SimulationLimitError, TransitionError

from repro.constants import TOLERANCE as _TOLERANCE

MAX_CATCH_UP = 100_000
"""Machine steps one catch-up may take before it is reported runaway."""


@dataclass
class MMTState:
    """State of ``M(A^c, l)``: simulated machine + MMT bookkeeping."""

    machine_state: MachineState
    mmtclock: float = 0.0
    pending: Deque[Action] = field(default_factory=deque)


class DelayedSimulation(MMTAutomaton):
    """``M(A^c_{i,eps}, l)`` (Definition 5.1), the Simulation 2 node.

    ``machine`` is the clock machine of Simulation 1 — composing this
    automaton over a transformed timed process (a
    :class:`~repro.core.clock_transform.ClockMachine`) realizes Theorem
    5.2's two-simulation pipeline; handing it a process designed for the
    clock model (a :class:`~repro.core.clock_transform.PassThroughMachine`)
    realizes Theorem 5.1 alone.
    """

    TAU = "TAU"
    STEP = "step"  # the one class: every locally controlled action

    def __init__(self, machine, step_bound: float):
        if step_bound <= 0:
            raise ValueError("the step bound l must be positive")
        process = machine.process
        node = process.node
        base = machine.signature
        tick = PatternActionSet([ActionPattern("TICK", (node,))])
        tau = PatternActionSet([ActionPattern(self.TAU, (node,))])
        signature = Signature(
            inputs=UnionActionSet([base.inputs, tick]),
            outputs=base.outputs,
            internals=UnionActionSet([base.internals, tau]),
        )
        super().__init__(signature, name=f"{process.name}^m")
        # idle() and the catch-up query the wrapped machine (and through
        # it the process), so the purity promise is the process's.
        self.pure_enabled = getattr(process, "pure_enabled", True)
        self.machine = machine
        self.node = node
        self.step_bound = step_bound
        self._tau = Action(self.TAU, (node,))

    def instrument(self, metrics) -> None:
        """Bind the wrapped machine's buffer instruments."""
        self.machine.instrument(metrics)

    # -- the delayed simulation ------------------------------------------------

    def _catch_up(self, state: MMTState) -> None:
        """Advance the simulated machine's clock to ``mmtclock``.

        Fires the machine's locally controlled actions deterministically
        (first enabled first); outputs go to ``pending``, with their
        effects applied to the simulated state immediately.
        """
        ms = state.machine_state
        for _ in range(MAX_CATCH_UP):
            enabled = self.machine.enabled(ms)
            if enabled:
                action = enabled[0]
                self.machine.fire(ms, action)
                if self.signature.is_output(action):
                    state.pending.append(action)
                continue
            cap = self.machine.clock_deadline(ms)
            target = min(cap, state.mmtclock)
            if target <= ms.clock + _TOLERANCE:
                return
            ms.clock = target
        raise SimulationLimitError(
            f"node {self.node}: catch-up exceeded {MAX_CATCH_UP} steps"
        )

    # -- MMT automaton interface -----------------------------------------------

    def initial_state(self) -> MMTState:
        return MMTState(machine_state=self.machine.initial_state())

    def apply_input(self, state: MMTState, action: Action) -> None:
        if action.name == "TICK":
            new_clock = action.params[1]
            if new_clock > state.mmtclock:
                state.mmtclock = new_clock
            return
        # Definition 5.1: inputs apply at the caught-up state.
        self._catch_up(state)
        self.machine.apply_input(state.machine_state, action)
        self._catch_up(state)

    def idle(self, state: MMTState) -> bool:
        """Whether a tau step would be a pure stutter."""
        if state.pending:
            return False
        ms = state.machine_state
        if self.machine.enabled(ms):
            return False
        cap = self.machine.clock_deadline(ms)
        return min(cap, state.mmtclock) <= ms.clock + _TOLERANCE

    def enabled(self, state: MMTState) -> List[Action]:
        return [state.pending[0] if state.pending else self._tau]

    def fire(self, state: MMTState, action: Action) -> None:
        if action.name != self.TAU:
            if not state.pending or state.pending[0] != action:
                raise TransitionError(
                    f"node {self.node}: {action} is not the first pending output"
                )
            state.pending.popleft()
        self._catch_up(state)

    def class_of(self, action: Action) -> str:
        return self.STEP

    def boundmap(self) -> Boundmap:
        return Boundmap({self.STEP: (0.0, self.step_bound)})

    def clock_value(self, state: MMTState) -> Optional[float]:
        """The *simulated* clock: the value the algorithm acts on."""
        return state.machine_state.clock
