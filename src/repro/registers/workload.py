"""Closed-loop clients and workloads for every blind-update object.

One :class:`ClientEntity` drives one node of any
:class:`~repro.registers.algorithm_l.RegisterProcess` — the register
itself, or a generalized object
(:class:`~repro.objects.algorithm.BlindUpdateObjectProcess`) — with an
alternating sequence of invocations (the alternation condition of
Section 6.1). It speaks the process class's vocabulary: ``READ`` /
``WRITE`` outputs and ``RETURN`` / ``ACK`` inputs for the register,
``ASK`` / ``DO`` and ``REPLY`` / ``DONE`` for an object. A payload
generator ``f(rng, node, seq, is_update)`` supplies each invocation's
argument; the register's draws nothing: written values are the globally
unique ``("v", node, seq)`` tuples, which both match the paper's
unique-message assumption and make linearizability checking
unambiguous, and a read carries no argument.

Clients record every completed operation as the
:class:`~repro.traces.linearizability.Operation` that
:func:`~repro.traces.linearizability.extract_operations` finds in the
trace, so latency analysis does not have to re-parse it: a query is an
``"R"``, an update a ``"W"``, and ``op_id`` is the client's own
operation index.

Two modes of schedule generation:

- **online** (default, historical behavior): the query-vs-update choice
  and the payload are drawn inside ``enabled()`` and the think time
  inside ``apply_input``, so the sequence depends on engine polling.
  Kept byte-identical for every existing seeded register experiment.
- **replay**: pass a precomputed
  :class:`~repro.registers.opstream.OpSchedule` and the client follows
  it exactly — the mode the live backend shares, so a sim run and a
  live run of the same seed issue identical operation streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.automata.signature import Signature
from repro.components.base import Entity
from repro.errors import TransitionError
from repro.obs.metrics import NULL_SKETCH
from repro.registers.algorithm_l import RegisterProcess
from repro.registers.opstream import OpSchedule, client_rng
from repro.traces.linearizability import Operation

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE

PayloadGenerator = Callable[[random.Random, int, int, bool], object]
"""``f(rng, node, seq, is_update) -> argument`` of the next invocation
(``seq`` counts the client's updates; a ``None`` query argument means
the query carries none)."""


def register_payloads(
    rng: random.Random, node: int, seq: int, is_update: bool
) -> object:
    """The register's payloads: ``("v", node, seq)`` writes, bare reads."""
    return ("v", node, seq) if is_update else None


@dataclass
class RegisterWorkload:
    """Parameters of a closed-loop workload (queries are reads)."""

    operations: int = 10
    read_fraction: float = 0.5
    think_min: float = 0.5
    think_max: float = 2.0
    start_delay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.think_min < 0 or self.think_max < self.think_min:
            raise ValueError("invalid think time range")


@dataclass
class ClientState:
    next_inv_time: float = 0.0
    issued: int = 0
    pending: Optional[Tuple[str, object, float]] = None  # (kind, arg, inv)
    completed: List[Operation] = field(default_factory=list)


class ClientEntity(Entity):
    """Closed-loop client for node ``i`` of a ``vocabulary`` process.

    ``vocabulary`` is the process class whose ``READ`` / ``WRITE`` /
    ``RETURN`` / ``ACK`` names the client speaks, and ``payloads`` draws
    each online invocation's argument. With ``schedule=None`` (the
    default), operations are drawn online from the workload RNG — the
    historical mode. With a precomputed
    :class:`~repro.registers.opstream.OpSchedule`, the client replays it
    deterministically; ``enabled`` then becomes a pure function of
    ``(state, now)``, which the instance advertises to the engine.
    """

    # In online mode enabled() draws from the workload RNG (query-vs-
    # update choice and payload), so the engine must re-evaluate it every
    # round to keep the draw sequence identical across execution
    # strategies. Replay mode overrides this per instance (see __init__).
    pure_enabled = False

    def __init__(
        self,
        node: int,
        workload: RegisterWorkload,
        schedule: Optional[OpSchedule] = None,
        vocabulary: type = RegisterProcess,
        payloads: PayloadGenerator = register_payloads,
    ):
        signature = Signature(
            inputs=PatternActionSet([
                ActionPattern(vocabulary.RETURN, (node,)),
                ActionPattern(vocabulary.ACK, (node,)),
            ]),
            outputs=PatternActionSet([
                ActionPattern(vocabulary.READ, (node,)),
                ActionPattern(vocabulary.WRITE, (node,)),
            ]),
        )
        super().__init__(f"client({node})", signature)
        self.node = node
        self.workload = workload
        self.vocabulary = vocabulary
        self.payloads = payloads
        if schedule is not None and schedule.node != node:
            raise ValueError(
                f"schedule is for node {schedule.node}, client is node {node}"
            )
        self.schedule = schedule
        if schedule is not None:
            # replay mode: no RNG inside enabled(), so it is pure
            self.pure_enabled = True
        self._rng = client_rng(workload.seed, node)
        self._seq = 0
        self._read_lat = NULL_SKETCH
        self._write_lat = NULL_SKETCH

    def instrument(self, metrics) -> None:
        """Publish per-operation round-trip latency quantiles."""
        self._read_lat = metrics.sketch("repro.op.read_latency")
        self._write_lat = metrics.sketch("repro.op.write_latency")

    def initial_state(self) -> ClientState:
        start = (
            self.schedule.start_delay
            if self.schedule is not None
            else self.workload.start_delay
        )
        return ClientState(next_inv_time=start)

    def _operation_budget(self) -> int:
        if self.schedule is not None:
            return len(self.schedule)
        return self.workload.operations

    def _think(self, state: ClientState) -> float:
        if self.schedule is not None:
            # think time planned after the operation that just completed
            return self.schedule.ops[state.issued - 1].think_after
        return self._rng.uniform(self.workload.think_min, self.workload.think_max)

    def enabled(self, state: ClientState, now: float) -> List[Action]:
        if state.pending is not None:
            return []
        if state.issued >= self._operation_budget():
            return []
        if now + _TOLERANCE < state.next_inv_time:
            return []
        vocabulary = self.vocabulary
        if self.schedule is not None:
            planned = self.schedule.ops[state.issued]
            if planned.kind == "R":
                return [Action(vocabulary.READ, (self.node,))]
            return [Action(vocabulary.WRITE, (self.node, planned.value))]
        # pure_enabled is True only in replay mode (schedule set), where
        # the branch above returns first; these RNG draws are reachable
        # only with pure_enabled=False
        rng = self._rng
        if rng.random() < self.workload.read_fraction:
            query = self.payloads(rng, self.node, self._seq, False)
            if query is None:
                return [Action(vocabulary.READ, (self.node,))]
            return [Action(vocabulary.READ, (self.node, query))]
        update = self.payloads(rng, self.node, self._seq, True)
        return [Action(vocabulary.WRITE, (self.node, update))]

    def fire(self, state: ClientState, action: Action, now: float) -> None:
        if state.pending is not None:
            raise TransitionError(f"{self.name}: invocation while pending")
        if action.name == self.vocabulary.READ:
            kind = "R"
        elif action.name == self.vocabulary.WRITE:
            self._seq += 1
            kind = "W"
        else:
            raise TransitionError(f"{self.name}: cannot fire {action}")
        params = action.params
        state.pending = (kind, params[1] if len(params) > 1 else None, now)
        state.issued += 1

    def apply_input(self, state: ClientState, action: Action, now: float) -> None:
        if state.pending is None:
            raise TransitionError(f"{self.name}: response with nothing pending")
        kind, arg, inv_time = state.pending
        if action.name == self.vocabulary.RETURN:
            if kind != "R":
                raise TransitionError(f"{self.name}: {action.name} answers a write")
            response = action.params[1]
            self._read_lat.observe(now - inv_time)
        elif action.name == self.vocabulary.ACK:
            if kind != "W":
                raise TransitionError(f"{self.name}: {action.name} answers a read")
            response = None
            self._write_lat.observe(now - inv_time)
        else:
            raise TransitionError(f"{self.name}: unexpected input {action}")
        # repro: lint-ignore[ISO003] -- the returned value is recorded
        # for the offline linearizability checker, which only reads it
        state.completed.append(Operation(
            state.issued - 1, self.node, kind, arg, response, inv_time, now
        ))
        state.pending = None
        state.next_inv_time = now + self._think(state)

    def deadline(self, state: ClientState, now: float) -> float:
        if state.pending is not None:
            return INFINITY
        if state.issued >= self._operation_budget():
            return INFINITY
        return max(state.next_inv_time, now)
