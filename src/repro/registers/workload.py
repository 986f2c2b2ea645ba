"""Register clients and workload generation.

A :class:`ClientEntity` drives one node with an alternating sequence of
invocations (satisfying the alternation condition of Section 6.1):
``READ_i`` / ``WRITE_i(v)`` outputs, ``RETURN_i(v)`` / ``ACK_i`` inputs.
Written values are globally unique (``(node, seq)`` pairs), which both
matches the paper's unique-message assumption and makes linearizability
checking unambiguous.

Clients record every completed operation with invocation and response
times, so latency analysis does not have to re-parse the trace.

Two modes of schedule generation:

- **online** (default, historical behavior): the read-vs-write choice is
  drawn inside ``enabled()`` and the think time inside ``apply_input``,
  so the sequence depends on engine polling. Kept byte-identical for
  every existing seeded experiment.
- **replay**: pass a precomputed
  :class:`~repro.registers.opstream.OpSchedule` and the client follows
  it exactly — the mode the live backend shares, so a sim run and a
  live run of the same seed issue identical operation streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.automata.signature import Signature
from repro.components.base import Entity
from repro.errors import TransitionError
from repro.obs.metrics import NULL_SKETCH
from repro.registers.opstream import OpSchedule, client_rng

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE


@dataclass
class RegisterWorkload:
    """Parameters of a closed-loop register workload."""

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
class CompletedOp:
    """One completed operation as seen by the client."""

    kind: str  # "R" or "W"
    value: object
    inv_time: float
    res_time: float

    @property
    def latency(self) -> float:
        return self.res_time - self.inv_time


@dataclass
class ClientState:
    next_inv_time: float = 0.0
    issued: int = 0
    pending: Optional[Tuple[str, object, float]] = None  # (kind, value, inv)
    completed: List[CompletedOp] = field(default_factory=list)


class ClientEntity(Entity):
    """Closed-loop client for node ``i``.

    With ``schedule=None`` (the default), operations are drawn online
    from the workload RNG — the historical mode. With a precomputed
    :class:`~repro.registers.opstream.OpSchedule`, the client replays it
    deterministically; ``enabled`` then becomes a pure function of
    ``(state, now)``, which the instance advertises to the engine.
    """

    # In online mode enabled() draws from the workload RNG (read-vs-write
    # choice), so the engine must re-evaluate it every round to keep the
    # draw sequence identical across execution strategies. Replay mode
    # overrides this per instance (see __init__).
    pure_enabled = False

    def __init__(
        self,
        node: int,
        workload: RegisterWorkload,
        schedule: Optional[OpSchedule] = None,
    ):
        signature = Signature(
            inputs=PatternActionSet(
                [ActionPattern("RETURN", (node,)), ActionPattern("ACK", (node,))]
            ),
            outputs=PatternActionSet(
                [ActionPattern("READ", (node,)), ActionPattern("WRITE", (node,))]
            ),
        )
        super().__init__(f"client({node})", signature)
        self.node = node
        self.workload = workload
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
        if self.schedule is not None:
            planned = self.schedule.ops[state.issued]
            if planned.kind == "R":
                return [Action("READ", (self.node,))]
            return [Action("WRITE", (self.node, planned.value))]
        # pure_enabled is True only in replay mode (schedule set), where
        # the branch above returns first; this RNG draw is reachable only
        # with pure_enabled=False
        if self._rng.random() < self.workload.read_fraction:
            return [Action("READ", (self.node,))]
        value = ("v", self.node, self._seq)
        return [Action("WRITE", (self.node, value))]

    def fire(self, state: ClientState, action: Action, now: float) -> None:
        if state.pending is not None:
            raise TransitionError(f"{self.name}: invocation while pending")
        if action.name == "READ":
            state.pending = ("R", None, now)
        elif action.name == "WRITE":
            self._seq += 1
            state.pending = ("W", action.params[1], now)
        else:
            raise TransitionError(f"{self.name}: cannot fire {action}")
        state.issued += 1

    def apply_input(self, state: ClientState, action: Action, now: float) -> None:
        if state.pending is None:
            raise TransitionError(f"{self.name}: response with nothing pending")
        kind, value, inv_time = state.pending
        if action.name == "RETURN":
            if kind != "R":
                raise TransitionError(f"{self.name}: RETURN answers a write")
            # repro: lint-ignore[ISO003] -- the returned value is recorded
            # for the offline linearizability checker, which only reads it
            state.completed.append(
                CompletedOp("R", action.params[1], inv_time, now)
            )
            self._read_lat.observe(now - inv_time)
        elif action.name == "ACK":
            if kind != "W":
                raise TransitionError(f"{self.name}: ACK answers a read")
            state.completed.append(CompletedOp("W", value, inv_time, now))
            self._write_lat.observe(now - inv_time)
        else:
            raise TransitionError(f"{self.name}: unexpected input {action}")
        state.pending = None
        state.next_inv_time = now + self._think(state)

    def deadline(self, state: ClientState, now: float) -> float:
        if state.pending is not None:
            return INFINITY
        if state.issued >= self._operation_budget():
            return INFINITY
        return max(state.next_inv_time, now)
