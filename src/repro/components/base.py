"""Base interfaces of the executable layer.

Two levels of abstraction:

:class:`Process`
    An algorithm automaton ``A_i`` exactly as the paper's *programming
    model* (Section 3) intends: written against perfect real time. Its
    methods receive the current time as an argument; the process never
    stores or extrapolates it. This discipline is what makes Simulation 1
    a *reinterpretation*: the clock transformation ``C(A_i, eps)``
    (Definition 4.1) runs the same process but passes the node's *clock*
    where the timed model passes ``now``.

:class:`Entity`
    A top-level unit the simulator schedules: a node, a channel, a
    client, or a tick source. Entities own mutable state, expose enabled
    locally controlled actions, accept inputs, and constrain time passage
    through deadlines (the operational reading of the ``nu``
    precondition).

State objects are plain mutable Python objects owned by the engine's
state map; processes define their own state classes (dataclasses,
usually) and mutate them in ``fire``/``apply_input``.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.automata.actions import Action
from repro.automata.signature import Signature

INFINITY = float("inf")


class ProcessContext:
    """Immutable per-step context handed to a process.

    ``time`` is whatever notion of time the surrounding model provides:
    the global ``now`` in the timed model, the node's ``clock`` in the
    clock and MMT models. Processes must treat it as opaque "current
    time" — that is the whole point of the paper's design discipline.
    """

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time

    def __repr__(self) -> str:
        return f"ProcessContext(time={self.time:g})"


class Process:
    """An algorithm automaton ``A_i`` in the simple programming model.

    Subclasses implement the five transition methods. All methods take
    the current time explicitly; a correct process never caches it.

    The action signature must conform to the network interface of
    Section 3.1: outputs include ``SENDMSG_i(j, m)`` for each outgoing
    edge, inputs include ``RECVMSG_i(j, m)`` for each incoming edge.

    The three class-level scheduling hints mirror the :class:`Entity`
    contract (see there for the precise promises); a process wrapped by
    :class:`TimedNodeEntity` (or the clock/MMT node entities) hands them
    to the engine's incremental scheduler. The deadline hints default to
    the conservative ``False``; ``pure_enabled`` defaults to ``True``
    like the entity contract — a process drawing from an RNG inside
    ``enabled`` must override it.
    """

    #: Promise: ``enabled(state, ctx)`` is a pure function of
    #: ``(state, ctx.time)`` — no randomness, no observable mutation.
    pure_enabled: bool = True
    #: Promise: ``deadline(state, ctx)`` depends only on state mutated by
    #: ``fire``/``apply_input`` — never on the current time itself.
    static_deadline: bool = False
    #: Promise: absent ``fire``/``apply_input``, the ``enabled`` set can
    #: only change when time crosses the process's current deadline.
    wakes_at_deadline: bool = False

    def __init__(self, node: int, signature: Signature, name: str = ""):
        self.node = node
        self.signature = signature
        self.name = name or f"{type(self).__name__}({node})"

    # -- transitions ----------------------------------------------------------

    def initial_state(self) -> Any:
        """A fresh mutable state object."""
        raise NotImplementedError

    def apply_input(self, state: Any, action: Action, ctx: ProcessContext) -> None:
        """Apply an input action (must be total: inputs are always accepted)."""
        raise NotImplementedError

    def enabled(self, state: Any, ctx: ProcessContext) -> List[Action]:
        """Locally controlled actions enabled at the current time."""
        raise NotImplementedError

    def fire(self, state: Any, action: Action, ctx: ProcessContext) -> None:
        """Perform an enabled locally controlled action."""
        raise NotImplementedError

    def deadline(self, state: Any, ctx: ProcessContext) -> float:
        """Latest time to which time passage may advance (``nu`` guard).

        Returning the current time makes some enabled action *urgent*;
        returning :data:`INFINITY` places no constraint. The engine never
        advances time beyond any entity's deadline.
        """
        return INFINITY

    def __repr__(self) -> str:
        return f"<{self.name}>"


class Entity:
    """A top-level scheduling unit of the simulator.

    The engine holds one mutable state object per entity (created by
    :meth:`initial_state`) and interacts through the methods below.
    ``now`` is always the global real time.
    """

    name: str
    signature: Signature

    # -- incremental-scheduling contract (see docs/performance.md) --------
    #
    # The engine's event-driven core caches enabled sets and deadlines
    # between events and re-derives them only for entities whose state
    # may have changed. The three hints below let entities widen what the
    # engine may cache; every default is the conservative choice, under
    # which the incremental engine behaves exactly like the full-scan
    # one. Violating a declared promise silently desynchronizes the
    # incremental path from the reference path — the conformance suite
    # (tests/test_engine_incremental.py) exists to catch that.

    #: Promise: ``enabled(state, now)`` is a pure function of
    #: ``(state, now)`` — no randomness, no observable mutation. Entities
    #: that draw from an RNG inside ``enabled`` must set this ``False``
    #: so the engine re-evaluates them every scheduling round (keeping
    #: their draw sequence identical to the full-scan engine's).
    pure_enabled: bool = True
    #: Promise: ``deadline(state, now)`` depends only on state mutated by
    #: ``fire``/``apply_input`` — not on ``now``, and not on ``advance``.
    #: Lets the engine keep the entity's deadline in a min-heap across
    #: time advances instead of recomputing it per advance.
    static_deadline: bool = False
    #: Promise: absent ``fire``/``apply_input``, the ``enabled`` set only
    #: changes when time crosses the entity's current deadline. Only
    #: honored together with ``static_deadline``; lets the engine skip
    #: re-scanning the entity after unrelated time advances. The engine
    #: then skips the entity's ``advance`` as well: whatever it tracks
    #: over time it must derive from the ``now`` its methods are handed.
    wakes_at_deadline: bool = False

    def __init__(self, name: str, signature: Signature):
        self.name = name
        self.signature = signature

    def initial_state(self) -> Any:
        """A fresh mutable state object for one run."""
        raise NotImplementedError

    def accepts(self, action: Action) -> bool:
        """Whether the action is an input of this entity."""
        return self.signature.is_input(action)

    def apply_input(self, state: Any, action: Action, now: float) -> None:
        """Apply an input action arriving at real time ``now``."""
        raise NotImplementedError

    def enabled(self, state: Any, now: float) -> List[Action]:
        """Locally controlled actions enabled at real time ``now``."""
        raise NotImplementedError

    def fire(self, state: Any, action: Action, now: float) -> None:
        """Perform one enabled locally controlled action."""
        raise NotImplementedError

    def deadline(self, state: Any, now: float) -> float:
        """Latest real time to which time passage may advance."""
        return INFINITY

    def advance(self, state: Any, old_now: float, new_now: float) -> None:
        """Update time-dependent internal state (clocks, timers)."""

    def clock_value(self, state: Any, now: float) -> Optional[float]:
        """The entity's local clock, if it has one (for trace stamping).

        Timed-model nodes return ``now`` itself (their clock *is* real
        time); clock-model and MMT-model nodes return their local clock;
        channels and other clock-less entities return ``None``.
        """
        return None

    def instrument(self, metrics: Any) -> None:
        """Bind observability instruments from a metrics registry.

        The engine calls this once per run, before :meth:`initial_state`.
        Entities that publish metrics (channels, clock nodes, tick
        sources) override it to bind counters/gauges/histograms; the
        default is a no-op, so uninstrumented entities cost nothing.
        """

    def __repr__(self) -> str:
        return f"<Entity {self.name}>"


class TimedNodeEntity(Entity):
    """A node of the timed-model system ``D_T`` (Section 3.3).

    Wraps a :class:`Process`, handing it the global ``now`` as its time —
    the programming model's perfect clock.
    """

    def __init__(self, process: Process):
        super().__init__(process.name, process.signature)
        self.process = process
        # The node's scheduling contract is exactly its process's — all
        # three flags. (Dropping one here once silently pinned every
        # timed node to the Entity default; TestContractForwarding in
        # tests/test_components_base.py now guards this.)
        self.pure_enabled = getattr(process, "pure_enabled", True)
        self.static_deadline = getattr(process, "static_deadline", False)
        self.wakes_at_deadline = getattr(process, "wakes_at_deadline", False)

    def initial_state(self) -> Any:
        return self.process.initial_state()

    def apply_input(self, state: Any, action: Action, now: float) -> None:
        self.process.apply_input(state, action, ProcessContext(now))

    def enabled(self, state: Any, now: float) -> List[Action]:
        return self.process.enabled(state, ProcessContext(now))

    def fire(self, state: Any, action: Action, now: float) -> None:
        self.process.fire(state, action, ProcessContext(now))

    def deadline(self, state: Any, now: float) -> float:
        return self.process.deadline(state, ProcessContext(now))

    def clock_value(self, state: Any, now: float) -> Optional[float]:
        return now
