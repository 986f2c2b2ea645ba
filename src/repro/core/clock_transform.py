"""Simulation 1: the clock transformation (Section 4).

:class:`ClockMachine` realizes the node-level clock-automaton composition
of Section 4.2: the transformed algorithm ``C(A_i, eps)`` (Definition 4.1
— the *same* process code, handed the node clock wherever the timed model
hands it ``now``) composed with one :class:`~repro.core.buffers.SendBuffer`
per outgoing edge and one :class:`~repro.core.buffers.ReceiveBuffer` per
incoming edge, sharing the node clock (Definition 2.7), with the internal
``SENDMSG``/``RECVMSG`` interface hidden. :class:`PassThroughMachine` has
the same interface for a process designed directly in the clock model
(the Section 6.3 baseline of [10]): no buffers, raw messages.

:class:`ClockNodeEntity` is either machine plus the engine glue: a
:class:`~repro.sim.clock_drivers.ClockDriver` picks the clock trajectory
within the ``C_eps`` envelope, and the machine's clock deadlines are
mapped into real-time deadlines for the simulator.

The node entity evaluates its clock *lazily*: every method that is
handed ``now`` first steps the clock from the instant it was last
evaluated (``clock_at`` on the state) up to ``now``. A node observes
nothing but its own clock (Definition 4.1), so when the driver is
``granularity_free`` — the clock is a function of ``now``, however the
interval is chopped into steps — and the process only wakes at a static
deadline, nothing the node does between two events depends on the time
advances in between. Such a node promises ``static_deadline`` and
``wakes_at_deadline`` itself (its clock deadline mapped to real time
through the driver's inverse, ``target_now``), and the engine neither
advances nor re-scans it. Under any other driver the trajectory depends
on the step sequence, so the promises stay ``False`` and the engine
keeps stepping the clock once per time advance through ``advance``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.automata.signature import Signature
from repro.components.base import Entity, Process, ProcessContext
from repro.core.buffers import ReceiveBuffer, SendBuffer
from repro.errors import TransitionError
from repro.obs.metrics import NULL_GAUGE, NULL_HISTOGRAM, SKEW_BUCKETS
from repro.sim.clock_drivers import ClockDriver

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE


def _observed_skew(now: float, clock: float, eps: float) -> float:
    """``|now - clock|``, squashing envelope-clamp float noise to ``eps``."""
    skew = abs(now - clock)
    if eps < skew <= eps + _TOLERANCE:
        return eps
    return skew


@dataclass
class MachineState:
    """State of the node-level clock composition ``A^c_{i,eps}``.

    ``send_ready`` / ``recv_ready`` are the edges whose send / receive
    buffer is non-empty. Figure 2's guards only constrain the clock
    through *buffered* stamps, so these are all the buffers ``enabled``
    and ``clock_deadline`` have to look at. They are derived from the
    queues: built at construction, kept current by
    :class:`ClockMachine` (the only code that fills or drains a buffer),
    left out of crash-recovery snapshots and rebuilt on restore
    (``__post_restore__``), so a stable-storage image can never revive a
    set that disagrees with the queues.
    """

    clock: float
    proc_state: Any
    send_buffers: Dict[int, SendBuffer]
    recv_buffers: Dict[int, ReceiveBuffer]
    #: real time at which a node entity last evaluated ``clock``
    clock_at: float = 0.0
    send_ready: Set[int] = field(init=False, repr=False, compare=False)
    recv_ready: Set[int] = field(init=False, repr=False, compare=False)

    _SNAPSHOT_DERIVED = ("send_ready", "recv_ready")

    def __post_init__(self) -> None:
        self.__post_restore__()

    def __post_restore__(self) -> None:
        """Rebuild the ready sets from the buffer queues."""
        self.send_ready = {j for j, b in self.send_buffers.items() if b.queue}
        self.recv_ready = {j for j, b in self.recv_buffers.items() if b.queue}


def _edge_rank(edges: Sequence[int]) -> Dict[int, int]:
    """Each edge's position in the order the machine's buffer dicts use."""
    return {j: k for k, j in enumerate(dict.fromkeys(edges))}


def _in_edge_order(ready: Set[int], rank: Dict[int, int]):
    """The ready edges in buffer-dict order (sorting only when needed)."""
    if len(ready) < 2:
        return ready
    return sorted(ready, key=rank.__getitem__)


class ClockMachine:
    """``C(A_i, eps)`` composed with its send/receive buffers.

    Pure, clock-parameterized logic with no knowledge of real time; both
    :class:`ClockNodeEntity` (Simulation 1) and the MMT transformation
    (Simulation 2) drive it — the latter is exactly Theorem 5.2's
    composition of the two simulations.

    The machine fills and drains the buffers and keeps the state's ready
    sets in step, so :meth:`enabled` and :meth:`clock_deadline` cost
    O(non-empty buffers), not O(degree). :meth:`enabled` visits the
    ready buffers in edge order (``out_edges``, then ``in_edges``): the
    list equals a scan over every buffer, entry for entry.
    """

    def __init__(
        self,
        process: Process,
        out_edges: Sequence[int],
        in_edges: Sequence[int],
    ):
        self.process = process
        self.node = process.node
        self.name = f"{process.name}^c"
        self.signature = _node_signature(process, process.node)
        self.out_edges = list(out_edges)
        self.in_edges = list(in_edges)
        self._send_rank = _edge_rank(self.out_edges)
        self._recv_rank = _edge_rank(self.in_edges)
        self._metrics = None

    # -- observability -------------------------------------------------------

    def instrument(self, metrics) -> None:
        """Remember the registry so fresh states bind buffer instruments."""
        self._metrics = metrics

    def bind_instruments(self, state: MachineState) -> None:
        """Bind the state's buffers to the remembered registry, if any."""
        if self._metrics is not None:
            for buf in (*state.send_buffers.values(), *state.recv_buffers.values()):
                buf.bind_instruments(self._metrics)

    # -- state ---------------------------------------------------------------

    def initial_state(self) -> MachineState:
        """A fresh machine state: clock 0, empty buffers."""
        state = MachineState(
            clock=0.0,
            proc_state=self.process.initial_state(),
            send_buffers={j: SendBuffer(self.node, j) for j in self.out_edges},
            recv_buffers={j: ReceiveBuffer(j, self.node) for j in self.in_edges},
        )
        self.bind_instruments(state)
        return state

    # -- transitions -----------------------------------------------------------

    def enabled(self, state: MachineState) -> List[Action]:
        """All locally controlled actions enabled at the current clock."""
        clock = state.clock
        actions = list(self.process.enabled(state.proc_state, ProcessContext(clock)))
        for j in _in_edge_order(state.send_ready, self._send_rank):
            sbuf = state.send_buffers[j]
            if sbuf.can_emit(clock):
                message, stamp = sbuf.front()
                actions.append(
                    Action("ESENDMSG", (self.node, j, (message, stamp)))
                )
        for j in _in_edge_order(state.recv_ready, self._recv_rank):
            rbuf = state.recv_buffers[j]
            if rbuf.can_deliver(clock):
                message, _ = rbuf.front()
                actions.append(Action("RECVMSG", (self.node, j, message)))
        return actions

    def fire(self, state: MachineState, action: Action) -> None:
        """Perform one enabled locally controlled action.

        ``SENDMSG`` (a process output, internal to the node) is routed
        into the matching send buffer; ``RECVMSG`` (a receive-buffer
        output, internal to the node) is routed into the process;
        ``ESENDMSG`` leaves the node (the caller forwards it to the
        channel); everything else is the process's own action. A
        ``SENDMSG`` on an edge the node does not have is refused before
        the process sees it.
        """
        ctx = ProcessContext(state.clock)
        if action.name == "ESENDMSG":
            j = action.params[1]
            sbuf = state.send_buffers[j]
            sbuf.emit(state.clock)
            if not sbuf.queue:
                state.send_ready.discard(j)
            return
        if action.name == "RECVMSG":
            j = action.params[1]
            rbuf = state.recv_buffers[j]
            rbuf.deliver(state.clock)
            if not rbuf.queue:
                state.recv_ready.discard(j)
            self.process.apply_input(state.proc_state, action, ctx)
            return
        if action.name == "SENDMSG":
            j = action.params[1]
            if j not in state.send_buffers:
                raise TransitionError(
                    f"node {self.node}: SENDMSG to {j} but no edge ({self.node},{j})"
                )
            self.process.fire(state.proc_state, action, ctx)
            state.send_buffers[j].enqueue(action.params[2], state.clock)
            state.send_ready.add(j)
            return
        self.process.fire(state.proc_state, action, ctx)

    def apply_input(self, state: MachineState, action: Action) -> None:
        """Apply an externally arriving input at the current clock."""
        if action.name == "ERECVMSG":
            j = action.params[1]
            message, stamp = action.params[2]
            if j not in state.recv_buffers:
                raise TransitionError(
                    f"node {self.node}: ERECVMSG from {j} but no edge ({j},{self.node})"
                )
            state.recv_buffers[j].enqueue(message, stamp, state.clock)
            state.recv_ready.add(j)
            return
        ctx = ProcessContext(state.clock)
        self.process.apply_input(state.proc_state, action, ctx)

    def clock_deadline(self, state: MachineState) -> float:
        """Largest clock value time passage may reach (``nu`` guards).

        An empty buffer's guard is ``INFINITY``, so only the ready ones
        can lower the process's own deadline.
        """
        deadline = self.process.deadline(
            state.proc_state, ProcessContext(state.clock)
        )
        for j in state.send_ready:
            deadline = min(deadline, state.send_buffers[j].clock_deadline())
        for j in state.recv_ready:
            deadline = min(deadline, state.recv_buffers[j].clock_deadline())
        return deadline

    # -- statistics (Section 7.2) ------------------------------------------------

    def buffering_stats(self, state: MachineState) -> Dict[str, float]:
        """How often and how long the receive buffers actually held."""
        held = sum(r.held_count for r in state.recv_buffers.values())
        hold_clock = sum(r.total_hold_clock for r in state.recv_buffers.values())
        return {"messages_held": held, "total_hold_clock": hold_clock}


def _node_signature(process: Process, node: int) -> Signature:
    """Signature of the transformed node ``A^c_{i,eps}`` (Section 4.2).

    External inputs: the process's non-network inputs plus ``ERECVMSG``;
    external outputs: the process's non-network outputs plus ``ESENDMSG``;
    the ``SENDMSG``/``RECVMSG`` interface and the process internals are
    internal to the node.
    """
    from repro.automata.signature import _DifferenceActionSet
    from repro.automata.actions import UnionActionSet

    network_in = PatternActionSet([ActionPattern("RECVMSG", (node,))])
    network_out = PatternActionSet([ActionPattern("SENDMSG", (node,))])
    erecv = PatternActionSet([ActionPattern("ERECVMSG", (node,))])
    esend = PatternActionSet([ActionPattern("ESENDMSG", (node,))])
    inputs = UnionActionSet(
        [_DifferenceActionSet(process.signature.inputs, network_in), erecv]
    )
    outputs = UnionActionSet(
        [_DifferenceActionSet(process.signature.outputs, network_out), esend]
    )
    internals = UnionActionSet(
        [process.signature.internals, network_in, network_out]
    )
    return Signature(inputs=inputs, outputs=outputs, internals=internals)


class PassThroughMachine:
    """A process designed *directly* in the clock model, with no buffers.

    The comparison class of Section 6.3: algorithms like [10]'s that
    were hand-built for inaccurate clocks rather than transformed. The
    process reads the node clock as its time, and its ``SENDMSG`` /
    ``RECVMSG`` go straight to the ordinary channels. The interface is
    :class:`ClockMachine`'s, over a :class:`MachineState` whose buffer
    maps stay empty, so :class:`ClockNodeEntity` and
    :class:`~repro.core.mmt_transform.DelayedSimulation` drive it as
    they drive the buffered machine.
    """

    def __init__(self, process: Process):
        self.process = process
        self.node = process.node
        self.name = f"{process.name}@clock"
        self.signature = process.signature

    def instrument(self, metrics) -> None:
        """No buffers, so no instruments to bind."""

    def bind_instruments(self, state: MachineState) -> None:
        """No buffers, so no instruments to bind."""

    def initial_state(self) -> MachineState:
        """A fresh state: clock 0, no buffers."""
        return MachineState(
            clock=0.0,
            proc_state=self.process.initial_state(),
            send_buffers={},
            recv_buffers={},
        )

    def enabled(self, state: MachineState) -> List[Action]:
        """The process's enabled actions at the current clock."""
        return self.process.enabled(state.proc_state, ProcessContext(state.clock))

    def fire(self, state: MachineState, action: Action) -> None:
        """Perform one of the process's actions at the current clock."""
        self.process.fire(state.proc_state, action, ProcessContext(state.clock))

    def apply_input(self, state: MachineState, action: Action) -> None:
        """Apply an input (a channel's ``RECVMSG`` too) at the current clock."""
        self.process.apply_input(
            state.proc_state, action, ProcessContext(state.clock)
        )

    def clock_deadline(self, state: MachineState) -> float:
        """The process's own deadline, on the clock."""
        return self.process.deadline(state.proc_state, ProcessContext(state.clock))

    def buffering_stats(self, state: MachineState) -> Dict[str, float]:
        """Nothing is ever held: there are no receive buffers."""
        return {"messages_held": 0, "total_hold_clock": 0.0}


class ClockNodeEntity(Entity):
    """A node reading a clock inside ``C_eps``, as a simulator entity.

    ``machine`` is a :class:`ClockMachine` (``A^c_{i,eps}``, the
    Simulation 1 node) or a :class:`PassThroughMachine` (a process
    designed for the clock model); the entity takes its name and
    signature from it. The driver chooses the clock trajectory within
    ``C_eps``; the machine's clock deadlines become real-time deadlines
    through :meth:`~repro.sim.clock_drivers.ClockDriver.max_now`.
    """

    def __init__(self, machine, driver: ClockDriver):
        super().__init__(machine.name, machine.signature)
        # enabled() delegates straight to the wrapped process, so its
        # purity promise is the process's (catching the clock up is
        # idempotent at a given ``now``).
        self.pure_enabled = getattr(machine.process, "pure_enabled", True)
        self.machine = machine
        self.driver = driver
        self.node = machine.node
        self._skew_hist = NULL_HISTOGRAM
        self._skew_max = NULL_GAUGE

    def instrument(self, metrics) -> None:
        """Publish clock-skew samples against the ``C_eps`` envelope."""
        self.machine.instrument(metrics)
        self._skew_hist = metrics.histogram("repro.clock.skew", SKEW_BUCKETS)
        self._skew_max = metrics.gauge("repro.clock.skew_max")
        eps = getattr(self.driver, "eps", None)
        if eps is not None:
            metrics.gauge("repro.clock.eps").set_max(float(eps))

    def initial_state(self) -> MachineState:
        return self.machine.initial_state()

    @property
    def static_deadline(self) -> bool:
        """Whether nothing but the node's own events moves its clock.

        Read off what the driver and the process declare, at the time the
        engine asks — the chaos layer swaps drivers on copies of a node.

        The promise leans on the clock being *on* the driver's trajectory
        whenever a deadline is mapped. A clock below it with the cap within
        the trajectory's reach (``target_now`` then falls back to
        ``cap + eps``) would reach the cap at any earlier instant it is
        stepped at. That takes a clock deadline below a positive offset
        before the node's first step, or a crash recovery — and recovering
        nodes live inside a :class:`~repro.faults.recovery.RecoverableEntity`,
        which promises nothing and re-derives them after every time advance
        (docs/performance.md, "Lazy node clocks").
        """
        process = self.machine.process
        return bool(
            self.driver.granularity_free
            and getattr(process, "static_deadline", False)
            and getattr(process, "wakes_at_deadline", False)
        )

    wakes_at_deadline = static_deadline

    def _catch_up(self, state: MachineState, now: float) -> None:
        """Step the clock from where it was last evaluated up to ``now``."""
        if now > state.clock_at:
            driver = self.driver
            cap = self.machine.clock_deadline(state)
            state.clock = driver.step(state.clock_at, state.clock, now, cap)
            state.clock_at = now
            skew = _observed_skew(now, state.clock, driver.eps)
            self._skew_hist.observe(skew)
            self._skew_max.set_max(skew)

    def apply_input(self, state: MachineState, action: Action, now: float) -> None:
        self._catch_up(state, now)
        self.machine.apply_input(state, action)

    def enabled(self, state: MachineState, now: float) -> List[Action]:
        self._catch_up(state, now)
        return self.machine.enabled(state)

    def fire(self, state: MachineState, action: Action, now: float) -> None:
        self._catch_up(state, now)
        self.machine.fire(state, action)

    def deadline(self, state: MachineState, now: float) -> float:
        self._catch_up(state, now)
        cap = self.machine.clock_deadline(state)
        return self.driver.target_now(now, state.clock, cap)

    def advance(self, state: MachineState, old_now: float, new_now: float) -> None:
        self._catch_up(state, new_now)

    def clock_value(self, state: MachineState, now: float) -> Optional[float]:
        self._catch_up(state, now)
        return state.clock

    def on_recover(self, state: MachineState, now: float) -> None:
        """Crash-recovery hook (:class:`~repro.faults.recovery.RecoverableEntity`).

        A restored snapshot carries the clock value from the crash
        instant, but the hardware clock kept running while the node was
        down — a rebooting node re-reads it, so the clock jumps forward
        into the ``C_eps`` envelope at the recovery time (to its lower
        edge: the minimal, deterministic legal jump). Clock deadlines
        the jump passes over become immediately urgent
        (``target_now`` maps ``cap <= clock`` to ``now``), so overdue
        work fires at the resumed clock before time passes — processes
        with timetable semantics must tolerate firing late (see
        :class:`~repro.detector.heartbeat.HeartbeatSender`). The jumped
        value counts as evaluated at ``now``: the next step starts from
        here, not from the snapshot's crash instant. The
        snapshot round-trip also rebuilt the buffers as decoupled
        copies (and the ready sets from their queues), so their metrics
        instruments are re-bound to the live registry.
        """
        state.clock = max(state.clock, now - self.driver.eps, 0.0)
        state.clock_at = now
        self.machine.bind_instruments(state)

    def buffering_stats(self, state: MachineState) -> Dict[str, float]:
        """Receive-buffer hold statistics (Section 7.2)."""
        return self.machine.buffering_stats(state)
