"""One live register node: ``ClockMachine(AlgorithmSProcess)`` plus a transport.

The node is the paper's ``A^c_{i,eps}`` (Section 4.2): the
:class:`~repro.core.clock_transform.ClockMachine` the simulator and the
MMT pipeline run — ``C(S_i, eps)`` composed with one Figure 2 send
buffer per out-edge and one receive buffer per in-edge — on a
:class:`~repro.live.clock.LiveClock` driven by a simulator
:class:`~repro.sim.clock_drivers.ClockDriver` within ``C_eps``. The
node holds one ``MachineState`` and only moves the machine's external
actions over asyncio TCP:

- a fired ``ESENDMSG(i, j, (m, stamp))`` is the ``msg`` frame written to
  peer ``j``; for ``j == i`` (the algorithm updates its own copy by
  message) it is a local ``ERECVMSG``, the self-loop channel;
- an arriving peer ``msg`` frame is an ``ERECVMSG`` input;
- a client ``read``/``write`` frame is the process's ``READ``/``WRITE``
  input, and its ``RETURN``/``ACK`` output is the client's response.

**Observation.** The node is a :class:`~repro.obs.trace.Tracer` source,
like the simulator's engine: every action it fires, every invocation it
applies and every ``ERECVMSG`` (peer or self-loop) goes to
``tracer.action(now, owner, action, clock, visible)`` with ``now`` real
time on the cluster epoch, ``clock`` the machine clock for the node's
own actions (``None`` for inputs), the owner names the simulator gives
the same entities (``S(i)^c`` or ``arq(S(i))^c``, ``chan[j->i]^c``,
``client(i)``), and ``visible`` true for the process's invocation and
response vocabulary. So the chaos monitors, ``JsonlTracer`` and its
span book run unchanged on a live cluster; the default null tracer
costs one no-op call per action and adds nothing to any frame.

A timer task sleeps until the machine's ``clock_deadline``, sets the
machine's clock from the live clock and drains: it fires enabled
actions until none is left. Figure 3's one guard is ``scheduled <= now``,
so an event loop that wakes strictly after a deadline by its scheduling
jitter fires the overdue action.

**Fault tolerance.** Three layers, all inert in a fault-free run:

- *wire hardening* — malformed or truncated frames and handler-level
  protocol errors (a ``msg`` from a node with no edge here included)
  are logged-and-dropped (counted in the ``repro.live.wire_errors``
  metric), never allowed to kill a serve loop; an abruptly closed peer
  link is re-dialed in the background;
- *crash recovery* — :meth:`crash` snapshots the machine state (process
  state and Figure 2 buffers) through the same
  ``encode_state``/``decode_state`` stable-storage protocol the chaos
  layer's :class:`~repro.faults.recovery.RecoverableEntity` uses, then
  abruptly drops every connection; :meth:`recover` restores the
  snapshot (``__post_restore__`` rebuilding derived caches), re-binds
  the *same* port, and re-dials the mesh — the clock, unread while
  down, jumps to the ``C_eps`` envelope edge on its first post-recovery
  read, exactly the simulator's crash-recovery clock semantics;
- *peer ARQ* — :meth:`attach_faults` makes the machine the simulator's
  ``ClockMachine(ReliableAdapter(AlgorithmSProcess))``, whose ``DATA`` /
  ``ACK`` frames ride in ``msg`` frames; retransmission every
  ``params.retry_base`` seconds until acked (``max_attempts=inf``)
  makes outages *delay* updates instead of losing them — the
  :func:`~repro.faults.retransmit.effective_delay_bounds` regime.

Client invocations queue per node and run one at a time through the
single-op Figure 3 automaton, with the alternation condition enforced
per *client* (``cid``-tagged frames); a retried invocation of an
already-executed operation gets the cached response replayed instead of
executing twice, which makes client-side retry safe for writes.
"""

from __future__ import annotations

import asyncio
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.automata.actions import Action
from repro.constants import INFINITY
from repro.core.clock_transform import ClockMachine
from repro.errors import LiveServiceError, TransitionError
from repro.faults.partition import DropWindow
from repro.faults.retransmit import ReliableAdapter, arq_frame
from repro.live.clock import LiveClock
from repro.live.params import LiveParams
from repro.live.wire import decode_frame, encode_frame
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.registers.algorithm_s import AlgorithmSProcess
from repro.registers.system import INITIAL_VALUE
from repro.sim.clock_drivers import ClockDriver
from repro.sim.persistence import decode_state, encode_state

#: Floor on the timer sleep when a deadline is already overdue but the
#: clock has not quite caught up to it (tolerance-edge states) — keeps
#: the loop from busy-spinning without measurably delaying anything.
MIN_SLEEP = 1e-4


def _update(m):
    """A wire ``[value, t]`` as Algorithm S's ``(value, t)`` message."""
    update, t = m
    return (update, float(t))


class LiveRegisterNode:
    """One node of the live cluster: server, peer mesh, timer loop."""

    def __init__(
        self,
        node: int,
        params: LiveParams,
        driver: ClockDriver,
        epoch: float,
        host: str = "127.0.0.1",
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
    ):
        peers = list(range(params.n))
        self.node = node
        self.params = params
        self.host = host
        self.process = AlgorithmSProcess(
            node, peers, params.d2_prime, params.c, params.eps,
            delta=params.delta, initial_value=INITIAL_VALUE,
        )
        self.machine = ClockMachine(
            self.process, out_edges=peers, in_edges=peers
        )
        self.state = self.machine.initial_state()
        self.clock = LiveClock(driver, epoch)
        #: real time of the last clock read, the ``now`` of traced actions
        self._real = 0.0
        self.tracer = tracer
        # owners as the simulator names the same entities
        self._owner = f"{self.process.name}^c"
        self._chan_owner = {j: f"chan[{j}->{node}]^c" for j in peers}
        self._client_owner = f"client({node})"
        self._visible = frozenset((
            self.process.READ, self.process.WRITE,
            self.process.RETURN, self.process.ACK,
        ))
        # a crashed peer's FIN shows only on the reader (the writer
        # stays open), so each outgoing link keeps both
        self._peer_links: Dict[int, tuple] = {}  # dst -> (reader, writer)
        self._peer_addresses: Optional[List[Tuple[str, int]]] = None
        self._reconnect: Dict[int, asyncio.Task] = {}
        self._conns: Set[asyncio.StreamWriter] = set()
        # invocation serialization: one op inside the automaton at a
        # time (the node-level alternation condition), the rest queued;
        # the per-client alternation guard is keyed on cid (or, for
        # legacy untagged clients, on their connection)
        self._active: Optional[dict] = None
        self._waiting: Deque[dict] = deque()
        self._inflight: Dict[object, dict] = {}
        self._done: Dict[str, Tuple[object, dict]] = {}
        #: the fault plan's drop windows (partitions, drop bursts)
        self.drop_windows: Tuple[DropWindow, ...] = ()
        self._arq = False
        # crash recovery
        self._down = False
        self._snapshot = None
        self.crashes = 0
        self.recoveries = 0
        self.inputs_lost = 0
        self.retransmits = 0
        self.wire_errors = 0
        self.dropped = 0
        self.orphan_responses = 0
        # per drain: the fault-free broadcast's shared ``msg`` frame per
        # (update, t, stamp), and the frame ``_wire_send`` encoded last
        self._frames: Dict[tuple, dict] = {}
        self._encoded: Tuple[Optional[dict], bytes] = (None, b"")
        self._kick = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._timer_task: Optional[asyncio.Task] = None
        self.port: Optional[int] = None
        # wire-delay measurement (one-way; meaningful because all nodes
        # of a cluster share one epoch inside one process)
        self._wire_count = 0
        self._wire_sum = 0.0
        self._wire_max = 0.0
        self._msgs_sent = metrics.counter("repro.live.msgs.sent")
        self._msgs_received = metrics.counter("repro.live.msgs.received")
        self._wire_errors_counter = metrics.counter("repro.live.wire_errors")
        self._retransmits_counter = metrics.counter("repro.live.retransmits")
        self._crashes_counter = metrics.counter("repro.chaos.crashes")
        self._recoveries_counter = metrics.counter("repro.chaos.recoveries")
        self._wire_sketch = metrics.sketch("repro.live.wire.delay")
        self.clock.skew_sketch = metrics.sketch("repro.live.clock.skew")
        self._metrics = metrics

    # -- lifecycle -----------------------------------------------------------

    @property
    def down(self) -> bool:
        """Whether the node is currently crashed."""
        return self._down

    def attach_faults(self, drop_windows: Tuple[DropWindow, ...]) -> None:
        """Arm the plan's drop windows and the peer ARQ layer (chaos runs).

        Must be called before :meth:`start`; fault-free clusters never
        call it, which keeps their peer traffic byte-identical to the
        pre-chaos protocol.
        """
        if self._timer_task is not None:
            raise LiveServiceError(
                f"node {self.node}: attach_faults after start"
            )
        self.drop_windows = tuple(drop_windows)
        self._dropped_counter = self._metrics.counter(
            "repro.live.wire.dropped"
        )
        self.machine = ClockMachine(
            ReliableAdapter(
                self.process, retransmit_interval=self.params.retry_base,
                max_attempts=math.inf,
            ),
            out_edges=self.machine.out_edges,
            in_edges=self.machine.in_edges,
        )
        self.state = self.machine.initial_state()
        self._arq = True
        self._owner = f"{self.machine.process.name}^c"

    async def start(self) -> Tuple[str, int]:
        """Bind the server socket (ephemeral port) and start the timer."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._timer_task = asyncio.ensure_future(self._run_timer())
        return self.host, self.port

    async def connect_peers(self, addresses: List[Tuple[str, int]]) -> None:
        """Dial every other node; outgoing ``msg`` frames use these links."""
        self._peer_addresses = list(addresses)
        for j, (host, port) in enumerate(addresses):
            if j == self.node:
                continue
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame({"t": "hello", "src": self.node}))
            self._peer_links[j] = (reader, writer)

    async def stop(self) -> None:
        """Stop the timer, close the peer links and the server socket."""
        self._stopped.set()
        self._kick.set()
        for task in self._reconnect.values():
            task.cancel()
        self._reconnect.clear()
        if self._timer_task is not None:
            await self._timer_task
        for _, writer in self._peer_links.values():
            writer.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- crash / recovery ----------------------------------------------------

    async def crash(self) -> None:
        """Go down abruptly: snapshot stable state, drop every connection.

        The snapshot carries the machine state (process state, ARQ
        outbox, Figure 2 buffers) and the response cache — the node's
        "stable storage", exactly what the simulator's
        :class:`~repro.faults.recovery.RecoverableEntity` persists.
        Volatile memory (queued invocations, live sockets) is lost.
        """
        if self._down:
            return
        self._down = True
        self.crashes += 1
        self._crashes_counter.inc()
        active_meta = None
        if self._active is not None:
            active_meta = {
                key: self._active.get(key)
                for key in ("key", "cid", "op", "kind")
            }
        self._snapshot = encode_state({
            "state": self.state,
            "done": self._done,
            "active": active_meta,
        })
        # volatile memory: in-flight invocations are simply gone
        self.inputs_lost += len(self._waiting)
        self._active = None
        self._waiting.clear()
        self._inflight.clear()
        self._done = {}
        self.state = self.machine.initial_state()
        # every connection dies abruptly (RST, not FIN): peers and
        # clients observe exactly what a process kill looks like
        for task in self._reconnect.values():
            task.cancel()
        self._reconnect.clear()
        for _, writer in self._peer_links.values():
            self._abort(writer)
        self._peer_links.clear()
        for writer in list(self._conns):
            self._abort(writer)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._kick.set()

    async def recover(self) -> None:
        """Come back up: restore the snapshot, re-bind, re-dial the mesh.

        The clock was not read while down; its first post-recovery read
        steps the driver across the whole outage and the ``C_eps`` clamp
        lands it on the envelope edge — overdue timetable work then
        fires late, the crash-recovery semantics of the chaos layer.
        """
        if not self._down or self._snapshot is None:
            return
        snap = decode_state(self._snapshot)
        self.state = snap["state"]
        self._done = snap["done"]
        self._active = None
        meta = snap["active"]
        if meta is not None:
            # the operation the automaton was executing at the crash
            # instant: it is inside the restored state and will emit its
            # RETURN/ACK late; route that to the client's retry
            entry = dict(meta)
            entry["value"] = None
            entry["writer"] = None
            self._active = entry
            self._inflight[entry["key"]] = entry
        self.recoveries += 1
        self._recoveries_counter.inc()
        self._down = False
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        if self._peer_addresses is not None:
            for j in self.machine.out_edges:
                if j != self.node:
                    self._ensure_peer(j)
        self._kick.set()

    @staticmethod
    def _abort(writer: asyncio.StreamWriter) -> None:
        """Abruptly drop a connection (no FIN handshake)."""
        try:
            transport = writer.transport
            if transport is not None:
                transport.abort()
            else:
                writer.close()
        except (RuntimeError, OSError):
            pass

    # -- connection handling -------------------------------------------------

    def _wire_error(self, exc: Exception) -> None:
        """Log-and-drop: a bad frame must never kill a serve loop."""
        self.wire_errors += 1
        self._wire_errors_counter.inc()

    async def _on_connection(self, reader, writer) -> None:
        self._conns.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # over-limit line (asyncio's own frame-size guard):
                    # the stream cannot be resynchronized, drop the link
                    self._wire_error(exc)
                    break
                if not line:
                    break
                try:
                    frame = decode_frame(line)
                except LiveServiceError as exc:
                    self._wire_error(exc)
                    continue
                try:
                    self._dispatch(frame, writer)
                except (
                    KeyError, IndexError, TypeError, ValueError, TransitionError,
                ) as exc:
                    # structurally valid JSON, semantically broken frame
                    self._wire_error(exc)
        except (ConnectionResetError, LiveServiceError):
            pass
        except asyncio.CancelledError:
            pass  # event-loop teardown; the cluster is already stopping
        finally:
            self._conns.discard(writer)
            if self._active is not None and self._active.get("writer") is writer:
                self._active["writer"] = None
            for entry in list(self._waiting):
                if entry.get("writer") is writer:
                    if entry.get("cid") is None:
                        # untagged client: its queued op can never be
                        # answered or retried, drop it
                        self._waiting.remove(entry)
                        self._inflight.pop(entry["key"], None)
                    else:
                        entry["writer"] = None
            writer.close()

    def _dispatch(self, frame: dict, writer) -> None:
        kind = frame["t"]
        if self._down:
            # a racing frame on a connection the crash has not torn
            # down yet: a dead node hears nothing
            self.inputs_lost += 1
            return
        if kind == "hello":
            return  # incoming peer link; msg frames follow
        if kind == "msg":
            self._on_peer_msg(frame)
        elif kind in ("read", "write"):
            self._on_invocation(kind, frame, writer)
        elif kind == "stats":
            self._write(writer, self.stats())
        else:
            self._write(writer, {
                "t": "error", "reason": f"unexpected frame {kind!r}",
            })

    def _on_peer_msg(self, frame) -> None:
        src = frame["src"]
        # tuplified by decode_frame; checked here, because a malformed
        # message would raise later, inside the timer's drain
        if self._arq:
            message, seq = arq_frame(frame["m"], _update)
            # only a DATA frame's first copy is measured: an ACK, or a
            # copy the adapter has delivered already, is not
            delivered = self.state.proc_state.delivered.get(src, ())
            first = seq is not None and seq not in delivered
        else:
            message, first = _update(frame["m"]), True
        real = self._read_clock()
        action = Action(
            "ERECVMSG", (self.node, src, (message, frame["stamp"]))
        )
        # the machine refuses a src with no edge into this node
        # (TransitionError) before anything is measured or traced
        self.machine.apply_input(self.state, action)
        self.tracer.action(real, self._chan_owner[src], action, None, False)
        self._kick.set()
        if not first:
            return
        delay = max(0.0, real - frame.get("sr", real))
        self._wire_count += 1
        self._wire_sum += delay
        if delay > self._wire_max:
            self._wire_max = delay
        self._wire_sketch.observe(delay)
        self._msgs_received.inc()

    def _on_invocation(self, kind, frame, writer) -> None:
        cid = frame.get("cid")
        op = frame.get("op")
        if cid is not None:
            # a retry of an operation already in flight re-binds the
            # (possibly reconnected) response channel...
            if (
                self._active is not None
                and self._active.get("cid") == cid
                and self._active.get("op") == op
            ):
                self._active["writer"] = writer
                return
            for entry in self._waiting:
                if entry.get("cid") == cid and entry.get("op") == op:
                    entry["writer"] = writer
                    return
            # ...and a retry of an operation already *executed* gets the
            # cached response replayed (at-most-once semantics)
            done = self._done.get(cid)
            if done is not None and done[0] == op:
                self._write(writer, done[1])
                return
        key = cid if cid is not None else id(writer)
        if key in self._inflight:
            # the alternation condition, per client
            self._write(writer, {
                "t": "error", "reason": "operation already pending",
            })
            return
        # validate before registering anything: a malformed invocation
        # (missing value) must leave no stale inflight entry behind
        value = frame["value"] if kind == "write" else None
        entry = {
            "key": key, "cid": cid, "op": op, "kind": kind,
            "value": value, "writer": writer,
        }
        self._inflight[key] = entry
        self._waiting.append(entry)
        self._pump()
        self._kick.set()

    def _pump(self) -> None:
        """Feed the next queued invocation into the (idle) automaton."""
        process = self.process
        while self._active is None and self._waiting:
            entry = self._waiting.popleft()
            real = self._read_clock()
            if entry["kind"] == "read":
                action = Action(process.READ, (self.node,))
            else:
                action = Action(process.WRITE, (self.node, entry["value"]))
            self.machine.apply_input(self.state, action)
            self.tracer.action(real, self._client_owner, action, None, True)
            self._active = entry

    # -- the timer loop ------------------------------------------------------

    def _read_clock(self) -> float:
        """Set the machine's clock from the live clock; returns real time."""
        self._real, self.state.clock = self.clock.read()
        return self._real

    async def _run_timer(self) -> None:
        while not self._stopped.is_set():
            if self._down:
                await self._kick.wait()
                self._kick.clear()
                continue
            self._read_clock()
            progressed = self._drain()
            deadline = self.machine.clock_deadline(self.state)
            if deadline == INFINITY:
                await self._kick.wait()
                self._kick.clear()
                continue
            delay = self.clock.wall_delay(deadline)
            if delay <= 0.0 and not progressed:
                delay = MIN_SLEEP
            if delay <= 0.0:
                continue
            # the deadline and a kick wake the same event; a timer handle
            # is cheaper than the Task ``asyncio.wait_for`` spawns per sleep
            wake = asyncio.get_running_loop().call_later(delay, self._kick.set)
            try:
                await self._kick.wait()
            finally:
                wake.cancel()
            self._kick.clear()

    def _drain(self) -> bool:
        """Fire the machine's enabled actions at its clock until none is left.

        Deliveries go first: while a ``RECVMSG`` is enabled, only the
        deliveries fire before the machine is polled again, so an update
        they make due applies before a ``RETURN`` reads the value
        (Figure 3's read-the-post-update-value guard). ``enabled`` lists
        the process's own actions first; firing its list in that order
        would return the pre-update value.
        """
        machine, state, process = self.machine, self.state, self.process
        trace, owner, visible = self.tracer.action, self._owner, self._visible
        self._frames.clear()
        self._encoded = (None, b"")
        progressed = False
        while True:
            actions = machine.enabled(state)
            if not actions:
                return progressed
            progressed = True
            deliveries = [a for a in actions if a.name == "RECVMSG"]
            for action in deliveries or actions:
                machine.fire(state, action)
                # a response below may pump the next invocation, which
                # reads the clock again: read the pair per action
                trace(self._real, owner, action, state.clock,
                      action.name in visible)
                if action.name == "ESENDMSG":
                    self._transmit(action.params[1], action.params[2])
                elif action.name == process.RETURN:
                    self._respond({"t": "return", "value": action.params[1]})
                elif action.name == process.ACK:
                    self._respond({"t": "ack"})

    def _transmit(self, dst: int, payload) -> None:
        """Carry one ``ESENDMSG`` payload ``(m, stamp)`` to peer ``dst``.

        Under ARQ, a ``DATA`` frame whose outbox entry has made one
        attempt is a first send (the adapter counted this one when its
        ``SENDMSG`` fired); any other copy that is written is a
        retransmission, and an ``ACK`` is neither.
        """
        message, stamp = payload
        fresh, retransmit = True, False
        if self._arq:
            fresh = False
            if message[0] == "DATA":
                entry = self.state.proc_state.outbox.get((dst, message[1]))
                fresh = entry is not None and entry.attempts == 1
                retransmit = not fresh
        if fresh:
            self._msgs_sent.inc()
        if dst == self.node:
            # self-loop edge: the message re-enters as this node's input
            action = Action("ERECVMSG", (self.node, dst, payload))
            self.machine.apply_input(self.state, action)
            self.tracer.action(
                self._real, self._chan_owner[dst], action, None, False
            )
            return
        if self._wire_send(dst, self._peer_frame(message, stamp)) and retransmit:
            self.retransmits += 1
            self._retransmits_counter.inc()

    def _peer_frame(self, message, stamp) -> dict:
        """The ``msg`` frame carrying ``(message, stamp)`` to a peer.

        A fault-free write's ``ESENDMSG`` to every peer carries one update
        object with one ``t`` and one stamp, so within a drain they share
        one frame: ``sr`` is read once and ``_wire_send`` encodes it once.
        The frame holds the update, so its ``id`` in the key stays unique
        while the entry lives. An ARQ frame carries its destination's
        sequence number and gets a frame of its own.
        """
        key = None if self._arq else (id(message[0]), message[1], stamp)
        frame = self._frames.get(key)
        if frame is None:
            frame = {
                "t": "msg", "src": self.node, "m": list(message),
                "stamp": stamp, "sr": self.clock.real_now(),
            }
            if key is not None:
                self._frames[key] = frame
        return frame

    def _wire_send(self, dst: int, frame: dict) -> bool:
        """Write one frame to a peer, unless a drop window severs the edge.

        Returns False when the frame was dropped (severed edge, counted)
        or the link is down; the ARQ adapter retransmits, and a down
        link is re-dialed.
        """
        if self.drop_windows:
            edge, now = (self.node, dst), self.clock.real_now()
            if any(w.severs(edge, now) for w in self.drop_windows):
                self.dropped += 1
                self._dropped_counter.inc()
                return False
        reader, writer = self._peer_links.get(dst, (None, None))
        if writer is None or writer.is_closing() or reader.at_eof():
            if self._peer_addresses is None:
                raise LiveServiceError(
                    f"node {self.node}: no peer link to {dst} "
                    f"(connect_peers not run?)"
                )
            self._ensure_peer(dst)
            return False
        last, data = self._encoded
        if frame is not last:
            data = encode_frame(frame)
            self._encoded = (frame, data)
        try:
            writer.write(data)
        except (ConnectionError, RuntimeError, OSError) as exc:
            self._wire_error(exc)
            self._ensure_peer(dst)
            return False
        return True

    def _ensure_peer(self, dst: int) -> None:
        """Schedule a background re-dial of a broken peer link."""
        if self._stopped.is_set() or self._down:
            return
        task = self._reconnect.get(dst)
        if task is not None and not task.done():
            return
        self._reconnect[dst] = asyncio.ensure_future(
            self._reconnect_peer(dst)
        )

    async def _reconnect_peer(self, dst: int) -> None:
        delay = self.params.retry_base
        while not self._stopped.is_set() and not self._down:
            try:
                host, port = self._peer_addresses[dst]
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                await asyncio.sleep(delay)
                delay = min(delay * 2.0, 1.0)
                continue
            writer.write(encode_frame({"t": "hello", "src": self.node}))
            old = self._peer_links.get(dst)
            if old is not None and not old[1].is_closing():
                old[1].close()
            self._peer_links[dst] = (reader, writer)
            self._kick.set()
            return

    def _respond(self, frame) -> None:
        entry = self._active
        self._active = None
        if entry is None:
            # a response with nobody to route it to (e.g. the automaton
            # completed an op whose restored metadata was untagged):
            # never kill the timer over it
            self.orphan_responses += 1
            return
        self._inflight.pop(entry["key"], None)
        if entry.get("cid") is not None:
            # cache the response so a retry after a lost reply (client
            # timeout, node crash) replays instead of re-executing
            self._done[entry["cid"]] = (entry.get("op"), dict(frame))
        self._write(entry.get("writer"), frame)
        self._pump()

    def _write(self, writer, frame) -> None:
        """Best-effort frame write; a dead client just misses the reply."""
        if writer is None or writer.is_closing():
            return
        try:
            writer.write(encode_frame(frame))
        except (ConnectionError, RuntimeError, OSError) as exc:
            self._wire_error(exc)

    # -- measurement ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The node-side measurements the load generator's report needs.

        Fault counters appear only when nonzero, so the stats frame of a
        fault-free run is byte-identical to the pre-chaos protocol. The
        monitors' observations are not here: they are on the node's
        tracer.
        """
        real, clk = self.clock.read()
        payload: Dict[str, object] = {
            "t": "stats",
            "node": self.node,
            "real": real,
            "clock": clk,
            "max_skew": self.clock.max_skew,
            "eps": self.params.eps,
            "wire_count": self._wire_count,
            "wire_sum": self._wire_sum,
            "wire_max": self._wire_max,
        }
        for key, value in (
            ("wire_errors", self.wire_errors),
            ("crashes", self.crashes),
            ("recoveries", self.recoveries),
            ("retransmits", self.retransmits),
            ("inputs_lost", self.inputs_lost),
            ("dropped", self.dropped),
        ):
            if value:
                payload[key] = value
        return payload

    def __repr__(self) -> str:
        return f"<LiveRegisterNode {self.node} @ {self.host}:{self.port}>"
