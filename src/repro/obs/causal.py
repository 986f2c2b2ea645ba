"""Causal span tracing: happens-before reconstruction and attribution.

The engine's JSONL trace already records *every* fired action, hidden
ones included. This module turns that flat stream into causal structure:

- :class:`SpanBook` correlates the message-lifecycle actions of the
  clock transformation — ``SENDMSG`` (process -> send buffer
  ``S_{ij,eps}``), ``ESENDMSG`` (buffer -> channel ``E_{ij,[d1,d2]}``),
  ``ERECVMSG`` (channel -> receive buffer ``R_{ji,eps}``), ``RECVMSG``
  (buffer -> process) — into **message spans** with one timestamped
  phase per hop, and the invocation/response pairs of the register and
  of every blind-update object
  (:data:`~repro.traces.linearizability.RESPONSE_OF`) into **operation
  spans**.
  The book runs *online* inside :class:`~repro.obs.trace.JsonlTracer`
  (emitting versioned ``span`` records as the trace is written) and
  *offline* inside :class:`CausalTrace`, re-deriving identical spans
  from the action records of version-1 and version-2 traces alike.
- :class:`CausalTrace` is the queryable analysis engine behind
  ``python -m repro trace``: the happens-before DAG (per-entity program
  order + span edges), per-operation critical paths, write-propagation
  chains, per-phase latency attribution, and the Theorem 6.5 bound
  checks of :func:`check_bounds`.

Message-span phases and their attribution labels::

    enq    SENDMSG_i(j, m)       \\
    xmit   ESENDMSG_i(j, (m,c))   | enq->xmit   send_buffer (eps slack)
    arrive ERECVMSG_j(i, (m,c))   | xmit->arrive channel    ([d1, d2])
    dlv    RECVMSG_j(i, m)       /  arrive->dlv recv_buffer (eps slack)

The timed model has no buffers: its ``SENDMSG``/``RECVMSG`` hop is the
channel itself, so a timed span carries only ``enq``/``dlv`` and the
whole ``enq->dlv`` duration is channel transit. Dropped messages (chaos
``drop_burst``/``partition`` windows, crashes) appear as spans that
never reach ``dlv``; duplicated deliveries would surface as *orphan*
spans (a later phase with no matching earlier one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.constants import TOLERANCE
from repro.obs.trace import read_trace
from repro.sim.recorder import EventRecord, Recorder
from repro.traces.linearizability import QUERIES, RESPONSE_OF, RESPONSES, UPDATES

MSG_PHASES = ("enq", "xmit", "arrive", "dlv")
"""Message-span phases, in lifecycle order."""

PHASE_LABELS = {
    ("enq", "xmit"): "send_buffer",
    ("xmit", "arrive"): "channel",
    ("arrive", "dlv"): "recv_buffer",
    ("enq", "dlv"): "channel",  # timed model: the direct hop
}
"""Attribution label of each consecutive phase pair."""

# Clock stamps round-trip exactly through JSON, but compare with a hair
# of slack so an offline re-derivation can never split a span that the
# online book matched.
_STAMP_TOL = 1e-9

# |now - clock| may exceed eps by envelope-clamp float noise; bound
# checks that derive from the clock envelope allow this much slop
# (matches the chaos monitors' convention).
_ENVELOPE_SLOP = 1e-6


@dataclass
class PhaseStamp:
    """One phase transition: when (real time), at what clock, which event."""

    time: float
    clock: Optional[float] = None
    event: Optional[int] = None  # trace event index; None when online


@dataclass
class MessageSpan:
    """The lifecycle of one message between two nodes."""

    sid: str
    src: int
    dst: int
    payload: object  # the message, without the clock stamp
    stamp: Optional[float] = None
    phases: Dict[str, PhaseStamp] = field(default_factory=dict)
    orphan: bool = False  # a later phase arrived with no matching earlier one

    @property
    def delivered(self) -> bool:
        return "dlv" in self.phases

    @property
    def end_to_end(self) -> Optional[float]:
        """Total real time from first to last observed phase."""
        present = [self.phases[p] for p in MSG_PHASES if p in self.phases]
        if len(present) < 2:
            return None
        return present[-1].time - present[0].time

    def segments(self) -> List[Tuple[str, float, float]]:
        """``(label, start, end)`` per consecutive observed phase pair.

        Consecutive segments share endpoints, so their durations
        telescope to :attr:`end_to_end` exactly.
        """
        present = [p for p in MSG_PHASES if p in self.phases]
        out: List[Tuple[str, float, float]] = []
        for a, b in zip(present, present[1:]):
            label = PHASE_LABELS.get((a, b), f"{a}->{b}")
            out.append((label, self.phases[a].time, self.phases[b].time))
        return out

    def __repr__(self) -> str:
        got = "/".join(p for p in MSG_PHASES if p in self.phases)
        return f"<MessageSpan {self.sid} {self.src}->{self.dst} [{got}]>"


@dataclass
class OperationSpan:
    """One operation's invocation/response round trip, phase-stamped."""

    sid: str
    node: int
    kind: str  # "R" (a query) or "W" (an update)
    inv: PhaseStamp
    res: Optional[PhaseStamp] = None
    value: object = None  # update argument (W) or returned value (R)

    @property
    def complete(self) -> bool:
        return self.res is not None

    @property
    def latency(self) -> Optional[float]:
        return self.res.time - self.inv.time if self.res else None

    def __repr__(self) -> str:
        lat = f" {self.latency:.4f}" if self.res else " open"
        return f"<OperationSpan {self.sid} {self.kind}@{self.node}{lat}>"


class SpanBook:
    """Online correlator: fired actions -> span phase transitions.

    Feed it every fired action in order (exactly what the tracer's
    ``action`` hook sees); it matches lifecycle actions into spans and
    returns the ``span`` records each action produced, ready to write.
    Matching is deterministic: FIFO per ``(src, dst, payload)`` key,
    refined by the clock stamp once one is known, and by minimal stamp
    for deliveries (the receive buffer delivers in stamp order).
    """

    def __init__(self):
        self.spans: List[MessageSpan] = []
        self.ops: List[OperationSpan] = []
        self._open_msgs: Dict[Tuple[int, int, str], List[MessageSpan]] = {}
        self._open_ops: Dict[int, OperationSpan] = {}
        self._op_seq: Dict[int, int] = {}

    # -- helpers -------------------------------------------------------------

    def _new_span(self, src, dst, payload, stamp, orphan=False) -> MessageSpan:
        span = MessageSpan(
            sid=f"m{len(self.spans)}", src=src, dst=dst,
            payload=payload, stamp=stamp, orphan=orphan,
        )
        self.spans.append(span)
        self._open_msgs.setdefault((src, dst, repr(payload)), []).append(span)
        return span

    @staticmethod
    def _stamp_matches(span: MessageSpan, stamp: float) -> bool:
        return span.stamp is None or abs(span.stamp - stamp) <= _STAMP_TOL

    def _match(self, src, dst, payload, have, lack, stamp=None):
        """Earliest open span at the key with phase ``have`` but not ``lack``."""
        candidates = [
            span
            for span in self._open_msgs.get((src, dst, repr(payload)), [])
            if have in span.phases and lack not in span.phases
            and (stamp is None or self._stamp_matches(span, stamp))
        ]
        if not candidates:
            return None
        if stamp is None:
            # delivery order is stamp order (the receive buffer is kept
            # sorted); unknown stamps sort first = plain FIFO
            candidates.sort(
                key=lambda s: (s.stamp if s.stamp is not None else -1.0,
                               int(s.sid[1:]))
            )
        return candidates[0]

    @staticmethod
    def _msg_record(span: MessageSpan, phase: str, when: PhaseStamp) -> Dict:
        return {
            "k": "span", "span": "msg", "sid": span.sid, "ph": phase,
            "now": when.time, "src": span.src, "dst": span.dst,
            "stamp": span.stamp,
        }

    @staticmethod
    def _op_record(op: OperationSpan, phase: str, when: PhaseStamp) -> Dict:
        return {
            "k": "span", "span": "op", "sid": op.sid, "ph": phase,
            "now": when.time, "node": op.node, "kind": op.kind,
            "clock": when.clock,
        }

    # -- the one entry point -------------------------------------------------

    def observe(
        self,
        now: float,
        name: str,
        params: Tuple,
        clock: Optional[float],
        event: Optional[int] = None,
    ) -> List[Dict]:
        """Feed one fired action; returns the span records it produced."""
        when = PhaseStamp(time=now, clock=clock, event=event)

        if name == "SENDMSG" and len(params) >= 3:
            src, dst, payload = params[0], params[1], params[2]
            # In the clock model the firing node's clock *is* the stamp
            # S_{ij,eps} tags the message with; the timed model has no
            # clock, so the stamp stays unknown until ESENDMSG (never,
            # for timed systems — and that is fine).
            span = self._new_span(src, dst, payload, clock)
            span.phases["enq"] = when
            return [self._msg_record(span, "enq", when)]

        if name == "ESENDMSG" and len(params) >= 3:
            src, dst = params[0], params[1]
            payload, stamp = params[2]
            span = self._match(src, dst, payload, "enq", "xmit", stamp=stamp)
            if span is None:
                span = self._new_span(src, dst, payload, stamp, orphan=True)
            span.stamp = stamp
            span.phases["xmit"] = when
            return [self._msg_record(span, "xmit", when)]

        if name == "ERECVMSG" and len(params) >= 3:
            dst, src = params[0], params[1]
            payload, stamp = params[2]
            span = self._match(src, dst, payload, "xmit", "arrive", stamp=stamp)
            if span is None:
                span = self._new_span(src, dst, payload, stamp, orphan=True)
            span.phases["arrive"] = when
            return [self._msg_record(span, "arrive", when)]

        if name == "RECVMSG" and len(params) >= 3:
            dst, src, payload = params[0], params[1], params[2]
            span = self._match(src, dst, payload, "arrive", "dlv")
            if span is None:  # timed model: the direct channel hop
                span = self._match(src, dst, payload, "enq", "dlv")
            if span is None:
                span = self._new_span(src, dst, payload, None, orphan=True)
            span.phases["dlv"] = when
            key = (src, dst, repr(payload))
            if span.delivered and span in self._open_msgs.get(key, []):
                self._open_msgs[key].remove(span)
            return [self._msg_record(span, "dlv", when)]

        if name in RESPONSE_OF and params:
            node = params[0]
            seq = self._op_seq.get(node, 0)
            self._op_seq[node] = seq + 1
            query = name in QUERIES
            op = OperationSpan(
                sid=f"op:{node}:{seq}", node=node,
                kind="R" if query else "W", inv=when,
                value=params[1] if not query and len(params) > 1 else None,
            )
            self.ops.append(op)
            self._open_ops[node] = op
            return [self._op_record(op, "inv", when)]

        if name in RESPONSES and params:
            node = params[0]
            op = self._open_ops.pop(node, None)
            if op is None:
                return []  # truncated trace: response with no invocation
            op.res = when
            if op.kind == "R" and len(params) > 1:
                op.value = params[1]
            return [self._op_record(op, "res", when)]

        return []

    @property
    def open_spans(self) -> List[MessageSpan]:
        """Spans that never reached delivery (in flight, dropped, lost)."""
        return [s for s in self.spans if not s.delivered]


# ---------------------------------------------------------------------------
# the offline analysis engine
# ---------------------------------------------------------------------------


@dataclass
class PathSegment:
    """One edge of a critical path, with its attribution label."""

    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class PropagationChain:
    """The causal chain of one write's update message to one replica."""

    dst: int
    span: MessageSpan
    segments: List[PathSegment]

    @property
    def total(self) -> float:
        return self.segments[-1].end - self.segments[0].start if self.segments else 0.0


class CausalTrace:
    """The happens-before DAG of one run, with latency attribution.

    Build with :meth:`from_file` (any trace version) or
    :meth:`from_records`. The events are the
    :class:`~repro.sim.recorder.EventRecord` values of
    :meth:`Recorder.from_trace <repro.sim.recorder.Recorder.from_trace>`,
    so an event id is its record's ``index``. Spans are re-derived from
    those events through the same :class:`SpanBook` the online tracer
    uses, so a version-1 trace (no ``span`` records) reconstructs
    identically; for version-2 traces the embedded span records double
    as a cross-check (:attr:`span_record_count`).
    """

    def __init__(self, events, spans, ops, meta, span_record_count=0):
        self.events: List[EventRecord] = events
        self.spans: List[MessageSpan] = spans
        self.ops: List[OperationSpan] = ops
        self.meta: Dict[str, object] = meta
        self.span_record_count = span_record_count
        self._edges: Optional[List[Tuple[int, int, str]]] = None
        self._updates_by_node: Optional[Dict[int, List[EventRecord]]] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(cls, records: Iterable[Dict]) -> "CausalTrace":
        records = list(records)
        events = Recorder.from_trace(records).events
        book = SpanBook()
        for ev in events:
            book.observe(
                ev.now, ev.action.name, ev.action.params, ev.clock, event=ev.index
            )
        meta: Dict[str, object] = {}
        span_records = 0
        for record in records:
            kind = record.get("k")
            if kind == "meta":
                payload = record.get("m")
                if isinstance(payload, dict):
                    meta.update(payload)
            elif kind == "span":
                span_records += 1
        return cls(events, book.spans, book.ops, meta, span_records)

    @classmethod
    def from_file(cls, path: str) -> "CausalTrace":
        return cls.from_records(read_trace(path))

    # -- the graph -----------------------------------------------------------

    def edges(self) -> List[Tuple[int, int, str]]:
        """Happens-before edges as ``(from_eid, to_eid, label)``.

        Program order per owner, message edges along span phase chains,
        and invocation->response edges per operation.
        """
        if self._edges is None:
            edges: List[Tuple[int, int, str]] = []
            last_by_owner: Dict[str, int] = {}
            for ev in self.events:
                prev = last_by_owner.get(ev.owner)
                if prev is not None:
                    edges.append((prev, ev.index, "program"))
                last_by_owner[ev.owner] = ev.index
            for span in self.spans:
                present = [
                    span.phases[p] for p in MSG_PHASES if p in span.phases
                ]
                for a, b in zip(present, present[1:]):
                    if a.event is not None and b.event is not None:
                        edges.append((a.event, b.event, "message"))
            for op in self.ops:
                if (
                    op.res is not None
                    and op.inv.event is not None
                    and op.res.event is not None
                ):
                    edges.append((op.inv.event, op.res.event, "operation"))
            self._edges = edges
        return self._edges

    def is_acyclic(self) -> bool:
        """Kahn's algorithm over the full event graph."""
        indegree = [0] * len(self.events)
        out: Dict[int, List[int]] = {}
        for u, v, _label in self.edges():
            indegree[v] += 1
            out.setdefault(u, []).append(v)
        queue = [eid for eid, deg in enumerate(indegree) if deg == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for v in out.get(u, []):
                indegree[v] -= 1
                if indegree[v] == 0:
                    queue.append(v)
        return seen == len(self.events)

    def check(self) -> List[str]:
        """Structural problems (empty list = sound causal graph)."""
        problems: List[str] = []
        if not self.is_acyclic():
            problems.append("causal graph has a cycle")
        for u, v, label in self.edges():
            if self.events[u].now > self.events[v].now + TOLERANCE:
                problems.append(
                    f"{label} edge runs backwards in time: "
                    f"event {u} (t={self.events[u].now:g}) -> "
                    f"event {v} (t={self.events[v].now:g})"
                )
        for span in self.spans:
            if span.delivered and span.orphan:
                problems.append(
                    f"delivery without a matching send: {span!r}"
                )
        return problems

    # -- queries -------------------------------------------------------------

    @property
    def open_spans(self) -> List[MessageSpan]:
        return [s for s in self.spans if not s.delivered]

    def completed_ops(self) -> List[OperationSpan]:
        """Operation spans whose response arrived before the horizon."""
        return [op for op in self.ops if op.complete]

    def critical_path(self, op: OperationSpan) -> List[PathSegment]:
        """The segments whose durations sum to the operation's latency.

        Both the read timer (``c + delta (+2*eps)``) and the write ack
        timer (``d2' - c``) are pure local waits set at invocation
        (Figure 3), so the invocation->response path is a single
        ``local_wait`` segment; the interesting multi-hop structure of
        a write lives in its :meth:`propagation` chains.
        """
        if not op.complete:
            return []
        label = "local_wait(read_timer)" if op.kind == "R" else "local_wait(ack_timer)"
        return [PathSegment(label, op.inv.time, op.res.time)]

    def attribution(self, op: OperationSpan) -> Dict[str, float]:
        """Per-label durations of the operation's critical path."""
        out: Dict[str, float] = {}
        for seg in self.critical_path(op):
            out[seg.label] = out.get(seg.label, 0.0) + seg.duration
        return out

    def _updates(self, node: int) -> List[EventRecord]:
        if self._updates_by_node is None:
            by_node: Dict[int, List[EventRecord]] = {}
            for ev in self.events:
                if ev.action.name in UPDATES:
                    by_node.setdefault(ev.action.params[0], []).append(ev)
            self._updates_by_node = by_node
        return self._updates_by_node.get(node, [])

    def propagation(self, op: OperationSpan) -> List[PropagationChain]:
        """Causal chains of a write's update messages, one per replica.

        Each chain runs invocation -> ``SENDMSG`` (local) -> span
        segments (send buffer / channel / receive buffer) ->
        ``UPDATE`` / ``APPLY`` (the Figure 3 common-update wait
        ``t + delta``, :data:`~repro.traces.linearizability.UPDATES`), and
        its segment durations telescope to the chain total exactly.
        """
        if op.kind != "W" or op.value is None:
            return []
        delta = self.meta.get("delta")
        chains: List[PropagationChain] = []
        for span in self.spans:
            payload = span.payload
            if span.src != op.node:
                continue
            if not (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == op.value
            ):
                continue
            if "enq" not in span.phases:
                continue
            enq = span.phases["enq"].time
            if enq < op.inv.time - TOLERANCE:
                continue
            if op.res is not None and enq > op.res.time + TOLERANCE:
                continue  # a later update with an equal argument
            segments = [PathSegment("local_send", op.inv.time, enq)]
            segments.extend(
                PathSegment(label, start, end)
                for label, start, end in span.segments()
            )
            if span.delivered:
                update = self._find_update(span.dst, payload[1], delta)
                if update is not None:
                    segments.append(
                        PathSegment(
                            "update_wait", span.phases["dlv"].time, update.now
                        )
                    )
            chains.append(PropagationChain(span.dst, span, segments))
        return chains

    def _find_update(self, node, update_base, delta) -> Optional[EventRecord]:
        """The update event ``(node, t)`` with ``t = update_base + delta``.

        Without a known ``delta`` (a trace with no meta record), take
        the earliest update scheduled at or after the message's common
        update time — exact for Figure 3's unique-stamp messages.
        """
        best: Optional[EventRecord] = None
        for ev in self._updates(node):
            t = ev.action.params[1]
            if delta is not None:
                if abs(t - (update_base + float(delta))) <= _STAMP_TOL:
                    return ev
            elif t >= update_base - _STAMP_TOL:
                if best is None or t < best.action.params[1]:
                    best = ev
        return best

    def phase_summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate per-phase durations across every message span."""
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            for label, start, end in span.segments():
                stats = out.setdefault(
                    label, {"count": 0, "total": 0.0, "max": 0.0}
                )
                stats["count"] += 1
                stats["total"] += end - start
                stats["max"] = max(stats["max"], end - start)
        for stats in out.values():
            stats["mean"] = stats["total"] / stats["count"] if stats["count"] else 0.0
        return out


# ---------------------------------------------------------------------------
# Theorem 6.5 bound checking
# ---------------------------------------------------------------------------


@dataclass
class BoundCheck:
    """One checked bound: the limit, the worst observation, violations."""

    name: str
    limit: float
    worst: float
    count: int
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class BoundReport:
    """Outcome of :func:`check_bounds` over one trace."""

    model: str
    checks: List[BoundCheck]
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems and all(check.ok for check in self.checks)

    def render(self) -> str:
        """The report as the multi-line text the CLI prints."""
        lines = [f"Theorem 6.5 bound check (model={self.model}):"]
        for check in self.checks:
            verdict = "ok" if check.ok else "VIOLATED"
            lines.append(
                f"  {check.name:<22} n={check.count:<4} "
                f"worst={check.worst:.4f}  limit={check.limit:.4f}  {verdict}"
            )
            lines.extend(f"    {v}" for v in check.violations)
        lines.extend(f"  problem: {p}" for p in self.problems)
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def check_bounds(
    trace: CausalTrace,
    model: str,
    eps: float,
    c: float,
    delta: float,
    d1: float,
    d2: float,
) -> BoundReport:
    """Check a trace's observed latencies against Theorem 6.5.

    Uses :func:`repro.registers.algorithm_s.theorem_bounds` for the
    operation limits — clock-time guarantees stretched by ``2*eps`` for
    a real-time observer, the convention of the THM6.5 experiment table.
    Also checks the per-hop structure: channel transits inside
    ``[d1, d2]``, receive-buffer holds inside the ``eps``-slack budget
    ``max(0, 2*eps - d1)``, and that every attribution sums to its
    end-to-end latency within :data:`repro.constants.TOLERANCE`.
    """
    from repro.registers.algorithm_s import theorem_bounds

    bounds = theorem_bounds(model=model, eps=eps, c=c, delta=delta, d2=d2)
    checks: List[BoundCheck] = []
    problems: List[str] = []

    for kind, name, limit in (
        ("R", "read_latency", bounds["read_real"]),
        ("W", "write_latency", bounds["write_real"]),
    ):
        check = BoundCheck(name, limit, 0.0, 0)
        for op in trace.completed_ops():
            if op.kind != kind:
                continue
            check.count += 1
            check.worst = max(check.worst, op.latency)
            if op.latency > limit + TOLERANCE:
                check.violations.append(
                    f"{op.sid}: latency {op.latency:.6f} > {limit:.6f}"
                )
        checks.append(check)

    transit = BoundCheck("channel_transit", d2, 0.0, 0)
    for span in trace.spans:
        duration = None
        if "xmit" in span.phases and "arrive" in span.phases:
            duration = span.phases["arrive"].time - span.phases["xmit"].time
        elif "enq" in span.phases and "dlv" in span.phases:
            duration = span.phases["dlv"].time - span.phases["enq"].time
        if duration is None:
            continue
        transit.count += 1
        transit.worst = max(transit.worst, duration)
        if not (d1 - TOLERANCE <= duration <= d2 + TOLERANCE):
            transit.violations.append(
                f"{span.sid}: transit {duration:.6f} outside "
                f"[{d1:g}, {d2:g}]"
            )
    checks.append(transit)

    if model != "timed":
        hold_limit = max(0.0, 2.0 * eps - d1) + _ENVELOPE_SLOP
        hold = BoundCheck("recv_buffer_hold", hold_limit, 0.0, 0)
        for span in trace.spans:
            if "arrive" not in span.phases or "dlv" not in span.phases:
                continue
            duration = span.phases["dlv"].time - span.phases["arrive"].time
            hold.count += 1
            hold.worst = max(hold.worst, duration)
            if duration > hold_limit + TOLERANCE:
                hold.violations.append(
                    f"{span.sid}: hold {duration:.6f} > {hold_limit:.6f}"
                )
        checks.append(hold)

    sums = BoundCheck("attribution_sums", TOLERANCE, 0.0, 0)
    for op in trace.completed_ops():
        path = trace.critical_path(op)
        gap = abs(sum(seg.duration for seg in path) - op.latency)
        sums.count += 1
        sums.worst = max(sums.worst, gap)
        if gap > TOLERANCE:
            sums.violations.append(
                f"{op.sid}: critical path sums off by {gap:.3g}"
            )
        if op.kind == "W":
            for chain in trace.propagation(op):
                gap = abs(
                    sum(seg.duration for seg in chain.segments) - chain.total
                )
                sums.count += 1
                sums.worst = max(sums.worst, gap)
                if gap > TOLERANCE:
                    sums.violations.append(
                        f"{op.sid}->node {chain.dst}: propagation "
                        f"attribution off by {gap:.3g}"
                    )
    for span in trace.spans:
        total = span.end_to_end
        if total is None:
            continue
        gap = abs(sum(end - start for _l, start, end in span.segments()) - total)
        sums.count += 1
        sums.worst = max(sums.worst, gap)
        if gap > TOLERANCE:
            sums.violations.append(
                f"{span.sid}: span attribution off by {gap:.3g}"
            )
    checks.append(sums)

    problems.extend(trace.check())
    # an empty trace would vacuously pass every bound; refuse that
    if not trace.completed_ops():
        problems.append("no completed operations to check")
    return BoundReport(model=model, checks=checks, problems=problems)
