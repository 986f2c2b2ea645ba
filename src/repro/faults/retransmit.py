"""Reliable messaging over lossy channels ([1]-style ARQ adapter).

:class:`ReliableAdapter` wraps any :class:`~repro.components.base.Process`
and makes its ``SENDMSG``/``RECVMSG`` interface reliable over channels
that lose and duplicate messages:

- outgoing messages are framed ``("DATA", seq, m)`` and retransmitted
  every ``retransmit_interval`` until acknowledged;
- the receiver acknowledges every DATA frame (``("ACK", seq)``) and
  delivers each sequence number to the inner process exactly once;
- duplicate frames and duplicate acks are absorbed.

**Worst-case timing.** If the fault model loses at most ``B``
consecutive attempts of a message and the raw channel delay is in
``[d1, d2]``, attempt ``B`` (0-based) departs at ``send + B*R`` and
arrives by ``send + B*R + d2``, so the adapted channel behaves like a
*reliable* channel with delay bounds ``[d1, d2 + B*R]`` —
:func:`effective_delay_bounds`. Under a :class:`BackoffPolicy` the gap
before attempt ``k`` (1-based) widens to
``I_k = min(R * factor**(k-1), max_interval) * (1 + jitter)``, so
attempt ``B`` departs at ``send + I_1 + ... + I_B`` and the effective
upper bound becomes ``d2 + sum_{k<=B} I_k`` —
``effective_delay_bounds(..., backoff=policy)`` computes exactly that
sum (jitter is sampled in ``[0, jitter * interval]``, so the no-jitter
value stays a valid *lower* bound per attempt and the ``1 + jitter``
factor the upper one). Design the inner algorithm against
those effective bounds (plus the usual ``2*eps`` widening for the
clock model) and every theorem in the paper goes through unchanged:
the adapter is itself eps-time independent, so it transforms like any
other process code.

Acks are subject to loss too; a lost ack merely causes a retransmission
that the receiver's dedup absorbs, so correctness never depends on ack
delivery — only outbox garbage collection does. Senders cap
retransmissions at ``max_attempts`` (default: enough to cover ``B``
plus ack losses) to keep quiescent runs finite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.automata.actions import Action
from repro.components.base import Process, ProcessContext
from repro.constants import TOLERANCE as _TOLERANCE
from repro.errors import TransitionError

INFINITY = float("inf")


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    The gap before retransmission attempt ``k`` (1-based) is
    ``min(R * factor**(k-1), max_interval)`` plus a jitter term sampled
    uniformly in ``[0, jitter * gap]``. The jitter is a pure function of
    ``(seed, dst, seq, attempt)`` — a throwaway :class:`random.Random`
    keyed on that tuple (as a string seed, which Python hashes stably) —
    so runs are bit-reproducible regardless of the order attempts fire
    in, and no RNG state leaks into ``enabled``.
    """

    factor: float = 2.0
    max_interval: float = INFINITY
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.max_interval <= 0:
            raise ValueError("max_interval must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def gap(self, base: float, attempt: int, dst: int = 0, seq: int = 0) -> float:
        """The delay before retransmission ``attempt`` (1-based)."""
        raw = min(base * self.factor ** max(attempt - 1, 0), self.max_interval)
        if self.jitter:
            u = random.Random(f"{self.seed}:{dst}:{seq}:{attempt}").random()
            raw += raw * self.jitter * u
        return raw

    def worst_case_gap_sum(self, base: float, attempts: int) -> float:
        """Upper bound on ``I_1 + ... + I_attempts`` (jitter maximal)."""
        total = 0.0
        for k in range(1, attempts + 1):
            raw = min(base * self.factor ** (k - 1), self.max_interval)
            total += raw * (1.0 + self.jitter)
        return total


def effective_delay_bounds(
    d1: float,
    d2: float,
    retransmit_interval: float,
    max_consecutive_drops: int,
    backoff: Optional[BackoffPolicy] = None,
) -> Tuple[float, float]:
    """Delay bounds of the *adapted* (reliable) channel.

    ``[d1, d2 + B * R]`` with ``B`` the consecutive-loss bound and ``R``
    the retransmission interval; under ``backoff`` the ``B * R`` term
    becomes the worst-case sum of the first ``B`` backoff gaps
    (:meth:`BackoffPolicy.worst_case_gap_sum`).
    """
    if backoff is not None:
        widening = backoff.worst_case_gap_sum(
            retransmit_interval, max_consecutive_drops
        )
    else:
        widening = max_consecutive_drops * retransmit_interval
    return (d1, d2 + widening)


def arq_frame(frame, message=lambda m: m) -> Tuple[tuple, Optional[int]]:
    """Check a frame off a real wire: ``(("DATA", seq, message(m)), seq)``
    or ``(("ACK", seq), None)``; any other shape or a non-int ``seq``
    raises :class:`TransitionError` (``message`` may raise too)."""
    if isinstance(frame, tuple) and len(frame) > 1 and type(frame[1]) is int:
        if frame[0] == "DATA" and len(frame) == 3:
            return ("DATA", frame[1], message(frame[2])), frame[1]
        if frame[0] == "ACK" and len(frame) == 2:
            return frame, None
    raise TransitionError(f"malformed ARQ frame {frame!r}")


@dataclass
class _OutboxEntry:
    dst: int
    seq: int
    message: object
    next_attempt: float
    attempts: int = 0


@dataclass
class AdapterState:
    inner: Any
    outbox: Dict[Tuple[int, int], _OutboxEntry] = field(default_factory=dict)
    next_seq: Dict[int, int] = field(default_factory=dict)
    delivered: Dict[int, Set[int]] = field(default_factory=dict)
    pending_acks: List[Tuple[int, int]] = field(default_factory=list)  # (dst, seq)


class ReliableAdapter(Process):
    """Wraps a process with sequence-numbered retransmission."""

    def __init__(
        self,
        inner: Process,
        retransmit_interval: float,
        max_attempts: int = 25,
        backoff: Optional[BackoffPolicy] = None,
    ):
        if retransmit_interval <= 0:
            raise ValueError("retransmit_interval must be positive")
        super().__init__(inner.node, inner.signature, name=f"arq({inner.name})")
        self.inner = inner
        self.retransmit_interval = retransmit_interval
        self.max_attempts = max_attempts
        self.backoff = backoff

    def _gap(self, attempts: int, dst: int, seq: int) -> float:
        """Delay before the next retransmission, after ``attempts`` sends."""
        if self.backoff is None:
            return self.retransmit_interval
        return self.backoff.gap(self.retransmit_interval, attempts, dst, seq)

    # -- helpers ---------------------------------------------------------

    def _frame(self, entry: _OutboxEntry) -> Action:
        return Action(
            "SENDMSG", (self.node, entry.dst, ("DATA", entry.seq, entry.message))
        )

    def _ack(self, dst: int, seq: int) -> Action:
        return Action("SENDMSG", (self.node, dst, ("ACK", seq)))

    # -- process interface -------------------------------------------------

    def initial_state(self) -> AdapterState:
        return AdapterState(inner=self.inner.initial_state())

    def apply_input(self, state: AdapterState, action: Action, ctx: ProcessContext) -> None:
        if action.name != "RECVMSG":
            self.inner.apply_input(state.inner, action, ctx)
            return
        sender = action.params[1]
        frame = action.params[2]
        if not isinstance(frame, tuple) or not frame:
            raise TransitionError(f"{self.name}: unframed message {frame!r}")
        if frame[0] == "DATA":
            _, seq, message = frame
            state.pending_acks.append((sender, seq))  # repro: lint-ignore[ISO003] -- sender/seq are immutable ints
            seen = state.delivered.setdefault(sender, set())
            if seq not in seen:
                seen.add(seq)
                self.inner.apply_input(
                    state.inner, Action("RECVMSG", (self.node, sender, message)), ctx
                )
        elif frame[0] == "ACK":
            _, seq = frame
            state.outbox.pop((sender, seq), None)
        else:
            raise TransitionError(f"{self.name}: unknown frame kind {frame[0]!r}")

    def enabled(self, state: AdapterState, ctx: ProcessContext) -> List[Action]:
        now = ctx.time
        actions: List[Action] = []
        # acks first: urgent
        for dst, seq in state.pending_acks:
            actions.append(self._ack(dst, seq))
        # due (re)transmissions
        for entry in state.outbox.values():
            if entry.next_attempt <= now + _TOLERANCE:
                actions.append(self._frame(entry))
        # inner actions, with SENDMSG rewritten into fresh DATA frames
        for action in self.inner.enabled(state.inner, ctx):
            if action.name == "SENDMSG":
                dst, message = action.params[1], action.params[2]
                seq = state.next_seq.get(dst, 0)
                actions.append(
                    Action("SENDMSG", (self.node, dst, ("DATA", seq, message)))
                )
            else:
                actions.append(action)
        return actions

    def fire(self, state: AdapterState, action: Action, ctx: ProcessContext) -> None:
        now = ctx.time
        if action.name != "SENDMSG":
            self.inner.fire(state.inner, action, ctx)
            return
        dst, frame = action.params[1], action.params[2]
        if frame[0] == "ACK":
            _, seq = frame
            try:
                state.pending_acks.remove((dst, seq))
            except ValueError:
                raise TransitionError(f"{self.name}: no pending ack {frame!r}")
            return
        _, seq, message = frame
        entry = state.outbox.get((dst, seq))
        if entry is None:
            # a *fresh* send: perform the inner SENDMSG effect, register
            # the outbox entry, schedule the first retransmission
            expected = state.next_seq.get(dst, 0)
            if seq != expected:
                raise TransitionError(
                    f"{self.name}: fresh frame seq {seq} != expected {expected}"
                )
            self.inner.fire(
                state.inner, Action("SENDMSG", (self.node, dst, message)), ctx
            )
            state.next_seq[dst] = seq + 1
            # repro: lint-ignore[ISO003] -- the outbox must retain the
            # exact message for retransmission; it is the sole owner
            # until the ack (frames carry it by value through channels)
            state.outbox[(dst, seq)] = _OutboxEntry(
                dst, seq, message, now + self._gap(1, dst, seq), attempts=1
            )
            return
        # a retransmission
        entry.attempts += 1
        if entry.attempts >= self.max_attempts:
            del state.outbox[(dst, seq)]
        else:
            entry.next_attempt = now + self._gap(entry.attempts, dst, seq)

    def deadline(self, state: AdapterState, ctx: ProcessContext) -> float:
        deadline = self.inner.deadline(state.inner, ctx)
        if state.pending_acks:
            return ctx.time
        for entry in state.outbox.values():
            deadline = min(deadline, entry.next_attempt)
        return deadline
