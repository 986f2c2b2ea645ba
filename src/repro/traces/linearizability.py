"""Linearizability and eps-superlinearizability of object histories.

Section 6 defines linearizability of a timed schedule: a point ``t`` can
be inserted for every operation, between its invocation and response, such
that each READ returns the value of the latest preceding WRITE in the
induced point order. eps-superlinearizability (Section 6.2) additionally
requires each point to be at least ``2*eps`` after the invocation. The
paper's closing remark generalizes this to other shared objects: replay
the operations in point order through the object's sequential
specification (:class:`~repro.objects.specs.SequentialSpec`) and every
query must return its recorded response.

One operation vocabulary covers the register and every blind-update
object (:data:`RESPONSE_OF`, :data:`QUERIES`):

- ``READ_i()`` / ``ASK_i(q)`` — query invocation at node ``i``;
- ``RETURN_i(v)`` / ``REPLY_i(v)`` — query response carrying the value;
- ``WRITE_i(v)`` / ``DO_i(u)`` — update invocation carrying its argument;
- ``ACK_i()`` / ``DONE_i()`` — update response.

This module holds the code base's one operation record
(:class:`Operation`, built by the simulator's and the live backend's
clients too), one invocation/response pairing and alternation checker
(:func:`paired_events`), one extractor (:func:`extract_operations`),
one linearization search (:func:`search_linearization`) and one
checker entry point (:func:`analyze_linearizability`). The search takes
the sequential specification as a ``step(state, op) -> (legal,
new_state)`` callable: the register's read/write step by default, a
spec's ``evaluate`` / ``apply_update`` when given one.

Given one closed interval ``[lo, hi]`` per operation, the search decides
whether increasing representative points exist whose order is legal:
depth-first over "which operation is linearized next" on an explicit
stack (so depth is not bounded by the recursion limit), remembering
failed nodes, with candidates restricted to operations whose window
opens before every other remaining window closes.

A pathological history can still cost exponentially many nodes, and
live histories (:mod:`repro.live`) run to tens of thousands of
operations, so the entry points accept a ``max_nodes`` budget:
exceeding it raises :class:`SearchBudgetExceeded` rather than spinning,
and :func:`analyze_linearizability` reports the visited count either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.automata.executions import TimedEvent, TimedSequence
from repro.errors import SpecificationError

DEFAULT_NODE_BUDGET = 2_000_000
"""Default visited-node budget of :func:`analyze_linearizability`.

Realistic histories visit roughly one node per operation; the default
leaves orders of magnitude of slack while still guaranteeing the check
terminates in seconds rather than never.
"""


class SearchBudgetExceeded(SpecificationError):
    """The linearization search exceeded its visited-node budget.

    Not a verdict: the history may or may not be linearizable; the
    search was cut off after ``visited`` nodes (budget ``max_nodes``).
    """

    def __init__(self, visited: int, max_nodes: int):
        super().__init__(
            f"linearizability search exceeded its node budget: visited "
            f"{visited} search nodes (budget {max_nodes}); the history is "
            f"too adversarial for an exact verdict at this budget"
        )
        self.visited = visited
        self.max_nodes = max_nodes

READ = "READ"
WRITE = "WRITE"
RETURN = "RETURN"
ACK = "ACK"
ASK = "ASK"
DO = "DO"
REPLY = "REPLY"
DONE = "DONE"
UPDATE = "UPDATE"
APPLY = "APPLY"

RESPONSE_OF = {READ: RETURN, WRITE: ACK, ASK: REPLY, DO: DONE}
"""Invocation name -> the response name that answers it.

The register's vocabulary and the blind-update objects' are disjoint
(:class:`~repro.registers.algorithm_l.RegisterProcess` and
:class:`~repro.objects.algorithm.BlindUpdateObjectProcess` declare
them), so a trace need not say which one it speaks."""

RESPONSES = frozenset(RESPONSE_OF.values())
"""The response names."""

UPDATES = frozenset({UPDATE, APPLY})
"""The replicas' common-update action names (Figure 3's ``UPDATE``, the
objects' ``APPLY``), each ``name(node, t)``."""

QUERIES = frozenset({READ, ASK})
"""The query invocations; every other invocation is an update."""


@dataclass(frozen=True)
class Operation:
    """One operation on a shared object: invocation, response, window.

    ``kind`` is ``"R"`` for a query (the register's read) and ``"W"``
    for an update (the register's write). ``arg`` is the invocation's
    argument (``None`` for a bare register read), ``response`` the
    response's value (``None`` for an update's acknowledgement).
    ``outcome`` and ``attempts`` are the live client's: ``"ok"``,
    ``"retried"`` (succeeded on attempt ``attempts > 1``) or
    ``"timeout"`` (every attempt failed; ``res_time`` is when the
    client gave up and ``response`` is ``None``).
    """

    op_id: int
    node: int
    kind: str
    arg: object
    response: object
    inv_time: float
    res_time: float
    outcome: str = "ok"
    attempts: int = 1

    @property
    def value(self) -> object:
        """The response of an ``R``, the argument of a ``W``."""
        return self.response if self.kind == "R" else self.arg

    @property
    def latency(self) -> float:
        return self.res_time - self.inv_time

    @property
    def completed(self) -> bool:
        """Whether the operation got a response."""
        return self.outcome != "timeout"

    def window(self, min_after_inv: float = 0.0) -> Tuple[float, float]:
        """The closed interval in which the linearization point may lie."""
        return (self.inv_time + min_after_inv, self.res_time)

    def __repr__(self) -> str:
        arrow = "->" if self.kind == "R" else "<-"
        return (
            f"Op#{self.op_id}({self.kind}{arrow}{self.value!r} @node{self.node} "
            f"[{self.inv_time:g},{self.res_time:g}])"
        )


class AlternationViolation(SpecificationError):
    """The alternation condition failed (Section 6.1).

    :attr:`by_environment` is ``True`` when the violation is two
    consecutive invocations at a node (the environment misbehaved, so the
    trace is vacuously allowed by problem ``P``).
    """

    def __init__(self, message: str, by_environment: bool):
        super().__init__(message)
        self.by_environment = by_environment


def paired_events(trace: TimedSequence) -> Iterator[Tuple[TimedEvent, TimedEvent]]:
    """Yield ``(invocation event, response event)`` per complete operation.

    Pairs come in response order; operations still pending at the end
    of the trace are dropped, the usual treatment of a finite prefix.
    Raises :class:`AlternationViolation` at the first violation of the
    alternation condition (Section 6.1): an invocation at a node with
    one outstanding is the environment's, a response that does not
    answer the node's outstanding invocation (:data:`RESPONSE_OF`) is
    the system's.
    """
    pending: Dict[int, TimedEvent] = {}
    for ev in trace:
        name = ev.action.name
        if name in RESPONSE_OF:
            node = ev.action.params[0]
            if node in pending:
                raise AlternationViolation(
                    "alternation condition violated by the environment", True
                )
            pending[node] = ev
        elif name in RESPONSES:
            inv = pending.pop(ev.action.params[0], None)
            if inv is None or RESPONSE_OF[inv.action.name] != name:
                raise AlternationViolation(
                    "alternation condition violated by the system", False
                )
            yield inv, ev


def check_alternation(trace: TimedSequence) -> Optional[str]:
    """Check the alternation condition (Section 6.1).

    ``None`` when invocations and responses alternate at every node,
    else who violated first: ``"environment"`` (a double invocation) or
    ``"system"`` (a response that matches no pending invocation).
    """
    try:
        for _ in paired_events(trace):
            pass
    except AlternationViolation as violation:
        return "environment" if violation.by_environment else "system"
    return None


def extract_operations(trace: TimedSequence) -> List[Operation]:
    """Pair invocations with responses into :class:`Operation` records
    (what is dropped and what raises: :func:`paired_events`)."""
    ops: List[Operation] = []
    for inv, res in paired_events(trace):
        args, results = inv.action.params, res.action.params
        ops.append(Operation(
            len(ops), args[0], "R" if inv.action.name in QUERIES else "W",
            args[1] if len(args) > 1 else None,
            results[1] if len(results) > 1 else None,
            inv.time, res.time,
        ))
    return ops


def coerce_history(history: Iterable) -> Optional[list]:
    """Normalize a trace or operation list; ``None`` means vacuously OK
    (alternation violated by the environment; by the system, it raises)."""
    if isinstance(history, TimedSequence):
        try:
            return extract_operations(history)
        except AlternationViolation as violation:
            if violation.by_environment:
                return None
            raise
    return list(history)


def search_linearization(
    ops: Sequence,
    step: Callable[[Hashable, object], Tuple[bool, Hashable]],
    initial_state: Hashable,
    min_after_inv: float = 0.0,
    tolerance: float = 1e-9,
    max_nodes: Optional[int] = None,
) -> Tuple[Optional[List[Tuple[int, float]]], int]:
    """The linearization search: ``(linearization or None, nodes visited)``.

    Looks for increasing points, one inside each operation's window
    ``[inv_time + min_after_inv, res_time]``, such that replaying the
    operations in point order through ``step`` from ``initial_state`` is
    legal throughout. A candidate must open before every other remaining
    window closes and still fit above the time floor; candidates are
    tried earliest-opening first (a heuristic: completeness comes from
    trying them all). Failed ``(remaining, state, floor)`` nodes are
    remembered. Every non-empty node entered counts as visited, a
    remembered one included; more than ``max_nodes`` of them raise
    :class:`SearchBudgetExceeded`.
    """
    windows = {op.op_id: op.window(min_after_inv) for op in ops}
    if any(lo > hi + tolerance for lo, hi in windows.values()):
        return None, 0
    by_id = {op.op_id: op for op in ops}
    failed = set()
    # one frame per open node, root first; order[k] leads out of frames[k]
    frames: List[tuple] = []
    order: List[Tuple[int, float]] = []
    visited = 0
    remaining, state, floor = frozenset(by_id), initial_state, 0.0
    while remaining:
        visited += 1
        if max_nodes is not None and visited > max_nodes:
            raise SearchBudgetExceeded(visited, max_nodes)
        key = (remaining, state, round(floor, 9))
        if key in failed:
            order.pop()
        else:
            min_hi = min(windows[i][1] for i in remaining)
            candidates = [
                i
                for i in remaining
                if windows[i][0] <= min_hi + tolerance
                and max(windows[i][0], floor) <= windows[i][1] + tolerance
            ]
            candidates.sort(key=lambda i: windows[i][0])
            frames.append((key, remaining, state, floor, iter(candidates)))
        # descend into the next legal candidate of the deepest frame that
        # has one; a frame that runs out has failed
        while True:
            key, remaining, state, floor, candidates = frames[-1]
            for i in candidates:
                legal, new_state = step(state, by_id[i])
                if legal:
                    break
            else:
                failed.add(key)
                frames.pop()
                if not frames:
                    return None, visited
                order.pop()
                continue
            floor = max(windows[i][0], floor)
            order.append((i, floor))
            remaining, state = remaining - {i}, new_state
            break
    return order, visited


def _register_step(value: object, op: Operation) -> Tuple[bool, object]:
    """The read/write register as a ``step``: reads return the last write."""
    if op.kind == "W":
        return True, op.arg
    return op.response == value, value


@dataclass(frozen=True)
class LinearizationReport:
    """Outcome of a budgeted linearizability check, with search stats."""

    ok: bool
    linearization: Optional[List[Tuple[int, float]]]
    operations: int
    visited: int
    max_nodes: Optional[int]

    def __repr__(self) -> str:
        verdict = "linearizable" if self.ok else "NOT linearizable"
        return (
            f"<LinearizationReport {verdict}: {self.operations} ops, "
            f"{self.visited} search nodes visited>"
        )


def analyze_linearizability(
    history: Iterable,
    initial_value: object = None,
    min_after_inv: float = 0.0,
    tolerance: float = 1e-9,
    max_nodes: Optional[int] = DEFAULT_NODE_BUDGET,
    spec=None,
) -> LinearizationReport:
    """Budgeted (super)linearizability check with visited-node statistics.

    ``history`` is a :class:`TimedSequence` (operations are extracted
    first; a trace whose alternation condition is violated *by the
    environment* is accepted, per the definition of problem ``P``) or
    an iterable of :class:`Operation`. With ``spec=None`` the object is
    the read/write register starting at ``initial_value``; otherwise it
    is the :class:`~repro.objects.specs.SequentialSpec` ``spec``, from
    ``spec.initial()``.

    ``min_after_inv`` is ``0`` for plain linearizability and ``2*eps``
    for eps-superlinearizability (Section 6.2). The report's
    ``linearization`` holds ``(op_id, point)`` pairs in linearization
    order, or ``None``. The search is bounded by ``max_nodes`` (default
    :data:`DEFAULT_NODE_BUDGET`; ``None`` disables the guard), so a
    long live history gets a verdict or :class:`SearchBudgetExceeded`,
    and the report carries the visited count either way.
    """
    ops = coerce_history(history)
    if ops is None:
        return LinearizationReport(True, None, 0, 0, max_nodes)
    if spec is None:
        step, initial = _register_step, initial_value
    else:
        def step(state: Hashable, op: Operation) -> Tuple[bool, Hashable]:
            if op.kind == "R":
                return spec.evaluate(state, op.arg) == op.response, state
            return True, spec.apply_update(state, op.arg)

        initial = spec.initial()
    order, visited = search_linearization(
        ops, step, initial, min_after_inv, tolerance, max_nodes
    )
    return LinearizationReport(order is not None, order, len(ops), visited, max_nodes)


def is_linearizable(
    history: Iterable,
    initial_value: object = None,
    tolerance: float = 1e-9,
    max_nodes: Optional[int] = None,
    spec=None,
) -> bool:
    """Whether a history is linearizable (Section 6.1); the arguments
    are :func:`analyze_linearizability`'s."""
    return is_superlinearizable(
        history, 0.0, initial_value, tolerance, max_nodes, spec
    )


def is_superlinearizable(
    history: Iterable,
    eps: float,
    initial_value: object = None,
    tolerance: float = 1e-9,
    max_nodes: Optional[int] = None,
    spec=None,
) -> bool:
    """Whether a history is eps-superlinearizable (Section 6.2).

    Each linearization point must be at least ``2*eps`` after the
    operation's invocation and no later than its response.
    """
    return analyze_linearizability(
        history, initial_value, 2.0 * eps, tolerance, max_nodes, spec
    ).ok


def shift_points_earlier(
    linearization: Sequence[Tuple[int, float]], delta: float
) -> List[Tuple[int, float]]:
    """Shift all linearization points earlier by ``delta``.

    This is the Lemma 6.4 move: a superlinearization of the ``=_eps``
    perturbed trace, shifted earlier by ``eps``, is a linearization of
    the original trace.
    """
    return [(op_id, point - delta) for op_id, point in linearization]
