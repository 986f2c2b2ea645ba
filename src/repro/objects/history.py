"""Generic (spec-driven) linearizability of object histories.

Action conventions for generalized objects (distinct from the register
names so both can coexist in one system):

- ``DO_i(update)`` — blind-update invocation at node ``i``;
- ``DONE_i()`` — update response;
- ``ASK_i(query)`` — query invocation;
- ``REPLY_i(value)`` — query response carrying the returned value.

A history is linearizable against a
:class:`~repro.objects.specs.SequentialSpec` iff there exist increasing
representative points, one inside each operation's window, such that
replaying the operations through the spec in point order yields every
query's recorded response. There is one linearization search, one
alternation checker and one invocation/response pairing in the code
base, all in :mod:`repro.traces.linearizability`; this module binds them
to the object action names and to ``spec.evaluate`` /
``spec.apply_update``. The read/write register checked there is the
instance :class:`~repro.objects.specs.RegisterSpec` of what is checked
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.automata.executions import TimedSequence
from repro.objects.specs import SequentialSpec
from repro.traces.linearizability import (
    TimedOperation,
    alternation_verdict,
    coerce_history,
    paired_events,
    search_linearization,
)

DO = "DO"
DONE = "DONE"
ASK = "ASK"
REPLY = "REPLY"


@dataclass(frozen=True)
class ObjOperation(TimedOperation):
    """One complete operation on a generalized object."""

    op_id: int
    node: int
    kind: str            # "U" (blind update) or "Q" (query)
    payload: Tuple       # the update or the query
    response: object     # recorded response (None for updates)
    inv_time: float
    res_time: float

    def __repr__(self) -> str:
        detail = f"{self.payload}"
        if self.kind == "Q":
            detail += f"->{self.response!r}"
        return (
            f"ObjOp#{self.op_id}({self.kind} {detail} @node{self.node} "
            f"[{self.inv_time:g},{self.res_time:g}])"
        )


OBJECT_RESPONSES = {DO: DONE, ASK: REPLY}
"""Name table of the object actions: invocation name -> response name."""


def check_object_alternation(trace: TimedSequence) -> Optional[str]:
    """Alternation condition for DO/DONE/ASK/REPLY actions."""
    return alternation_verdict(trace, OBJECT_RESPONSES)


def extract_object_operations(trace: TimedSequence) -> List[ObjOperation]:
    """Pair invocations with responses into :class:`ObjOperation` records
    (pending tails dropped; raises ``AlternationViolation``)."""
    ops: List[ObjOperation] = []
    for inv, res in paired_events(trace, OBJECT_RESPONSES):
        if inv.action.name == ASK:
            kind, response = "Q", res.action.params[1]
        else:
            kind, response = "U", None
        node, payload = inv.action.params[:2]
        ops.append(
            ObjOperation(len(ops), node, kind, payload, response, inv.time, res.time)
        )
    return ops


def find_object_linearization(
    ops: Sequence[ObjOperation],
    spec: SequentialSpec,
    min_after_inv: float = 0.0,
    tolerance: float = 1e-9,
) -> Optional[List[Tuple[int, float]]]:
    """Spec-driven linearization: :func:`search_linearization` with
    ``spec`` as the step. Returns ``(op_id, point)`` pairs in
    linearization order, or ``None``.
    """

    def step(state: Hashable, op: ObjOperation) -> Tuple[bool, Hashable]:
        if op.kind == "Q":
            return spec.evaluate(state, op.payload) == op.response, state
        return True, spec.apply_update(state, op.payload)

    return search_linearization(ops, step, spec.initial(), min_after_inv, tolerance)[0]


def is_object_linearizable(
    history: Iterable, spec: SequentialSpec, tolerance: float = 1e-9
) -> bool:
    """Linearizability of a history against a sequential spec."""
    return is_object_superlinearizable(history, spec, 0.0, tolerance)


def is_object_superlinearizable(
    history: Iterable,
    spec: SequentialSpec,
    eps: float,
    tolerance: float = 1e-9,
) -> bool:
    """eps-superlinearizability: points at least ``2*eps`` after inv."""
    ops = coerce_history(history, extract_object_operations)
    if ops is None:
        return True
    return find_object_linearization(ops, spec, 2.0 * eps, tolerance) is not None
