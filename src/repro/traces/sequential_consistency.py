"""Sequential consistency of register histories (Attiya-Welch [2]).

The paper's algorithm L descends from Attiya and Welch's *Sequential
Consistency Versus Linearizability* [2]. This module supplies the weaker
condition so the cost gap can be measured (benchmark ABL4):

A history is **sequentially consistent** when there is a total order of
all operations that (a) preserves each node's program order and (b) is
legal for the register (every read returns the latest preceding write,
or the initial value). Unlike linearizability there is *no* real-time
constraint across nodes.

The checker searches for such an order: depth-first (on an explicit
stack, so history length is not bounded by the recursion limit) over
"which operation next", where a candidate must be the next
program-order operation of its node; failed (per-node positions,
register value) states are remembered. Histories come from the same
``READ``/``RETURN``/``WRITE``/``ACK`` traces, through the same
extractor, as the linearizability checker's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.traces.linearizability import Operation, coerce_history


def find_sequentialization(
    ops: Sequence[Operation],
    initial_value: object = None,
) -> Optional[List[int]]:
    """A program-order-preserving legal total order, or ``None``.

    Returns the operation ids in order.
    """
    per_node: Dict[int, List[Operation]] = {}
    for op in sorted(ops, key=lambda o: o.inv_time):
        per_node.setdefault(op.node, []).append(op)
    programs = [per_node[node] for node in sorted(per_node)]
    failed = set()
    order: List[int] = []
    # One frame per open (positions, value) state, root first; a frame's
    # iterator walks the nodes whose next operation is still to be tried.
    frames = [((0,) * len(programs), initial_value, iter(range(len(programs))))]
    while len(order) < len(ops):
        positions, value, choices = frames[-1]
        for idx in choices:
            position = positions[idx]
            if position >= len(programs[idx]):
                continue
            op = programs[idx][position]
            if op.kind == "R" and op.value != value:
                continue
            child = (
                positions[:idx] + (position + 1,) + positions[idx + 1:],
                op.value if op.kind == "W" else value,
            )
            if child in failed:
                continue
            order.append(op.op_id)
            frames.append(child + (iter(range(len(programs))),))
            break
        else:
            failed.add((positions, value))
            frames.pop()
            if not frames:
                return None
            order.pop()
    return order


def is_sequentially_consistent(history: Iterable, initial_value: object = None) -> bool:
    """Whether a history (trace or operation list) is sequentially
    consistent. Traces whose alternation condition is violated by the
    environment are vacuously accepted, mirroring problem ``P``."""
    ops = coerce_history(history)
    if ops is None:
        return True
    return find_sequentialization(ops, initial_value) is not None
