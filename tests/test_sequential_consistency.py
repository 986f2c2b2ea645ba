"""Tests for the sequential-consistency checker and its relation to
linearizability (the Attiya-Welch [2] distinction)."""

import pytest

from repro.automata.actions import Action
from repro.automata.executions import timed_sequence
from repro.traces.linearizability import is_linearizable
from repro.traces.sequential_consistency import (
    find_sequentialization,
    is_sequentially_consistent,
)

from helpers import register_op as op


class TestChecker:
    def test_empty_history(self):
        assert is_sequentially_consistent([])

    def test_sequential_history(self):
        ops = [
            op(0, 0, "W", "a", 0.0, 1.0),
            op(1, 1, "R", "a", 2.0, 3.0),
        ]
        assert is_sequentially_consistent(ops)

    def test_initial_value_read(self):
        ops = [op(0, 0, "R", "init", 0.0, 1.0)]
        assert is_sequentially_consistent(ops, initial_value="init")
        assert not is_sequentially_consistent(ops, initial_value="other")

    def test_stale_read_across_nodes_is_sc(self):
        """The canonical SC-but-not-linearizable history: a read strictly
        after a write (real time) still returning the old value."""
        ops = [
            op(0, 0, "W", "new", 0.0, 1.0),
            op(1, 1, "R", "old", 2.0, 3.0),
        ]
        assert is_sequentially_consistent(ops, initial_value="old")
        assert not is_linearizable(ops, initial_value="old")

    def test_program_order_enforced_same_node(self):
        """A node reading old *after its own* write is not SC."""
        ops = [
            op(0, 0, "W", "new", 0.0, 1.0),
            op(1, 0, "R", "old", 2.0, 3.0),
        ]
        assert not is_sequentially_consistent(ops, initial_value="old")

    def test_unwritten_value_rejected(self):
        ops = [op(0, 0, "R", "phantom", 0.0, 1.0)]
        assert not is_sequentially_consistent(ops, initial_value=None)

    def test_cross_node_write_orders_flexible(self):
        """Two nodes may see two concurrent writes in different orders?
        No — SC needs ONE total order; reads pinning conflicting orders
        must be rejected."""
        ops = [
            op(0, 0, "W", "a", 0.0, 1.0),
            op(1, 1, "W", "b", 0.0, 1.0),
            # node 2 sees a then b
            op(2, 2, "R", "a", 2.0, 3.0),
            op(3, 2, "R", "b", 4.0, 5.0),
            # node 3 sees b then a: inconsistent with node 2's view
            # (after b, a cannot come back unless rewritten)
            op(4, 3, "R", "b", 2.0, 3.0),
            op(5, 3, "R", "a", 4.0, 5.0),
        ]
        assert not is_sequentially_consistent(ops)

    def test_consistent_cross_node_views_accepted(self):
        ops = [
            op(0, 0, "W", "a", 0.0, 1.0),
            op(1, 1, "W", "b", 0.0, 1.0),
            op(2, 2, "R", "a", 2.0, 3.0),
            op(3, 2, "R", "b", 4.0, 5.0),
            op(4, 3, "R", "a", 2.0, 3.0),
            op(5, 3, "R", "b", 4.0, 5.0),
        ]
        assert is_sequentially_consistent(ops)

    def test_linearizable_implies_sc(self):
        ops = [
            op(0, 0, "W", "x", 0.0, 2.0),
            op(1, 1, "R", "x", 1.0, 3.0),
            op(2, 0, "R", "x", 3.0, 4.0),
        ]
        assert is_linearizable(ops)
        assert is_sequentially_consistent(ops)

    def test_order_returned_is_legal(self):
        ops = [
            op(0, 0, "W", "a", 0.0, 1.0),
            op(1, 0, "W", "b", 2.0, 3.0),
            op(2, 1, "R", "a", 0.5, 1.5),
        ]
        order = find_sequentialization(ops)
        assert order is not None
        by_id = {o.op_id: o for o in ops}
        value = None
        for op_id in order:
            current = by_id[op_id]
            if current.kind == "W":
                value = current.value
            else:
                assert current.value == value

    def test_trace_level(self):
        trace = timed_sequence(
            (Action("WRITE", (0, "v")), 0.0),
            (Action("ACK", (0,)), 1.0),
            (Action("READ", (1,)), 2.0),
            (Action("RETURN", (1, "v")), 3.0),
        )
        assert is_sequentially_consistent(trace)

    def test_environment_violation_vacuous(self):
        trace = timed_sequence(
            (Action("READ", (0,)), 0.0), (Action("READ", (0,)), 1.0)
        )
        assert is_sequentially_consistent(trace)
