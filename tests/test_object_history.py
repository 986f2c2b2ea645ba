"""Tests for the spec-driven linearizability checker."""

import pytest

from repro.automata.actions import Action
from repro.automata.executions import timed_sequence
from repro.objects.specs import CounterSpec, GrowSetSpec, RegisterSpec
from repro.traces.linearizability import (
    AlternationViolation,
    Operation,
    analyze_linearizability,
    check_alternation,
    extract_operations,
    is_linearizable,
    is_superlinearizable,
)


def upd(op_id, node, payload, inv, res):
    return Operation(op_id, node, "W", payload, None, inv, res)


def qry(op_id, node, payload, response, inv, res):
    return Operation(op_id, node, "R", payload, response, inv, res)


class TestAlternationAndExtraction:
    def test_alternation_ok(self):
        trace = timed_sequence(
            (Action("DO", (0, ("add", 1))), 0.0),
            (Action("DONE", (0,)), 1.0),
            (Action("ASK", (0, ("read",))), 2.0),
            (Action("REPLY", (0, 1)), 3.0),
        )
        assert check_alternation(trace) is None
        ops = extract_operations(trace)
        assert [op.kind for op in ops] == ["W", "R"]
        assert ops[1].response == 1

    def test_double_invocation_is_environment(self):
        trace = timed_sequence(
            (Action("DO", (0, ("add", 1))), 0.0),
            (Action("ASK", (0, ("read",))), 1.0),
        )
        assert check_alternation(trace) == "environment"
        with pytest.raises(AlternationViolation) as err:
            extract_operations(trace)
        assert err.value.by_environment

    def test_wrong_response_kind_is_system(self):
        trace = timed_sequence(
            (Action("DO", (0, ("add", 1))), 0.0),
            (Action("REPLY", (0, 1)), 1.0),
        )
        assert check_alternation(trace) == "system"


class TestCounterLinearizability:
    def test_sequential_counter(self):
        ops = [
            upd(0, 0, ("add", 2), 0.0, 1.0),
            qry(1, 1, ("read",), 2, 2.0, 3.0),
            upd(2, 0, ("add", 3), 4.0, 5.0),
            qry(3, 1, ("read",), 5, 6.0, 7.0),
        ]
        assert is_linearizable(ops, spec=CounterSpec())

    def test_concurrent_adds_both_counted(self):
        ops = [
            upd(0, 0, ("add", 1), 0.0, 2.0),
            upd(1, 1, ("add", 1), 0.5, 2.5),
            qry(2, 2, ("read",), 2, 3.0, 4.0),
        ]
        assert is_linearizable(ops, spec=CounterSpec())

    def test_lost_update_detected(self):
        """A read of 1 after two non-overlapping +1s is a lost update."""
        ops = [
            upd(0, 0, ("add", 1), 0.0, 1.0),
            upd(1, 1, ("add", 1), 2.0, 3.0),
            qry(2, 2, ("read",), 1, 4.0, 5.0),
        ]
        assert not is_linearizable(ops, spec=CounterSpec())

    def test_concurrent_read_may_see_either(self):
        write = upd(0, 0, ("add", 1), 0.0, 3.0)
        assert is_linearizable(
            [write, qry(1, 1, ("read",), 0, 1.0, 2.0)], spec=CounterSpec()
        )
        assert is_linearizable(
            [write, qry(2, 1, ("read",), 1, 1.0, 2.0)], spec=CounterSpec()
        )

    def test_impossible_value_rejected(self):
        ops = [
            upd(0, 0, ("add", 1), 0.0, 1.0),
            qry(1, 1, ("read",), 7, 2.0, 3.0),
        ]
        assert not is_linearizable(ops, spec=CounterSpec())


class TestGrowSetLinearizability:
    def test_contains_after_add(self):
        ops = [
            upd(0, 0, ("add", "x"), 0.0, 1.0),
            qry(1, 1, ("contains", "x"), True, 2.0, 3.0),
        ]
        assert is_linearizable(ops, spec=GrowSetSpec())

    def test_forgotten_element_rejected(self):
        ops = [
            upd(0, 0, ("add", "x"), 0.0, 1.0),
            qry(1, 1, ("contains", "x"), False, 2.0, 3.0),
        ]
        assert not is_linearizable(ops, spec=GrowSetSpec())


class TestRegisterSpecAgreement:
    """The generic checker agrees with the dedicated register checker."""

    def test_new_old_inversion(self):
        ops = [
            upd(0, 0, ("write", "new"), 0.0, 10.0),
            qry(1, 1, ("read",), "new", 1.0, 2.0),
            qry(2, 2, ("read",), "old", 3.0, 4.0),
        ]
        assert not is_linearizable(ops, spec=RegisterSpec("old"))

    def test_overlapping_read(self):
        ops = [
            upd(0, 0, ("write", "new"), 0.0, 2.0),
            qry(1, 1, ("read",), "old", 1.0, 3.0),
        ]
        assert is_linearizable(ops, spec=RegisterSpec("old"))


class TestSuperlinearizability:
    def test_margin_required(self):
        ops = [qry(0, 0, ("read",), 0, 0.0, 0.3)]
        assert is_superlinearizable(ops, eps=0.1, spec=CounterSpec())
        assert not is_superlinearizable(ops, eps=0.2, spec=CounterSpec())

    def test_points_respect_margin(self):
        ops = [
            upd(0, 0, ("add", 1), 0.0, 2.0),
            qry(1, 1, ("read",), 1, 1.0, 3.0),
        ]
        lin = analyze_linearizability(
            ops, min_after_inv=0.5, spec=CounterSpec()
        ).linearization
        assert lin is not None
        windows = {0: (0.5, 2.0), 1: (1.5, 3.0)}
        for op_id, point in lin:
            lo, hi = windows[op_id]
            assert lo - 1e-9 <= point <= hi + 1e-9

    def test_trace_level_environment_vacuous(self):
        trace = timed_sequence(
            (Action("DO", (0, ("add", 1))), 0.0),
            (Action("DO", (0, ("add", 1))), 1.0),
        )
        assert is_linearizable(trace, spec=CounterSpec())
