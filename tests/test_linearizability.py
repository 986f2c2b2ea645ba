"""Unit tests for the linearizability / superlinearizability checkers."""

import pytest

from repro.automata.actions import Action
from repro.automata.executions import timed_sequence
from repro.objects.algorithm import BlindUpdateObjectProcess
from repro.registers.algorithm_l import RegisterProcess
from repro.registers.system import (
    INITIAL_VALUE,
    clock_register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.traces.linearizability import (
    AlternationViolation,
    DEFAULT_NODE_BUDGET,
    QUERIES,
    RESPONSE_OF,
    UPDATES,
    SearchBudgetExceeded,
    analyze_linearizability,
    check_alternation,
    extract_operations,
    is_linearizable,
    is_superlinearizable,
    shift_points_earlier,
)
from repro.traces.sequential_consistency import is_sequentially_consistent

from helpers import register_op as op


class TestAlternation:
    def test_correct_alternation(self):
        trace = timed_sequence(
            (Action("READ", (0,)), 0.0),
            (Action("RETURN", (0, "x")), 1.0),
            (Action("WRITE", (0, "y")), 2.0),
            (Action("ACK", (0,)), 3.0),
        )
        assert check_alternation(trace) is None

    def test_double_invocation_is_environment(self):
        trace = timed_sequence(
            (Action("READ", (0,)), 0.0),
            (Action("READ", (0,)), 1.0),
        )
        assert check_alternation(trace) == "environment"

    def test_unsolicited_response_is_system(self):
        trace = timed_sequence((Action("ACK", (0,)), 0.0))
        assert check_alternation(trace) == "system"

    def test_mismatched_response_kind_is_system(self):
        trace = timed_sequence(
            (Action("READ", (0,)), 0.0),
            (Action("ACK", (0,)), 1.0),
        )
        assert check_alternation(trace) == "system"

    def test_interleaving_across_nodes_ok(self):
        trace = timed_sequence(
            (Action("READ", (0,)), 0.0),
            (Action("WRITE", (1, "v")), 0.5),
            (Action("RETURN", (0, "x")), 1.0),
            (Action("ACK", (1,)), 1.5),
        )
        assert check_alternation(trace) is None


class TestExtraction:
    def test_pairing_table_is_the_processes_vocabularies(self):
        processes = (RegisterProcess, BlindUpdateObjectProcess)
        assert RESPONSE_OF == {
            **{p.READ: p.RETURN for p in processes},
            **{p.WRITE: p.ACK for p in processes},
        }
        assert QUERIES == {p.READ for p in processes}
        assert UPDATES == {p.UPDATE for p in processes}

    def test_a_response_of_the_other_vocabulary_is_the_systems(self):
        trace = timed_sequence(
            (Action("READ", (0,)), 0.0), (Action("REPLY", (0, "x")), 1.0)
        )
        assert check_alternation(trace) == "system"

    def test_operations_extracted_in_inv_order(self):
        trace = timed_sequence(
            (Action("WRITE", (0, "v")), 0.0),
            (Action("READ", (1,)), 0.5),
            (Action("ACK", (0,)), 1.0),
            (Action("RETURN", (1, "v")), 1.5),
        )
        ops = extract_operations(trace)
        assert len(ops) == 2
        kinds = {(o.node, o.kind) for o in ops}
        assert kinds == {(0, "W"), (1, "R")}

    def test_pending_operations_dropped(self):
        trace = timed_sequence((Action("READ", (0,)), 0.0))
        assert extract_operations(trace) == []

    def test_environment_violation_raises_tagged(self):
        trace = timed_sequence(
            (Action("READ", (0,)), 0.0), (Action("WRITE", (0, "v")), 1.0)
        )
        with pytest.raises(AlternationViolation) as err:
            extract_operations(trace)
        assert err.value.by_environment


class TestLinearizability:
    def test_sequential_history(self):
        ops = [
            op(0, 0, "W", "a", 0.0, 1.0),
            op(1, 1, "R", "a", 2.0, 3.0),
        ]
        assert is_linearizable(ops, initial_value=None)

    def test_read_of_initial_value(self):
        ops = [op(0, 0, "R", "init", 0.0, 1.0)]
        assert is_linearizable(ops, initial_value="init")
        assert not is_linearizable(ops, initial_value="other")

    def test_stale_read_after_write_completes(self):
        # read starts after the write finished but returns the old value
        ops = [
            op(0, 0, "W", "new", 0.0, 1.0),
            op(1, 1, "R", "old", 2.0, 3.0),
        ]
        assert not is_linearizable(ops, initial_value="old")

    def test_concurrent_read_may_return_either(self):
        write = op(0, 0, "W", "new", 0.0, 2.0)
        overlapping_old = [write, op(1, 1, "R", "old", 1.0, 3.0)]
        overlapping_new = [write, op(1, 1, "R", "new", 1.0, 3.0)]
        assert is_linearizable(overlapping_old, initial_value="old")
        assert is_linearizable(overlapping_new, initial_value="old")

    def test_new_old_inversion_rejected(self):
        # Classic violation: r2 begins after r1 ends, but r1 saw the new
        # value and r2 the old one.
        ops = [
            op(0, 0, "W", "new", 0.0, 10.0),
            op(1, 1, "R", "new", 1.0, 2.0),
            op(2, 2, "R", "old", 3.0, 4.0),
        ]
        assert not is_linearizable(ops, initial_value="old")

    def test_write_order_respected(self):
        ops = [
            op(0, 0, "W", "a", 0.0, 1.0),
            op(1, 1, "W", "b", 2.0, 3.0),
            op(2, 2, "R", "a", 4.0, 5.0),
        ]
        assert not is_linearizable(ops)

    def test_concurrent_writes_either_order(self):
        base = [
            op(0, 0, "W", "a", 0.0, 2.0),
            op(1, 1, "W", "b", 1.0, 3.0),
        ]
        assert is_linearizable(base + [op(2, 2, "R", "a", 4.0, 5.0)])
        assert is_linearizable(base + [op(3, 2, "R", "b", 4.0, 5.0)])

    def test_empty_history(self):
        assert is_linearizable([])

    def test_read_own_write(self):
        ops = [
            op(0, 0, "W", "mine", 0.0, 1.0),
            op(1, 0, "R", "mine", 1.5, 2.0),
        ]
        assert is_linearizable(ops)

    def test_trace_level_checker(self):
        trace = timed_sequence(
            (Action("WRITE", (0, "v")), 0.0),
            (Action("ACK", (0,)), 1.0),
            (Action("READ", (1,)), 2.0),
            (Action("RETURN", (1, "v")), 3.0),
        )
        assert is_linearizable(trace)

    def test_environment_violation_vacuously_ok(self):
        trace = timed_sequence(
            (Action("READ", (0,)), 0.0),
            (Action("READ", (0,)), 1.0),
        )
        assert is_linearizable(trace)

    def test_system_violation_raises(self):
        trace = timed_sequence((Action("ACK", (0,)), 0.0))
        with pytest.raises(AlternationViolation):
            is_linearizable(trace)


class TestSuperlinearizability:
    def test_requires_margin_after_invocation(self):
        # A single read of the initial value responding quickly: the
        # point must be >= inv + 2*eps, impossible if res < inv + 2*eps.
        quick = [op(0, 0, "R", None, 0.0, 0.3)]
        assert is_superlinearizable(quick, eps=0.1)
        assert not is_superlinearizable(quick, eps=0.2)

    def test_superlinearizable_implies_linearizable(self):
        ops = [
            op(0, 0, "W", "a", 0.0, 5.0),
            op(1, 1, "R", "a", 1.0, 6.0),
        ]
        assert is_superlinearizable(ops, eps=1.0)
        assert is_linearizable(ops)

    def test_zero_eps_equals_linearizability(self):
        ops = [op(0, 0, "R", "init", 0.0, 1.0)]
        assert is_superlinearizable(ops, 0.0, initial_value="init") == \
            is_linearizable(ops, initial_value="init")


def _adversarial_ops(k):
    """``k`` overlapping writes + reads sharing one window: a worst case
    for the DFS (every interleaving must be tried before giving up)."""
    ops = []
    for i in range(k):
        ops.append(op(2 * i, i, "W", f"w{i}", 0.0, 100.0))
        ops.append(op(2 * i + 1, k + i, "R", "never-written", 0.0, 100.0))
    return ops


class TestSearchBudget:
    def test_report_carries_visited_count(self):
        ops = [
            op(0, 0, "W", "a", 0.0, 1.0),
            op(1, 1, "R", "a", 2.0, 3.0),
        ]
        report = analyze_linearizability(ops)
        assert report.ok
        assert report.operations == 2
        assert report.visited >= 1
        assert report.max_nodes == DEFAULT_NODE_BUDGET
        assert report.linearization is not None

    def test_not_linearizable_report(self):
        ops = [
            op(0, 0, "W", "new", 0.0, 1.0),
            op(1, 1, "R", "old", 2.0, 3.0),
        ]
        report = analyze_linearizability(ops, initial_value="old")
        assert not report.ok
        assert report.linearization is None
        assert report.visited >= 1

    def test_budget_exceeded_raises_not_a_verdict(self):
        with pytest.raises(SearchBudgetExceeded) as err:
            analyze_linearizability(_adversarial_ops(6), max_nodes=50)
        assert err.value.visited > 50
        assert err.value.max_nodes == 50

    def test_budget_exceeded_is_specification_error(self):
        from repro.errors import SpecificationError

        assert issubclass(SearchBudgetExceeded, SpecificationError)

    def test_bool_binding_honors_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            is_linearizable(_adversarial_ops(6), max_nodes=50)

    def test_budget_fires_at_exactly_max_nodes_plus_one(self):
        # pinned: the node that breaks the budget is the one reported, and
        # a budget equal to the work needed is enough
        ops = _adversarial_ops(6)
        assert analyze_linearizability(ops, max_nodes=487).visited == 487
        for budget in (1, 50, 486):
            with pytest.raises(SearchBudgetExceeded) as err:
                analyze_linearizability(ops, max_nodes=budget)
            assert (err.value.visited, err.value.max_nodes) == (budget + 1, budget)
            assert f"visited {budget + 1} search nodes (budget {budget})" in str(err.value)

    def test_unlimited_budget_still_terminates(self):
        # max_nodes=None disables the guard entirely
        report = analyze_linearizability(
            [op(0, 0, "R", "init", 0.0, 1.0)],
            initial_value="init", max_nodes=None,
        )
        assert report.ok and report.max_nodes is None

    def test_infeasible_window_reported_without_search(self):
        report = analyze_linearizability(
            [op(0, 0, "R", None, 0.0, 0.1)], min_after_inv=0.5
        )
        assert not report.ok
        assert report.visited == 0

    def test_vacuous_environment_violation(self):
        trace = timed_sequence(
            (Action("READ", (0,)), 0.0),
            (Action("READ", (0,)), 1.0),
        )
        report = analyze_linearizability(trace)
        assert report.ok and report.operations == 0


class TestLinearizationPoints:
    def test_points_returned_in_window(self):
        ops = [
            op(0, 0, "W", "a", 0.0, 1.0),
            op(1, 1, "R", "a", 2.0, 3.0),
        ]
        lin = analyze_linearizability(ops).linearization
        assert lin is not None
        windows = {o.op_id: (o.inv_time, o.res_time) for o in ops}
        previous = 0.0
        for op_id, point in lin:
            lo, hi = windows[op_id]
            assert lo - 1e-9 <= point <= hi + 1e-9
            assert point >= previous - 1e-9
            previous = point

    def test_shift_points_earlier(self):
        shifted = shift_points_earlier([(0, 1.0), (1, 2.0)], 0.5)
        assert shifted == [(0, 0.5), (1, 1.5)]

    def test_infeasible_window_rejected(self):
        assert analyze_linearizability(
            [op(0, 0, "R", None, 0.0, 0.1)], min_after_inv=0.5
        ).linearization is None


class TestLongHistories:
    def test_depth_is_not_bounded_by_the_recursion_limit(self):
        """3 clients x 700 operations of Algorithm S (the shape of
        ``benchmarks/suite``'s ``_history(3, 700, 1)``): both searches are
        2100 nodes deep, twice the default recursion limit, which a search
        that recursed once per operation could not reach."""
        d1, d2, c, eps, seed = 0.2, 0.6, 0.1, 0.05, 1
        workload = RegisterWorkload(
            operations=700, read_fraction=0.5,
            think_min=0.0, think_max=0.3, seed=seed,
        )
        spec = clock_register_system(
            3, d1, d2, c, eps, workload, driver_factory("mixed", eps, seed=seed)
        )
        run = run_register_experiment(
            spec, 700 * (d2 + 4.0 * eps + 0.3) + 5.0, max_steps=10_000_000
        )
        ops = extract_operations(run.result.trace)
        assert len(ops) == 2100
        report = analyze_linearizability(ops, initial_value=INITIAL_VALUE)
        assert report.ok and len(report.linearization) == 2100
        assert is_sequentially_consistent(ops, INITIAL_VALUE)
