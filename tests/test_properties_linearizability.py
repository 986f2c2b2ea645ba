"""Property-based tests for the linearizability checker (hypothesis).

The generator builds histories *from a sequential oracle*: it lays down
linearization points first (a sequential register run), then widens each
point into an interval and interleaves them. Such histories are
linearizable by construction, so the checker must accept them. Mutations
that provably break linearizability must be rejected.
"""

import random
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects.specs import RegisterSpec
from repro.traces.linearizability import (
    Operation,
    analyze_linearizability,
    is_linearizable,
)

from helpers import register_op


@st.composite
def oracle_histories(draw, max_ops=7):
    """Histories generated around a hidden sequential execution."""
    count = draw(st.integers(min_value=1, max_value=max_ops))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    value = None
    point = 0.0
    ops = []
    for op_id in range(count):
        point += rng.uniform(0.1, 2.0)
        if rng.random() < 0.5:
            value = ("w", op_id)
            kind = "W"
            seen = value
        else:
            kind = "R"
            seen = value
        lead = rng.uniform(0.0, 1.5)
        lag = rng.uniform(0.0, 1.5)
        node = rng.randrange(3)
        ops.append(
            register_op(op_id, node, kind, seen, point - lead, point + lag)
        )
    return ops


class TestOracleHistories:
    @given(oracle_histories())
    @settings(max_examples=80, deadline=None)
    def test_oracle_histories_are_linearizable(self, ops):
        assert is_linearizable(ops, initial_value=None)

    @given(oracle_histories())
    @settings(max_examples=60, deadline=None)
    def test_found_points_replay_sequentially(self, ops):
        lin = analyze_linearizability(ops, initial_value=None).linearization
        assert lin is not None
        by_id = {op.op_id: op for op in ops}
        value = None
        previous = 0.0
        for op_id, point in lin:
            op = by_id[op_id]
            assert op.inv_time - 1e-9 <= point <= op.res_time + 1e-9
            assert point >= previous - 1e-9
            previous = point
            if op.kind == "W":
                value = op.value
            else:
                assert op.value == value


class TestMutations:
    @given(oracle_histories(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_future_read_rejected(self, ops, seed):
        """A read that returns a value written strictly after it ends is
        never linearizable."""
        rng = random.Random(seed)
        reads = [op for op in ops if op.kind == "R"]
        if not reads:
            return
        victim = rng.choice(reads)
        end = max(op.res_time for op in ops) + 1.0
        future_write = register_op(
            len(ops), 9, "W", ("future",), end + 1.0, end + 2.0
        )
        mutated = [
            register_op(
                op.op_id, op.node, op.kind,
                ("future",) if op.op_id == victim.op_id else op.value,
                op.inv_time, op.res_time,
            )
            for op in ops
        ] + [future_write]
        assert not is_linearizable(mutated, initial_value=None)

    @given(oracle_histories())
    @settings(max_examples=60, deadline=None)
    def test_unwritten_value_rejected(self, ops):
        """A read returning a value no write ever wrote fails."""
        reads = [op for op in ops if op.kind == "R"]
        if not reads:
            return
        victim = reads[0]
        mutated = [
            register_op(
                op.op_id, op.node, op.kind,
                ("never-written",) if op.op_id == victim.op_id else op.value,
                op.inv_time, op.res_time,
            )
            for op in ops
        ]
        assert not is_linearizable(mutated, initial_value=None)


def _as_object_operations(ops):
    """The same history in the generic vocabulary of ``RegisterSpec``."""
    return [
        Operation(op.op_id, op.node, op.kind,
                  ("write", op.arg) if op.kind == "W" else ("read",),
                  op.response, op.inv_time, op.res_time)
        for op in ops
    ]


def _brute_force_linearizable(ops, tolerance=1e-9):
    """Every permutation: legal for the register, and points fit greedily."""
    for order in permutations(ops):
        value, floor = None, 0.0
        for op in order:
            floor = max(op.inv_time, floor)
            if floor > op.res_time + tolerance:
                break
            if op.kind == "W":
                value = op.value
            elif op.value != value:
                break
        else:
            return True
    return False


class TestOneSearch:
    @given(oracle_histories(max_ops=6), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_register_spec_is_the_register_checker(self, ops, seed):
        """The register API and ``RegisterSpec`` through the generic API
        are one search: same verdict, same points, and the verdict is the
        brute-force one, on a history and on a twin with one read's value
        swapped for another written (or the initial) value."""
        rng = random.Random(seed)
        histories = [ops]
        reads = [op for op in ops if op.kind == "R"]
        if reads:
            victim = rng.choice(reads)
            value = rng.choice([None] + [op.value for op in ops if op.kind == "W"])
            histories.append([
                register_op(
                    op.op_id, op.node, op.kind, value, op.inv_time, op.res_time
                )
                if op is victim else op
                for op in ops
            ])
        for history in histories:
            lin = analyze_linearizability(history).linearization
            generic = analyze_linearizability(
                _as_object_operations(history), spec=RegisterSpec(None)
            ).linearization
            assert generic == lin
            assert (lin is not None) == _brute_force_linearizable(history)
