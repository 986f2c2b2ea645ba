"""Tests for register clients and workloads."""

import pytest

from repro.automata.actions import Action
from repro.errors import TransitionError
from repro.registers.workload import ClientEntity, RegisterWorkload


class TestWorkloadValidation:
    def test_read_fraction_validated(self):
        with pytest.raises(ValueError):
            RegisterWorkload(read_fraction=1.5)

    def test_think_range_validated(self):
        with pytest.raises(ValueError):
            RegisterWorkload(think_min=2.0, think_max=1.0)
        with pytest.raises(ValueError):
            RegisterWorkload(think_min=-1.0)


class TestClient:
    def make(self, **kwargs):
        defaults = dict(operations=3, read_fraction=0.0, seed=1)
        defaults.update(kwargs)
        return ClientEntity(0, RegisterWorkload(**defaults))

    def test_respects_start_delay(self):
        client = self.make(start_delay=5.0)
        state = client.initial_state()
        assert client.enabled(state, 1.0) == []
        assert client.enabled(state, 5.0) != []
        assert client.deadline(state, 1.0) == 5.0

    def test_alternation_no_new_op_while_pending(self):
        client = self.make()
        state = client.initial_state()
        (inv,) = client.enabled(state, 0.0)
        client.fire(state, inv, 0.0)
        assert client.enabled(state, 10.0) == []
        assert client.deadline(state, 10.0) == float("inf")

    def test_response_completes_and_schedules_next(self):
        client = self.make(read_fraction=0.0, think_min=1.0, think_max=1.0)
        state = client.initial_state()
        (inv,) = client.enabled(state, 0.0)
        assert inv.name == "WRITE"
        client.fire(state, inv, 0.0)
        client.apply_input(state, Action("ACK", (0,)), 0.7)
        assert len(state.completed) == 1
        op = state.completed[0]
        assert op.kind == "W" and op.latency == pytest.approx(0.7)
        assert state.next_inv_time == pytest.approx(1.7)

    def test_written_values_unique(self):
        client = self.make(operations=5, think_min=0.0, think_max=0.0)
        state = client.initial_state()
        values = set()
        now = 0.0
        for _ in range(5):
            (inv,) = client.enabled(state, now)
            client.fire(state, inv, now)
            values.add(inv.params[1])
            client.apply_input(state, Action("ACK", (0,)), now + 0.1)
            now += 0.2
        assert len(values) == 5

    def test_stops_after_operation_budget(self):
        client = self.make(operations=1, think_min=0.0, think_max=0.0)
        state = client.initial_state()
        (inv,) = client.enabled(state, 0.0)
        client.fire(state, inv, 0.0)
        client.apply_input(state, Action("ACK", (0,)), 0.1)
        assert client.enabled(state, 1.0) == []

    def test_mismatched_response_rejected(self):
        client = self.make(read_fraction=1.0)
        state = client.initial_state()
        (inv,) = client.enabled(state, 0.0)
        assert inv.name == "READ"
        client.fire(state, inv, 0.0)
        with pytest.raises(TransitionError):
            client.apply_input(state, Action("ACK", (0,)), 0.5)

    def test_unsolicited_response_rejected(self):
        client = self.make()
        state = client.initial_state()
        with pytest.raises(TransitionError):
            client.apply_input(state, Action("ACK", (0,)), 0.0)

    def test_read_fraction_one_only_reads(self):
        client = self.make(operations=4, read_fraction=1.0,
                           think_min=0.0, think_max=0.0)
        state = client.initial_state()
        now = 0.0
        kinds = []
        for _ in range(4):
            (inv,) = client.enabled(state, now)
            kinds.append(inv.name)
            client.fire(state, inv, now)
            client.apply_input(state, Action("RETURN", (0, "v")), now + 0.1)
            now += 0.2
        assert kinds == ["READ"] * 4
