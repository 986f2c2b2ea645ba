"""Tests for algorithm L in the timed model (Lemma 6.1)."""

from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registers.algorithm_l import AlgorithmLProcess, RegisterState
from repro.registers.system import (
    INITIAL_VALUE,
    run_register_experiment,
    timed_register_system,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.delay import MaximalDelay, MinimalDelay, UniformDelay
from repro.sim.scheduler import RandomScheduler
from repro.automata.actions import Action
from repro.components.base import ProcessContext
from repro.constants import INFINITY, TOLERANCE
from repro.sim.persistence import decode_state, encode_state

D1P, D2P = 0.2, 1.0
DELTA = 0.01


def run(c, seed=0, n=3, ops=6, delay_model=None, horizon=60.0):
    workload = RegisterWorkload(operations=ops, read_fraction=0.5, seed=seed)
    spec = timed_register_system(
        n=n, d1_prime=D1P, d2_prime=D2P, c=c, workload=workload,
        algorithm="L", delta=DELTA, delay_model=delay_model,
    )
    return run_register_experiment(
        spec, horizon, scheduler=RandomScheduler(seed=seed)
    )


class TestUnitTransitions:
    def process(self, c=0.3):
        return AlgorithmLProcess(0, [0, 1], D2P, c, delta=DELTA)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AlgorithmLProcess(0, [0], D2P, c=-0.1)
        with pytest.raises(ValueError):
            AlgorithmLProcess(0, [0], D2P, c=D2P + 1.0)
        with pytest.raises(ValueError):
            AlgorithmLProcess(0, [0], D2P, c=0.1, delta=0.0)

    def test_read_schedules_return(self):
        proc = self.process(c=0.3)
        state = proc.initial_state()
        proc.apply_input(state, Action("READ", (0,)), ProcessContext(5.0))
        assert state.read_time == pytest.approx(5.0 + 0.3 + DELTA)
        assert proc.deadline(state, ProcessContext(5.0)) == state.read_time

    def test_write_sends_to_all_peers_then_acks(self):
        proc = self.process(c=0.3)
        state = proc.initial_state()
        ctx = ProcessContext(2.0)
        proc.apply_input(state, Action("WRITE", (0, "v")), ctx)
        sends = [a for a in proc.enabled(state, ctx) if a.name == "SENDMSG"]
        assert {a.params[1] for a in sends} == {0, 1}
        # messages carry t = now + d2'
        assert all(a.params[2] == ("v", 2.0 + D2P) for a in sends)
        for a in sends:
            proc.fire(state, a, ctx)
        assert state.write_status == "ack"
        assert state.ack_time == pytest.approx(2.0 + D2P - 0.3)

    def test_update_applied_at_scheduled_time(self):
        proc = self.process()
        state = proc.initial_state()
        t = 3.0
        proc.apply_input(
            state, Action("RECVMSG", (0, 1, ("v", t))), ProcessContext(2.5)
        )
        ctx = ProcessContext(t + DELTA)
        (update,) = [a for a in proc.enabled(state, ctx) if a.name == "UPDATE"]
        proc.fire(state, update, ctx)
        assert state.value == "v"
        assert not state.updates

    def test_same_time_updates_largest_sender_wins(self):
        proc = self.process()
        state = proc.initial_state()
        ctx = ProcessContext(2.0)
        proc.apply_input(state, Action("RECVMSG", (0, 1, ("from1", 3.0))), ctx)
        proc.apply_input(state, Action("RECVMSG", (0, 2, ("from2", 3.0))), ctx)
        proc.apply_input(state, Action("RECVMSG", (0, 0, ("from0", 3.0))), ctx)
        ctx_due = ProcessContext(3.0 + DELTA)
        (update,) = [a for a in proc.enabled(state, ctx_due) if a.name == "UPDATE"]
        proc.fire(state, update, ctx_due)
        assert state.value == "from2"
        assert not state.updates

    def test_overdue_updates_apply_in_instant_order(self):
        """Time jumped past two update instants: one UPDATE catches the
        replica up, the later instant's write last."""
        proc = self.process()
        state = proc.initial_state()
        ctx = ProcessContext(2.0)
        proc.apply_input(state, Action("RECVMSG", (0, 1, ("later", 10.0))), ctx)
        proc.apply_input(state, Action("RECVMSG", (0, 2, ("earlier", 9.0))), ctx)
        proc.apply_input(state, Action("RECVMSG", (0, 1, ("pending", 20.0))), ctx)
        late = ProcessContext(15.0)
        (update,) = proc.enabled(state, late)
        assert update == Action("UPDATE", (0, 10.0 + DELTA))
        proc.fire(state, update, late)
        assert state.value == "later"
        assert list(state.updates) == [20.0 + DELTA]
        assert proc.enabled(state, late) == []

    def test_return_waits_for_same_instant_update(self):
        proc = self.process(c=0.3)
        state = proc.initial_state()
        read_at = 1.0
        proc.apply_input(state, Action("READ", (0,)), ProcessContext(read_at))
        due = state.read_time
        # an update lands at exactly the same instant
        proc.apply_input(
            state,
            Action("RECVMSG", (0, 1, ("new", due - DELTA))),
            ProcessContext(read_at + 0.1),
        )
        ctx = ProcessContext(due)
        enabled = proc.enabled(state, ctx)
        assert all(a.name != "RETURN" for a in enabled)
        (update,) = [a for a in enabled if a.name == "UPDATE"]
        proc.fire(state, update, ctx)
        (ret,) = [a for a in proc.enabled(state, ctx) if a.name == "RETURN"]
        assert ret.params[1] == "new"

    def test_mintime_infinity_when_idle(self):
        proc = self.process()
        state = proc.initial_state()
        assert state.mintime() == float("inf")


class _ScanReference:
    """Figure 3's pending updates as an unordered dict, every question
    answered by a scan over all of them."""

    def __init__(self):
        self.updates = {}
        self.value = None

    def receive(self, sender, update, instant):
        self.updates[instant] = sorted(
            [*self.updates.get(instant, ()), (sender, update)],
            key=itemgetter(0),
        )

    def due(self, now):
        horizon = now + TOLERANCE
        return max((t for t in self.updates if t <= horizon), default=None)

    def apply(self, t):
        for instant in sorted(k for k in self.updates if k <= t):
            for _, update in self.updates.pop(instant):
                self.value = update

    def enabled(self, state, now):
        due = self.due(now)
        if due is not None:
            return [Action("UPDATE", (0, due))]
        if state.read_status == "active" and state.read_time <= now + TOLERANCE:
            return [Action("RETURN", (0, self.value))]
        return []

    def deadline(self, state):
        candidates = [min(self.updates)] if self.updates else []
        if state.read_status == "active":
            candidates.append(state.read_time)
        return min(candidates, default=INFINITY)


_STEPS = st.lists(
    st.one_of(
        # a RECVMSG from one of three senders whose instant lies on a
        # coarse grid: duplicate instants, several senders per instant,
        # arrivals after later instants and after their own instant
        st.tuples(st.just("recv"), st.integers(0, 2), st.integers(0, 12)),
        # time passes without firing, so several buckets fall overdue
        st.tuples(st.just("wait"), st.sampled_from([0.25, 0.5, 1.5, 4.0])),
        st.just(("fire",)),
        st.just(("read",)),
        st.just(("snapshot",)),
    ),
    max_size=60,
)


class TestOrderedInstants:
    """``RegisterState.instants`` against the O(P) scan it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(_STEPS)
    def test_matches_the_scan_after_every_step(self, steps):
        proc = AlgorithmLProcess(0, [0, 1, 2], D2P, 0.3, delta=DELTA)
        state = proc.initial_state()
        ref = _ScanReference()
        now = 0.0
        for index, step in enumerate(steps):
            ctx = ProcessContext(now)
            kind = step[0]
            if kind == "recv":
                _, sender, slot = step
                t, update = slot * 0.5, ("u", index)
                proc.apply_input(
                    state, Action("RECVMSG", (0, sender, (update, t))), ctx
                )
                ref.receive(sender, update, t + DELTA)
            elif kind == "wait":
                now += step[1]
                ctx = ProcessContext(now)
            elif kind == "fire":
                actions = proc.enabled(state, ctx)
                if actions:
                    proc.fire(state, actions[0], ctx)
                    if actions[0].name == "UPDATE":
                        ref.apply(actions[0].params[1])
            elif kind == "read":
                if state.read_status == "inactive":
                    proc.apply_input(state, Action("READ", (0,)), ctx)
            else:
                restored = decode_state(encode_state(state))
                assert restored.instants == state.instants
                assert restored.instants is not state.instants
                assert restored.updates == state.updates
                state = restored
            assert state.instants == sorted(state.updates)
            assert state.updates == ref.updates
            assert state.value == ref.value
            assert proc.enabled(state, ctx) == ref.enabled(state, now)
            assert proc.deadline(state, ctx) == ref.deadline(state)


class TestLemma61:
    @pytest.mark.parametrize("c", [0.0, 0.3, 0.5, 0.8])
    def test_latency_bounds(self, c):
        result = run(c, seed=1)
        assert result.max_read_latency() <= c + DELTA + 1e-9
        assert result.max_write_latency() <= D2P - c + 1e-9
        assert result.reads and result.writes

    @pytest.mark.parametrize("seed", range(4))
    def test_linearizable_across_seeds(self, seed):
        assert run(0.4, seed=seed).linearizable()

    @pytest.mark.parametrize(
        "delay_model", [MinimalDelay(), MaximalDelay(), UniformDelay(seed=2)],
        ids=lambda d: type(d).__name__,
    )
    def test_linearizable_across_delay_models(self, delay_model):
        assert run(0.4, seed=2, delay_model=delay_model).linearizable()

    def test_read_write_tradeoff(self):
        cheap_reads = run(0.0, seed=3)
        cheap_writes = run(0.8, seed=3)
        assert cheap_reads.max_read_latency() < cheap_writes.max_read_latency()
        assert cheap_writes.max_write_latency() < cheap_reads.max_write_latency()

    def test_five_nodes(self):
        result = run(0.3, seed=5, n=5, ops=4, horizon=80.0)
        assert result.linearizable()
        assert len(result.operations) >= 10

    def test_reads_return_written_values(self):
        result = run(0.4, seed=7)
        written = {op.value for op in result.writes} | {INITIAL_VALUE}
        assert all(op.value in written for op in result.reads)
