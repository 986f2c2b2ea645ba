"""Tests for the generalized blind-update object algorithm."""

import pytest

from repro.automata.actions import Action
from repro.components.base import ProcessContext
from repro.objects.algorithm import BlindUpdateObjectProcess
from repro.objects.specs import (
    CounterSpec,
    GrowSetSpec,
    LWWMapSpec,
    MaxRegisterSpec,
    PNCounterSpec,
)
from repro.objects.system import (
    ObjectWorkload,
    clock_object_system,
    run_object_experiment,
    timed_object_system,
)
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import MaximalDelay, MinimalDelay, UniformDelay
from repro.sim.scheduler import RandomScheduler

D1, D2 = 0.2, 1.0
DELTA = 0.01
ALL_SPECS = [CounterSpec, GrowSetSpec, MaxRegisterSpec, LWWMapSpec, PNCounterSpec]


class TestUnitTransitions:
    def process(self, spec=None):
        return BlindUpdateObjectProcess(
            0, [0, 1], spec or CounterSpec(), d2_prime=1.0, c=0.3,
            eps=0.1, delta=DELTA,
        )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BlindUpdateObjectProcess(0, [0], CounterSpec(), 1.0, c=-0.1)
        with pytest.raises(ValueError):
            BlindUpdateObjectProcess(0, [0], CounterSpec(), 1.0, c=0.1, eps=-1)
        with pytest.raises(ValueError):
            BlindUpdateObjectProcess(0, [0], CounterSpec(), 1.0, c=0.1, delta=0)

    def test_update_broadcast_schedule(self):
        proc = self.process()
        state = proc.initial_state()
        ctx = ProcessContext(2.0)
        proc.apply_input(state, Action("DO", (0, ("add", 3))), ctx)
        sends = [a for a in proc.enabled(state, ctx) if a.name == "SENDMSG"]
        assert {a.params[1] for a in sends} == {0, 1}
        assert all(a.params[2] == (("add", 3), 3.0) for a in sends)
        for a in sends:
            proc.fire(state, a, ctx)
        assert state.write_status == "ack"
        assert state.ack_time == pytest.approx(2.0 + 0.7)

    def test_same_instant_updates_all_applied_in_sender_order(self):
        """Unlike the register, same-instant counter updates all count."""
        proc = self.process()
        state = proc.initial_state()
        ctx = ProcessContext(2.0)
        proc.apply_input(state, Action("RECVMSG", (0, 1, (("add", 1), 3.0))), ctx)
        proc.apply_input(state, Action("RECVMSG", (0, 0, (("add", 2), 3.0))), ctx)
        ctx_due = ProcessContext(3.0 + DELTA)
        (apply_action,) = [
            a for a in proc.enabled(state, ctx_due) if a.name == "APPLY"
        ]
        proc.fire(state, apply_action, ctx_due)
        assert state.value == 3  # both applied

    def test_same_instant_order_matters_for_lww(self):
        """LWW-map puts at the same instant: the larger sender wins."""
        proc = self.process(spec=LWWMapSpec())
        state = proc.initial_state()
        ctx = ProcessContext(0.0)
        proc.apply_input(
            state, Action("RECVMSG", (0, 1, (("put", "k", "from1"), 3.0))), ctx
        )
        proc.apply_input(
            state, Action("RECVMSG", (0, 0, (("put", "k", "from0"), 3.0))), ctx
        )
        ctx_due = ProcessContext(3.0 + DELTA)
        (apply_action,) = [
            a for a in proc.enabled(state, ctx_due) if a.name == "APPLY"
        ]
        proc.fire(state, apply_action, ctx_due)
        assert dict(state.value)["k"] == "from1"

    def test_query_waits_and_replies(self):
        proc = self.process()
        state = proc.initial_state()
        proc.apply_input(state, Action("ASK", (0, ("read",))), ProcessContext(1.0))
        due = 1.0 + 0.3 + 2 * 0.1 + DELTA
        assert state.read_time == pytest.approx(due)
        (reply,) = [
            a for a in proc.enabled(state, ProcessContext(due))
            if a.name == "REPLY"
        ]
        assert reply.params[1] == 0

    def test_query_defers_to_same_instant_apply(self):
        proc = self.process()
        state = proc.initial_state()
        proc.apply_input(state, Action("ASK", (0, ("read",))), ProcessContext(0.0))
        due = state.read_time
        proc.apply_input(
            state, Action("RECVMSG", (0, 1, (("add", 5), due - DELTA))),
            ProcessContext(0.5),
        )
        ctx_due = ProcessContext(due)
        enabled = proc.enabled(state, ctx_due)
        assert all(a.name != "REPLY" for a in enabled)
        (apply_action,) = [a for a in enabled if a.name == "APPLY"]
        proc.fire(state, apply_action, ctx_due)
        (reply,) = [a for a in proc.enabled(state, ctx_due) if a.name == "REPLY"]
        assert reply.params[1] == 5


class TestTimedModel:
    @pytest.mark.parametrize("spec_cls", ALL_SPECS, ids=lambda c: c.__name__)
    def test_superlinearizable_in_timed_model(self, spec_cls):
        spec = spec_cls()
        eps = 0.1
        workload = ObjectWorkload(operations=5, update_fraction=0.5, seed=2)
        system = timed_object_system(
            spec, n=3, d1_prime=D1, d2_prime=D2, c=0.3, workload=workload,
            eps=eps, delta=DELTA, delay_model=UniformDelay(seed=2),
        )
        run = run_object_experiment(system, spec, 70.0,
                                    scheduler=RandomScheduler(seed=2))
        assert len(run.operations) >= 10
        assert run.superlinearizable(eps)

    def test_latency_bounds(self):
        spec = CounterSpec()
        eps, c = 0.1, 0.3
        workload = ObjectWorkload(operations=6, update_fraction=0.5, seed=3)
        system = timed_object_system(
            spec, n=3, d1_prime=D1, d2_prime=D2, c=c, workload=workload,
            eps=eps, delta=DELTA, delay_model=UniformDelay(seed=3),
        )
        run = run_object_experiment(system, spec, 70.0,
                                    scheduler=RandomScheduler(seed=3))
        assert run.max_query_latency() <= c + 2 * eps + DELTA + 1e-9
        assert run.max_update_latency() <= D2 - c + 1e-9


class TestClockModel:
    @pytest.mark.parametrize("spec_cls", ALL_SPECS, ids=lambda c: c.__name__)
    def test_linearizable_under_adversarial_clocks(self, spec_cls):
        spec = spec_cls()
        eps = 0.1
        workload = ObjectWorkload(operations=5, update_fraction=0.5, seed=4)
        system = clock_object_system(
            spec, n=3, d1=D1, d2=D2, c=0.3, eps=eps, workload=workload,
            drivers=driver_factory("mixed", eps, seed=4),
            delta=DELTA, delay_model=UniformDelay(seed=4),
        )
        run = run_object_experiment(system, spec, 70.0,
                                    scheduler=RandomScheduler(seed=4))
        assert len(run.operations) >= 10
        assert run.linearizable()

    @pytest.mark.parametrize(
        "delay_model", [MinimalDelay(), MaximalDelay()],
        ids=lambda d: type(d).__name__,
    )
    def test_counter_across_delay_adversaries(self, delay_model):
        spec = CounterSpec()
        workload = ObjectWorkload(operations=5, update_fraction=0.7, seed=5)
        system = clock_object_system(
            spec, n=3, d1=D1, d2=D2, c=0.2, eps=0.15, workload=workload,
            drivers=driver_factory("mixed", 0.15, seed=5),
            delay_model=delay_model,
        )
        run = run_object_experiment(system, spec, 70.0,
                                    scheduler=RandomScheduler(seed=5))
        assert run.linearizable()

    def test_final_replicas_agree(self):
        """After quiescence every replica holds the same counter value."""
        spec = CounterSpec()
        workload = ObjectWorkload(operations=6, update_fraction=1.0, seed=6)
        system = clock_object_system(
            spec, n=3, d1=D1, d2=D2, c=0.3, eps=0.1, workload=workload,
            drivers=driver_factory("random", 0.1, seed=6),
            delay_model=UniformDelay(seed=6),
        )
        run = run_object_experiment(system, spec, 90.0,
                                    scheduler=RandomScheduler(seed=6))
        values = set()
        for name, state in run.result.final_states.items():
            if name.endswith("^c") and hasattr(state, "proc_state"):
                values.add(state.proc_state.value)
        assert len(values) == 1
        total = sum(
            op.payload[1] if op.payload[0] == "add" else -op.payload[1]
            for op in run.updates
        )
        assert values == {total}
