"""Tests for the generalized blind-update object algorithm."""

import dataclasses
from types import SimpleNamespace

import pytest

import repro.traces.linearizability
from repro.automata.actions import Action
from repro.automata.executions import TimedEvent, TimedSequence
from repro.components.base import ProcessContext
from repro.objects.algorithm import BlindUpdateObjectProcess
from repro.objects.specs import (
    CounterSpec,
    GrowSetSpec,
    LWWMapSpec,
    MaxRegisterSpec,
    PNCounterSpec,
    RegisterSpec,
)
from repro.registers.system import (
    clock_register_system,
    run_register_experiment,
    timed_register_system,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import MaximalDelay, MinimalDelay, UniformDelay
from repro.sim.scheduler import RandomScheduler
from repro.traces.linearizability import extract_operations

D1, D2 = 0.2, 1.0
DELTA = 0.01
ALL_SPECS = [CounterSpec, GrowSetSpec, MaxRegisterSpec, LWWMapSpec, PNCounterSpec]


def workload(operations, update_fraction, seed):
    """The objects' closed-loop workload shape (think 0.3-1.5)."""
    return RegisterWorkload(
        operations=operations, read_fraction=1.0 - update_fraction,
        think_min=0.3, think_max=1.5, seed=seed,
    )


def clock_run(spec, seed, operations=5, update_fraction=0.5, c=0.3, eps=0.1,
              driver="mixed", delay_model=None, horizon=70.0):
    """One clock-model run on 3 nodes; ``spec=None`` runs the register."""
    system = clock_register_system(
        n=3, d1=D1, d2=D2, c=c, eps=eps,
        workload=workload(operations, update_fraction, seed),
        drivers=driver_factory(driver, eps, seed=seed), delta=DELTA,
        delay_model=delay_model or UniformDelay(seed=seed), spec=spec,
    )
    return run_register_experiment(
        system, horizon, scheduler=RandomScheduler(seed=seed), spec=spec
    )


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
        system = timed_register_system(
            n=3, d1_prime=D1, d2_prime=D2, c=0.3, workload=workload(5, 0.5, 2),
            eps=eps, delta=DELTA, delay_model=UniformDelay(seed=2), spec=spec,
        )
        run = run_register_experiment(system, 70.0,
                                      scheduler=RandomScheduler(seed=2), spec=spec)
        assert len(run.operations) >= 10
        assert run.superlinearizable(eps)

    def test_latency_bounds(self):
        spec = CounterSpec()
        eps, c = 0.1, 0.3
        system = timed_register_system(
            n=3, d1_prime=D1, d2_prime=D2, c=c, workload=workload(6, 0.5, 3),
            eps=eps, delta=DELTA, delay_model=UniformDelay(seed=3), spec=spec,
        )
        run = run_register_experiment(system, 70.0,
                                      scheduler=RandomScheduler(seed=3), spec=spec)
        assert run.max_read_latency() <= c + 2 * eps + DELTA + 1e-9
        assert run.max_write_latency() <= D2 - c + 1e-9


class TestClockModel:
    @pytest.mark.parametrize("spec_cls", ALL_SPECS, ids=lambda c: c.__name__)
    def test_linearizable_under_adversarial_clocks(self, spec_cls):
        run = clock_run(spec_cls(), seed=4)
        assert len(run.operations) >= 10
        assert run.linearizable()

    @pytest.mark.parametrize(
        "delay_model", [MinimalDelay(), MaximalDelay()],
        ids=lambda d: type(d).__name__,
    )
    def test_counter_across_delay_adversaries(self, delay_model):
        run = clock_run(CounterSpec(), seed=5, update_fraction=0.7, c=0.2,
                        eps=0.15, delay_model=delay_model)
        assert run.linearizable()

    def test_final_replicas_agree(self):
        """After quiescence every replica holds the same counter value."""
        run = clock_run(CounterSpec(), seed=6, operations=6, update_fraction=1.0,
                        driver="random", horizon=90.0)
        values = set()
        for name, state in run.result.final_states.items():
            if name.endswith("^c") and hasattr(state, "proc_state"):
                values.add(state.proc_state.value)
        assert len(values) == 1
        total = sum(
            op.value[1] if op.value[0] == "add" else -op.value[1]
            for op in run.writes
        )
        assert values == {total}


class TestOneHistory:
    @pytest.mark.parametrize(
        "spec", [None, CounterSpec()], ids=["register", "counter"]
    )
    def test_client_records_are_the_trace_operations(self, spec):
        """The clients record exactly what the extractor finds in the
        trace, up to numbering."""
        run = clock_run(spec, seed=3)

        def records(ops):
            return sorted(
                (dataclasses.replace(op, op_id=0) for op in ops),
                key=lambda op: (op.inv_time, op.node),
            )

        assert run.operations
        assert records(run.operations) == records(
            extract_operations(run.result.trace)
        )


VOCABULARIES = {
    "register": (None, "RETURN"),
    "counter": (CounterSpec(), "REPLY"),
    "register-object": (RegisterSpec(), "REPLY"),
}


class TestVerdictsAreNeverVacuous:
    """The run's checker sees every operation its clients completed.

    The register read as an object (``BlindUpdateObjectProcess`` over
    ``RegisterSpec``) speaks ``ASK`` / ``DO``, where an extractor that
    paired only ``READ`` / ``WRITE`` would find nothing and accept.
    """

    @pytest.mark.parametrize("name", sorted(VOCABULARIES))
    def test_checks_every_operation(self, name, monkeypatch):
        spec, _ = VOCABULARIES[name]
        run = clock_run(spec, seed=7)
        assert run.reads and run.writes
        checked = []
        search = repro.traces.linearizability.search_linearization

        def spy(ops, *args, **kwargs):
            checked.append(len(ops))
            return search(ops, *args, **kwargs)

        monkeypatch.setattr(
            repro.traces.linearizability, "search_linearization", spy
        )
        assert run.linearizable()
        assert checked == [len(run.operations)]

    @pytest.mark.parametrize("name", sorted(VOCABULARIES))
    def test_a_corrupted_response_is_rejected(self, name):
        spec, response = VOCABULARIES[name]
        run = clock_run(spec, seed=7)
        events = list(run.result.trace)
        index = next(
            i for i, event in enumerate(events) if event.action.name == response
        )
        node = events[index].action.params[0]
        events[index] = TimedEvent(
            Action(response, (node, ("never", "written"))), events[index].time
        )
        corrupted = dataclasses.replace(
            run, result=SimpleNamespace(trace=TimedSequence(events))
        )
        assert run.linearizable()
        assert not corrupted.linearizable()
