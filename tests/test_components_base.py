"""Direct tests for the executable-layer base interfaces."""

import pytest

from helpers import EchoProcess, PingerProcess
from repro.automata.actions import Action
from repro.components.base import Entity, Process, ProcessContext, TimedNodeEntity
from repro.core.clock_transform import (
    ClockMachine,
    ClockNodeEntity,
    PassThroughMachine,
)


class TestProcessContext:
    def test_carries_time(self):
        assert ProcessContext(3.5).time == 3.5

    def test_repr(self):
        assert "3.5" in repr(ProcessContext(3.5))

    def test_slots_prevent_extra_attrs(self):
        ctx = ProcessContext(1.0)
        with pytest.raises(AttributeError):
            ctx.extra = 1


class TestProcessDefaults:
    def test_abstract_methods_raise(self):
        from repro.automata.signature import Signature

        proc = Process(0, Signature())
        with pytest.raises(NotImplementedError):
            proc.initial_state()
        with pytest.raises(NotImplementedError):
            proc.enabled(None, ProcessContext(0.0))
        with pytest.raises(NotImplementedError):
            proc.fire(None, Action("X"), ProcessContext(0.0))
        with pytest.raises(NotImplementedError):
            proc.apply_input(None, Action("X"), ProcessContext(0.0))

    def test_default_deadline_is_infinite(self):
        from repro.automata.signature import Signature

        proc = Process(0, Signature())
        assert proc.deadline(None, ProcessContext(0.0)) == float("inf")

    def test_default_name(self):
        from repro.automata.signature import Signature

        assert "3" in Process(3, Signature()).name


class TestTimedNodeEntity:
    def make(self):
        return TimedNodeEntity(PingerProcess(0, 1, count=2, interval=1.0))

    def test_name_and_signature_from_process(self):
        entity = self.make()
        assert entity.name == "pinger(0)"
        assert entity.signature.is_output(Action("PING", (0, 1)))

    def test_clock_value_is_real_time(self):
        entity = self.make()
        state = entity.initial_state()
        assert entity.clock_value(state, 7.25) == 7.25

    def test_delegation_passes_now_as_time(self):
        entity = self.make()
        state = entity.initial_state()
        # at now=1.0 the pinger's PING is enabled (its schedule is met)
        assert Action("PING", (0, 1)) in entity.enabled(state, 1.0)
        assert entity.enabled(state, 0.5) == []
        assert entity.deadline(state, 0.5) == 1.0

    def test_default_advance_is_noop(self):
        entity = self.make()
        state = entity.initial_state()
        entity.advance(state, 0.0, 5.0)  # must not raise or mutate time
        assert entity.deadline(state, 5.0) == 1.0

    def test_entity_base_defaults(self):
        from repro.automata.signature import Signature

        entity = Entity("e", Signature())
        assert entity.deadline(None, 0.0) == float("inf")
        assert entity.clock_value(None, 0.0) is None
        assert not entity.accepts(Action("X"))


class ImpureScheduleProcess(PingerProcess):
    """A process whose flags all differ from the ``Entity`` defaults.

    ``Entity`` defaults to ``pure_enabled=True`` / ``static_deadline=False``
    / ``wakes_at_deadline=False``, so a wrapper that silently falls back
    to any default is caught by exactly one of the assertions below.
    """

    pure_enabled = False
    static_deadline = True
    wakes_at_deadline = True


class TestContractForwarding:
    """Wrappers must forward the wrapped automaton's scheduling flags.

    Regression for the ``TimedNodeEntity`` gap where only two of the
    three flags were copied: the engine then scheduled every timed node
    with ``Entity``'s defaults, silently disabling deadline-skip
    optimizations (and, for an impure process, wrongly caching
    ``enabled()``). The forwarding mutants listed in
    ``docs/static-analysis.md`` fail here or in ``tests/test_recovery.py``.
    """

    def make_process(self):
        return ImpureScheduleProcess(0, 1, count=2, interval=1.0)

    def test_timed_node_forwards_all_three_flags(self):
        entity = TimedNodeEntity(self.make_process())
        assert entity.pure_enabled is False
        assert entity.static_deadline is True
        assert entity.wakes_at_deadline is True

    def clock_node_cases(self):
        """``(process, driver, promises)``: the deadline promises hold
        exactly when the clock is a function of ``now`` (a
        granularity-free driver) *and* the process makes both itself."""
        from repro.sim.clock_drivers import (
            DriftingClockDriver,
            FaultyClockDriver,
            PerfectClockDriver,
            RandomWalkClockDriver,
            SkewedClockDriver,
        )

        class NoWake(ImpureScheduleProcess):
            wakes_at_deadline = False

        class MovingDeadline(ImpureScheduleProcess):
            static_deadline = False

        promising = self.make_process()
        perfect = PerfectClockDriver(eps=0.1)
        return [
            (promising, perfect, True),
            (promising, SkewedClockDriver(eps=0.1, beta=0.05), True),
            (promising, DriftingClockDriver(eps=0.1, rho=1.01), False),
            (promising, RandomWalkClockDriver(eps=0.1, seed=1), False),
            (promising, FaultyClockDriver(perfect, []), False),
            (NoWake(0, 1, count=2, interval=1.0), perfect, False),
            (MovingDeadline(0, 1, count=2, interval=1.0), perfect, False),
        ]

    def check_clock_node(self, make_machine):
        from repro.sim.clock_drivers import FaultyClockDriver

        for process, driver, promises in self.clock_node_cases():
            entity = ClockNodeEntity(make_machine(process), driver)
            assert entity.pure_enabled is False
            assert entity.static_deadline is promises, driver
            assert entity.wakes_at_deadline is promises, driver
            # the chaos layer swaps drivers on a copy of the node
            entity.driver = FaultyClockDriver(driver, [])
            assert entity.static_deadline is False
            assert entity.wakes_at_deadline is False

    def test_clock_node_forwards_purity_and_pins_deadline_flags(self):
        self.check_clock_node(lambda process: ClockMachine(process, [1], [1]))

    def test_native_clock_node_forwards_purity(self):
        self.check_clock_node(PassThroughMachine)

    def test_mmt_node_forwards_purity(self):
        from repro.components.mmt import TimedFromMMT
        from repro.core.mmt_transform import DelayedSimulation

        machine = ClockMachine(self.make_process(), [1], [1])
        entity = TimedFromMMT(DelayedSimulation(machine, step_bound=0.5))
        assert entity.pure_enabled is False
        # The MMT machine owns its deadlines regardless of the process.
        assert entity.static_deadline is True
        assert entity.wakes_at_deadline is True

    def test_pure_wrapped_process_stays_pure(self):
        entity = TimedNodeEntity(PingerProcess(0, 1, count=2, interval=1.0))
        assert entity.pure_enabled is True
        assert entity.static_deadline is True
        assert entity.wakes_at_deadline is True
