"""Unit tests for crash-stop: a ``RecoverableEntity`` under a ``[t, INFINITY)``
window, the one crash model (a crash with no recover)."""

from repro.automata.actions import Action, action_set
from repro.automata.signature import Signature
from repro.components.base import Entity
from repro.faults.recovery import RecoverableEntity, RecoverySchedule

INFINITY = float("inf")


class Chatty(Entity):
    """Emits SAY every second; counts inputs."""

    def __init__(self):
        super().__init__(
            "chatty",
            Signature(inputs=action_set("HEAR"), outputs=action_set("SAY")),
        )

    def initial_state(self):
        return {"next": 1.0, "heard": 0}

    def enabled(self, state, now):
        if abs(now - state["next"]) < 1e-9:
            return [Action("SAY", (0,))]
        return []

    def fire(self, state, action, now):
        state["next"] += 1.0

    def apply_input(self, state, action, now):
        state["heard"] += 1

    def deadline(self, state, now):
        return state["next"]

    def clock_value(self, state, now):
        return now


def crash_stop(crash_t):
    return RecoverySchedule.of([(crash_t, INFINITY)])


class TestCrashSchedule:
    def test_never_crashes(self):
        assert not RecoverySchedule().down(1e9)

    def test_crash_boundary(self):
        schedule = crash_stop(5.0)
        assert not schedule.down(4.9)
        assert schedule.down(5.0)
        assert schedule.down(6.0)


class TestCrashableEntity:
    def test_behaves_normally_before_crash(self):
        entity = RecoverableEntity(Chatty(), crash_stop(10.0))
        state = entity.initial_state()
        assert entity.enabled(state, 1.0) == [Action("SAY", (0,))]
        entity.fire(state, Action("SAY", (0,)), 1.0)
        assert state.inner["next"] == 2.0
        entity.apply_input(state, Action("HEAR", (0,)), 1.5)
        assert state.inner["heard"] == 1

    def test_silent_after_crash(self):
        entity = RecoverableEntity(Chatty(), crash_stop(1.5))
        state = entity.initial_state()
        assert entity.enabled(state, 2.0) == []
        entity.apply_input(state, Action("HEAR", (0,)), 2.0)
        assert state.inner["heard"] == 0
        assert state.lost_inputs == 1
        assert entity.deadline(state, 2.0) == INFINITY

    def test_fire_after_crash_is_noop(self):
        entity = RecoverableEntity(Chatty(), crash_stop(0.5))
        state = entity.initial_state()
        entity.fire(state, Action("SAY", (0,)), 1.0)
        assert state.inner["next"] == 1.0

    def test_none_schedule_never_interferes(self):
        entity = RecoverableEntity(Chatty(), RecoverySchedule())
        state = entity.initial_state()
        assert entity.deadline(state, 0.0) == 1.0
        entity.advance(state, 0.0, 100.0)
        assert not state.down and state.crashes == 0
