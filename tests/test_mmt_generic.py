"""Tests for generic MMT automata and the T-transformation ([7])."""

import pytest

from repro.automata.actions import Action, action_set
from repro.automata.signature import Signature
from repro.components.mmt import (
    Boundmap,
    EagerStepPolicy,
    LazyStepPolicy,
    MMTAutomaton,
    TimedFromMMT,
    UniformStepPolicy,
)
from repro.constants import INFINITY
from repro.errors import SpecificationError
from repro.sim.engine import Simulator

WORK = Action("WORK")
FAST = Action("FAST")
STEP = Action("STEP")
OPEN = Action("OPEN")


class TwoClassAutomaton(MMTAutomaton):
    """WORK in class "slow" [1, 2]; FAST in class "quick" [0, 0.5].

    FAST is enabled only until three have fired; WORK is always enabled.
    """

    def __init__(self):
        super().__init__(
            Signature(outputs=action_set("WORK", "FAST")), name="two-class"
        )

    def initial_state(self):
        return {"work": 0, "fast": 0}

    def apply_input(self, state, action):
        raise AssertionError("no inputs")

    def enabled(self, state):
        actions = [WORK]
        if state["fast"] < 3:
            actions.append(FAST)
        return actions

    def fire(self, state, action):
        if action == WORK:
            state["work"] += 1
        else:
            state["fast"] += 1

    def class_of(self, action):
        return "slow" if action == WORK else "quick"

    def boundmap(self):
        return Boundmap({"slow": (1.0, 2.0), "quick": (0.0, 0.5)})


class TestBoundmap:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(SpecificationError):
            Boundmap({"c": (-1.0, 2.0)})
        with pytest.raises(SpecificationError):
            Boundmap({"c": (2.0, 1.0)})

    def test_interval_lookup(self):
        bm = Boundmap({"a": (0.0, 1.0), "b": (1.0, 2.0)})
        assert bm.interval("a") == (0.0, 1.0)
        assert set(bm.classes()) == {"a", "b"}
        with pytest.raises(KeyError):
            bm.interval("missing")


class TestTimedFromMMT:
    def test_lazy_policy_fires_at_upper_bound(self):
        entity = TimedFromMMT(
            TwoClassAutomaton(),
            step_policies={"slow": LazyStepPolicy(), "quick": LazyStepPolicy()},
        )
        result = Simulator([entity]).run(4.0)
        works = [e.now for e in result.recorder.events if e.action == WORK]
        fasts = [e.now for e in result.recorder.events if e.action == FAST]
        assert works == pytest.approx([2.0, 4.0])
        assert fasts == pytest.approx([0.5, 1.0, 1.5])

    def test_upper_bound_never_exceeded(self):
        entity = TimedFromMMT(
            TwoClassAutomaton(),
            step_policies={"slow": LazyStepPolicy(), "quick": LazyStepPolicy()},
        )
        result = Simulator([entity]).run(10.0)
        works = [e.now for e in result.recorder.events if e.action == WORK]
        gaps = [b - a for a, b in zip(works, works[1:])]
        assert all(gap <= 2.0 + 1e-9 for gap in gaps)

    def test_lower_bound_respected(self):
        entity = TimedFromMMT(
            TwoClassAutomaton(),
            step_policies={"slow": EagerStepPolicy(), "quick": EagerStepPolicy()},
        )
        result = Simulator([entity]).run(5.0)
        works = [e.now for e in result.recorder.events if e.action == WORK]
        # eager policy clamps into the window: first WORK at >= 1.0
        assert works[0] >= 1.0 - 1e-9
        gaps = [b - a for a, b in zip(works, works[1:])]
        assert all(gap >= 1.0 - 1e-9 for gap in gaps)

    def test_disabled_class_timer_cleared(self):
        entity = TimedFromMMT(
            TwoClassAutomaton(),
            step_policies={"slow": LazyStepPolicy(), "quick": LazyStepPolicy()},
        )
        result = Simulator([entity]).run(10.0)
        fasts = [e for e in result.recorder.events if e.action == FAST]
        assert len(fasts) == 3  # class disabled after three


class GateAutomaton(MMTAutomaton):
    """STEP in class "step" [0, 1]: it works off one OPEN input and is a
    stutter when none is owed, so the automaton idles between inputs."""

    def __init__(self):
        super().__init__(
            Signature(inputs=action_set("OPEN"), outputs=action_set("STEP")),
            name="gate",
        )

    def initial_state(self):
        return {"owed": 0}

    def apply_input(self, state, action):
        state["owed"] += 1

    def enabled(self, state):
        return [STEP]

    def fire(self, state, action):
        state["owed"] = max(state["owed"] - 1, 0)

    def class_of(self, action):
        return "step"

    def boundmap(self):
        return Boundmap({"step": (0.0, 1.0)})

    def idle(self, state):
        return state["owed"] == 0


class TestIdleAutomaton:
    def test_idle_offers_nothing_and_leaves_time_free(self):
        entity = TimedFromMMT(GateAutomaton(), {"step": LazyStepPolicy()})
        state = entity.initial_state()
        assert entity.enabled(state, 3.0) == []
        assert entity.deadline(state, 3.0) == INFINITY
        assert "step" in state.timers  # kept while idle

    def test_window_expired_while_idle_restarts_at_next_input(self):
        entity = TimedFromMMT(GateAutomaton(), {"step": LazyStepPolicy()})
        state = entity.initial_state()
        entity.apply_input(state, OPEN, 5.0)
        assert entity.enabled(state, 5.0) == []
        assert entity.deadline(state, 5.0) == pytest.approx(6.0)
        assert entity.enabled(state, 6.0) == [STEP]

    def test_uniform_policy_draws_once_per_restart(self):
        reference = UniformStepPolicy(seed=3)
        entity = TimedFromMMT(GateAutomaton(), {"step": UniformStepPolicy(seed=3)})
        state = entity.initial_state()
        assert state.timers["step"].target == reference.next_step(0.0, 1.0)
        entity.apply_input(state, OPEN, 5.0)
        entity.apply_input(state, OPEN, 5.0)  # the window is live: no draw
        assert state.timers["step"].target == reference.next_step(5.0, 1.0)
