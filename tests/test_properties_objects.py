"""Property-based tests for the spec-driven object checker."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.actions import Action
from repro.components.base import ProcessContext
from repro.objects.algorithm import BlindUpdateObjectProcess
from repro.objects.specs import (
    CounterSpec,
    GrowSetSpec,
    MaxRegisterSpec,
    RegisterSpec,
)
from repro.registers.algorithm_s import AlgorithmSProcess
from repro.traces.linearizability import Operation, is_linearizable


@st.composite
def counter_histories(draw, max_ops=7):
    """Counter histories generated from a hidden sequential execution."""
    count = draw(st.integers(min_value=1, max_value=max_ops))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    total = 0
    point = 0.0
    ops = []
    for op_id in range(count):
        point += rng.uniform(0.1, 2.0)
        lead, lag = rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5)
        node = rng.randrange(3)
        if rng.random() < 0.6:
            amount = rng.randint(1, 4)
            total += amount
            ops.append(
                Operation(op_id, node, "W", ("add", amount), None,
                          point - lead, point + lag)
            )
        else:
            ops.append(
                Operation(op_id, node, "R", ("read",), total,
                          point - lead, point + lag)
            )
    return ops


@st.composite
def gset_histories(draw, max_ops=7):
    count = draw(st.integers(min_value=1, max_value=max_ops))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    members = set()
    point = 0.0
    ops = []
    for op_id in range(count):
        point += rng.uniform(0.1, 2.0)
        lead, lag = rng.uniform(0.0, 1.5), rng.uniform(0.0, 1.5)
        node = rng.randrange(3)
        if rng.random() < 0.5:
            element = rng.randrange(5)
            members.add(element)
            ops.append(
                Operation(op_id, node, "W", ("add", element), None,
                          point - lead, point + lag)
            )
        else:
            element = rng.randrange(5)
            ops.append(
                Operation(op_id, node, "R", ("contains", element),
                          element in members, point - lead, point + lag)
            )
    return ops


class TestOracleObjectHistories:
    @given(counter_histories())
    @settings(max_examples=60, deadline=None)
    def test_counter_oracle_histories_linearizable(self, ops):
        assert is_linearizable(ops, spec=CounterSpec())

    @given(gset_histories())
    @settings(max_examples=60, deadline=None)
    def test_gset_oracle_histories_linearizable(self, ops):
        assert is_linearizable(ops, spec=GrowSetSpec())

    @given(counter_histories(), st.integers(min_value=1, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_inflated_read_rejected(self, ops, extra):
        """A read exceeding the total of all adds can never linearize."""
        reads = [op for op in ops if op.kind == "R"]
        if not reads:
            return
        ceiling = sum(
            op.arg[1] for op in ops if op.kind == "W"
        )
        victim = reads[0]
        mutated = [
            Operation(
                op.op_id, op.node, op.kind, op.arg,
                ceiling + extra if op.op_id == victim.op_id else op.response,
                op.inv_time, op.res_time,
            )
            for op in ops
        ]
        assert not is_linearizable(mutated, spec=CounterSpec())

    @given(counter_histories())
    @settings(max_examples=40, deadline=None)
    def test_max_register_from_counter_shape(self, ops):
        """Reinterpreting adds as writemax with running maxima is also
        linearizable under the max-register spec."""
        running = 0
        translated = []
        for op in sorted(ops, key=lambda o: (o.inv_time + o.res_time) / 2):
            if op.kind == "W":
                running += op.arg[1]
                translated.append(
                    Operation(op.op_id, op.node, "W",
                              ("writemax", running), None,
                              op.inv_time, op.res_time)
                )
        assert is_linearizable(translated, spec=MaxRegisterSpec())


# -- the register is an object ---------------------------------------------------

_OBJECT_NAME = {
    "READ": "ASK", "WRITE": "DO", "RETURN": "REPLY", "ACK": "DONE",
    "UPDATE": "APPLY",
}


def _as_object_action(action):
    """A register action under the name map, payloads in spec form."""
    name = _OBJECT_NAME.get(action.name, action.name)
    params = action.params
    if action.name == "READ":
        params = (params[0], ("read",))
    elif action.name == "WRITE":
        params = (params[0], ("write", params[1]))
    elif action.name in ("SENDMSG", "RECVMSG"):
        value, t = params[2]
        params = (params[0], params[1], (("write", value), t))
    return Action(name, params)


# binary-exact times, so generated instants really collide
_GRID = [0.0, 0.25, 0.5, 1.0]
_script_steps = st.lists(
    st.tuples(
        st.sampled_from(_GRID),                       # time passing first
        st.sampled_from(["READ", "WRITE", "RECVMSG"]),
        st.integers(min_value=0, max_value=2),        # RECVMSG sender
        st.sampled_from([-0.5] + _GRID),              # RECVMSG t - now
        st.integers(min_value=0, max_value=5),        # which enabled action
    ),
    min_size=1, max_size=25,
)


class TestRegisterIsABlindUpdateObject:
    """Algorithm S and the object process over ``RegisterSpec`` are one
    automaton under ``READ<->ASK, WRITE<->DO, RETURN<->REPLY, ACK<->DONE,
    UPDATE<->APPLY``: same enabled sets, same transitions, same replica."""

    @given(_script_steps)
    @settings(max_examples=150, deadline=None)
    def test_same_script_same_enabled_fire_and_value(self, script):
        peers, d2p, c, eps, delta = [0, 1, 2], 1.0, 0.25, 0.125, 0.0625
        register = AlgorithmSProcess(
            0, peers, d2p, c, eps, delta=delta, initial_value="v0"
        )
        obj = BlindUpdateObjectProcess(
            0, peers, RegisterSpec("v0"), d2p, c, eps=eps, delta=delta
        )
        reg_state, obj_state = register.initial_state(), obj.initial_state()

        def drain(now, pick):
            ctx = ProcessContext(now)
            while True:
                enabled = register.enabled(reg_state, ctx)
                assert obj.enabled(obj_state, ctx) == [
                    _as_object_action(a) for a in enabled
                ]
                if not enabled:
                    return
                action = enabled[pick % len(enabled)]
                register.fire(reg_state, action, ctx)
                obj.fire(obj_state, _as_object_action(action), ctx)
                assert obj_state.value == reg_state.value

        now = 0.0
        for serial, (dt, kind, sender, lead, pick) in enumerate(script):
            now += dt  # may jump past scheduled instants: the late guard
            drain(now, pick)
            if kind == "READ" and reg_state.read_status == "inactive":
                action = Action("READ", (0,))
            elif kind == "WRITE" and reg_state.write_status == "inactive":
                action = Action("WRITE", (0, ("v", serial)))
            elif kind == "RECVMSG":
                action = Action(
                    "RECVMSG", (0, sender, (("v", sender, serial), now + lead))
                )
            else:
                continue  # the alternation condition forbids the invocation
            ctx = ProcessContext(now)
            register.apply_input(reg_state, action, ctx)
            obj.apply_input(obj_state, _as_object_action(action), ctx)
            assert obj_state.mintime() == reg_state.mintime()
            drain(now, pick)
