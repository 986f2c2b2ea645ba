"""Property-based sweeps over the two simulations' parameter spaces.

Theorem 4.7 and Theorem 5.1 claims checked under hypothesis-generated
(eps, delays, adversary) combinations — broader than the fixed grids in
the deterministic test files.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pinger_process_factory, pinger_topology
from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.clocks.sources import OffsetClockSource
from repro.components.base import ProcessContext
from repro.components.mmt import LazyStepPolicy
from repro.core.clock_transform import ClockMachine
from repro.core.pipeline import (
    MMT,
    Design,
    build_clock_system,
    lower,
    simulation1_delay_bounds,
    simulation2_shift_bound,
)
from repro.registers.algorithm_s import AlgorithmSProcess
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import UniformDelay
from repro.sim.persistence import decode_state, encode_state
from repro.traces.relations import equivalent_eps, max_time_displacement

KAPPA = [PatternActionSet([ActionPattern("PING"), ActionPattern("GOTPONG")])]


class TestTheorem47Property:
    @given(
        eps=st.floats(min_value=0.01, max_value=0.4),
        d1=st.floats(min_value=0.0, max_value=0.5),
        width=st.floats(min_value=0.1, max_value=1.5),
        kind=st.sampled_from(["perfect", "fast", "slow", "mixed", "random"]),
        seed=st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=30, deadline=None)
    def test_trace_eps_equivalent_to_gamma_and_gamma_in_p(
        self, eps, d1, width, kind, seed
    ):
        d2 = d1 + width
        spec = build_clock_system(
            pinger_topology(), pinger_process_factory(3, 2.0), eps, d1, d2,
            drivers=driver_factory(kind, eps, seed=seed),
            delay_model=UniformDelay(seed=seed),
        )
        result = spec.run(20.0)
        gamma = result.clock_trace()
        assert len(gamma) == 6  # 3 pings + 3 pongs
        # Theorem 4.6: the real trace is =_eps to gamma
        assert equivalent_eps(result.trace, gamma, eps, KAPPA)
        displacement = max_time_displacement(result.trace, gamma, KAPPA)
        assert displacement is not None and displacement <= eps + 1e-9
        # gamma satisfies the design-model round-trip bounds
        d1p, d2p = simulation1_delay_bounds(d1, d2, eps)
        pings = {}
        for ev in gamma:
            if ev.action.name == "PING":
                pings[ev.action.params[1]] = ev.time
            else:
                rtt = ev.time - pings[ev.action.params[1]]
                assert 2 * d1p - 1e-9 <= rtt <= 2 * d2p + 1e-9


class TestTheorem51Property:
    @given(
        eps=st.floats(min_value=0.01, max_value=0.15),
        ell=st.floats(min_value=0.01, max_value=0.15),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=15, deadline=None)
    def test_output_shift_within_bound(self, eps, ell, seed):
        spec = lower(
            Design(pinger_topology(), pinger_process_factory(3, 2.0), 0.2, 1.0),
            MMT(
                eps, ell,
                sources=lambda i: OffsetClockSource(eps, eps if i == 0 else -eps),
                step_policy=lambda i: LazyStepPolicy(),
            ),
            UniformDelay(seed=seed),
        )
        result = spec.run(15.0, max_steps=3_000_000)
        k = 3  # a ping burst: PING + SENDMSG (+ reply handling)
        bound = simulation2_shift_bound(k, ell, eps)
        pings = [
            record for record in result.recorder.events
            if record.action.name == "PING"
        ]
        assert len(pings) == 3
        for record in pings:
            scheduled = 2.0 * record.action.params[1]
            # emitted never before its clock schedule (minus skew),
            # never later than schedule + skew + shift bound
            assert record.now >= scheduled - eps - 1e-9
            assert record.now <= scheduled + eps + bound + 1e-9


def _full_scan_enabled(machine, state):
    """The node's enabled list as a scan over every buffer computes it."""
    clock = state.clock
    actions = list(machine.process.enabled(state.proc_state, ProcessContext(clock)))
    for j, sbuf in state.send_buffers.items():
        if sbuf.can_emit(clock):
            message, stamp = sbuf.front()
            actions.append(Action("ESENDMSG", (machine.node, j, (message, stamp))))
    for j, rbuf in state.recv_buffers.items():
        if rbuf.can_deliver(clock):
            message, _ = rbuf.front()
            actions.append(Action("RECVMSG", (machine.node, j, message)))
    return actions


def _full_scan_deadline(machine, state):
    """The time-passage guard as a minimum over every buffer."""
    buffers = [*state.send_buffers.values(), *state.recv_buffers.values()]
    return min(
        [machine.process.deadline(state.proc_state, ProcessContext(state.clock))]
        + [buf.clock_deadline() for buf in buffers]
    )


_STEPS = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 99)),
    st.tuples(st.just("read")),
    # stamps around the clock: out of order, equal, already past
    st.tuples(
        st.just("recv"), st.integers(0, 8),
        st.sampled_from([-1.0, -0.25, 0.0, 0.0, 0.25, 1.0]),
    ),
    st.tuples(st.just("clock"), st.sampled_from([0.1, 0.25, 0.5, 2.0])),
    st.tuples(st.just("fire"), st.integers(0, 31)),
)

# node 0 with 5-8 peers plus its self-loop, edges in a generated order
_EDGES = st.integers(5, 8).flatmap(lambda peers: st.permutations(range(peers + 1)))


class TestReadyBuffersMatchFullScan:
    """``ClockMachine`` only looks at non-empty buffers; the scan over all
    of them it replaced must give the same list, entry for entry, and the
    same time-passage guard after every step of an Algorithm S node."""

    def run_script(self, edges, steps, snapshot_at=None):
        process = AlgorithmSProcess(0, edges, d2_prime=1.0, c=0.3, eps=0.1)
        machine = ClockMachine(process, edges, edges)
        state = machine.initial_state()
        for index, step in enumerate(steps):
            if index == snapshot_at:
                state = decode_state(encode_state(state))
            kind = step[0]
            if kind == "write":
                machine.apply_input(state, Action("WRITE", (0, step[1])))
            elif kind == "read":
                machine.apply_input(state, Action("READ", (0,)))
            elif kind == "recv":
                sender = edges[step[1] % len(edges)]
                stamp = max(0.0, state.clock + step[2])
                machine.apply_input(
                    state, Action("ERECVMSG", (0, sender, ((index, stamp), stamp)))
                )
            elif kind == "clock":
                # time passes, but never past the guard
                target = min(state.clock + step[1], machine.clock_deadline(state))
                state.clock = max(state.clock, target)
            else:
                enabled = machine.enabled(state)
                if enabled:
                    machine.fire(state, enabled[step[1] % len(enabled)])
            assert machine.enabled(state) == _full_scan_enabled(machine, state)
            assert machine.clock_deadline(state) == _full_scan_deadline(machine, state)
            assert state.send_ready == {
                j for j, buf in state.send_buffers.items() if buf.queue
            }
            assert state.recv_ready == {
                j for j, buf in state.recv_buffers.items() if buf.queue
            }

    @given(edges=_EDGES, steps=st.lists(_STEPS, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_enabled_and_guard_match_the_full_scan(self, edges, steps):
        self.run_script(edges, steps)

    @given(edges=_EDGES, steps=st.lists(_STEPS, min_size=2, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_a_snapshot_round_trip_mid_script_keeps_them_equal(self, edges, steps):
        self.run_script(edges, steps, snapshot_at=len(steps) // 2)
