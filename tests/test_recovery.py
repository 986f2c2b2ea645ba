"""Node-crash proxies: schedules, crash-stop, snapshot restore, ARQ interplay."""

import pytest

from repro.automata.actions import Action, action_set
from repro.automata.signature import Signature
from repro.components.base import Entity, TimedNodeEntity
from repro.core.buffers import SendBuffer
from repro.core.clock_transform import ClockMachine, ClockNodeEntity
from repro.core.pipeline import SystemSpec, build_clock_system, build_timed_system
from repro.errors import SpecificationError
from repro.faults.models import ScriptedFaults
from repro.faults.recovery import (
    INFINITY,
    RecoverableEntity,
    RecoverySchedule,
)
from repro.faults.retransmit import ReliableAdapter
from repro.objects.algorithm import BlindUpdateObjectProcess
from repro.objects.specs import CounterSpec
from repro.obs.metrics import MetricsRegistry
from repro.registers.algorithm_s import AlgorithmSProcess
from repro.sim.clock_drivers import FastClockDriver, SlowClockDriver
from repro.sim.engine import Simulator
from repro.sim.persistence import decode_state, encode_state
from repro.sim.recorder import Recorder

from helpers import EchoProcess, PingerProcess, pinger_topology


class Chatty(Entity):
    """Emits SAY every second; counts inputs; its clock runs 0.25 ahead."""

    def __init__(self):
        super().__init__(
            "chatty",
            Signature(inputs=action_set("HEAR"), outputs=action_set("SAY")),
        )

    def initial_state(self):
        return {"next": 1.0, "heard": 0, "notes": []}

    def enabled(self, state, now):
        if now >= state["next"] - 1e-9:
            return [Action("SAY", (0,))]
        return []

    def fire(self, state, action, now):
        state["next"] += 1.0

    def apply_input(self, state, action, now):
        state["heard"] += 1

    def deadline(self, state, now):
        return state["next"]

    def clock_value(self, state, now):
        return now + 0.25


class TestRecoverySchedule:
    def test_window_validation(self):
        with pytest.raises(SpecificationError):
            RecoverySchedule.of([(-1.0, 2.0)])
        with pytest.raises(SpecificationError):
            RecoverySchedule.of([(2.0, 2.0)])  # empty window
        with pytest.raises(SpecificationError):
            RecoverySchedule.of([(1.0, 3.0), (2.0, 4.0)])  # overlap

    def test_adjacent_windows_allowed(self):
        schedule = RecoverySchedule.of([(1.0, 2.0), (2.0, 3.0)])
        assert schedule.down(1.5) and schedule.down(2.5)

    def test_down_is_half_open(self):
        schedule = RecoverySchedule.of([(1.0, 2.0)])
        assert not schedule.down(0.99)
        assert schedule.down(1.0)  # down at the crash instant
        assert schedule.down(1.5)
        assert not schedule.down(2.0)  # up again at the recovery instant

    def test_next_boundary(self):
        schedule = RecoverySchedule.of([(1.0, 2.0), (5.0, 6.0)])
        assert schedule.next_boundary(0.0) == 1.0
        assert schedule.next_boundary(1.0) == 2.0
        assert schedule.next_boundary(3.0) == 5.0
        assert schedule.next_boundary(6.0) == INFINITY

    def test_crash_stop_as_special_case(self):
        schedule = RecoverySchedule.of([(4.0, INFINITY)])
        assert not schedule.down(3.9)
        assert schedule.down(4.0) and schedule.down(1e9)
        assert schedule.next_boundary(4.0) == INFINITY


class TestRecoverableEntity:
    def entity(self, windows):
        return RecoverableEntity(Chatty(), RecoverySchedule.of(windows))

    def test_behaves_normally_while_up(self):
        entity = self.entity([(10.0, 11.0)])
        state = entity.initial_state()
        assert entity.enabled(state, 1.0) == [Action("SAY", (0,))]
        entity.fire(state, Action("SAY", (0,)), 1.0)
        assert state.inner["next"] == 2.0
        entity.apply_input(state, Action("HEAR", (0,)), 1.5)
        assert state.inner["heard"] == 1

    def test_silent_while_down_and_inputs_lost(self):
        entity = self.entity([(1.5, 4.0)])
        state = entity.initial_state()
        entity.apply_input(state, Action("HEAR", (0,)), 1.0)
        assert entity.enabled(state, 2.0) == []
        entity.apply_input(state, Action("HEAR", (0,)), 2.5)
        entity.apply_input(state, Action("HEAR", (0,)), 3.0)
        assert state.lost_inputs == 2
        # the deadline while down is exactly the recovery boundary
        assert entity.deadline(state, 2.0) == pytest.approx(4.0)

    def test_snapshot_restore_resumes_from_the_crash_instant(self):
        entity = self.entity([(1.5, 4.0)])
        state = entity.initial_state()
        entity.fire(state, Action("SAY", (0,)), 1.0)
        entity.apply_input(state, Action("HEAR", (0,)), 1.2)
        entity.enabled(state, 2.0)  # first touch while down: snapshots
        entity.apply_input(state, Action("HEAR", (0,)), 3.0)  # lost
        assert entity.enabled(state, 4.0) == [Action("SAY", (0,))]
        assert state.inner["next"] == 2.0  # progress preserved
        assert state.inner["heard"] == 1  # the down-window input is gone
        assert state.crashes == 1 and state.recoveries == 1
        assert [kind for kind, _ in state.log] == ["crash", "recover"]

    def test_snapshot_shares_no_structure_with_escaped_state(self):
        entity = self.entity([(2.0, 3.0)])
        state = entity.initial_state()
        escaped = state.inner["notes"]  # alias taken before the crash
        escaped.append("pre")
        entity.enabled(state, 2.0)  # crash: snapshot
        escaped.append("while-down")  # mutation through the alias
        entity.enabled(state, 3.0)  # recover: decode from stable storage
        assert state.inner["notes"] == ["pre"]

    def test_repeated_windows_counted(self):
        entity = self.entity([(1.0, 2.0), (5.0, 6.0)])
        state = entity.initial_state()
        for t in (1.0, 2.0, 5.0, 6.0):
            entity.enabled(state, t)
        assert state.crashes == 2 and state.recoveries == 2

    def test_metrics_counters(self):
        metrics = MetricsRegistry()
        entity = self.entity([(1.0, 2.0)])
        entity.instrument(metrics)
        state = entity.initial_state()
        entity.enabled(state, 1.0)
        entity.apply_input(state, Action("HEAR", (0,)), 1.5)
        entity.enabled(state, 2.0)
        assert metrics.counter("repro.chaos.crashes").value == 1
        assert metrics.counter("repro.chaos.recoveries").value == 1
        assert metrics.counter("repro.chaos.inputs_lost").value == 1

    def test_not_pure_enabled(self):
        # the enabled set grows at the recovery boundary with no
        # fire/apply_input to signal it, so the incremental engine must
        # re-derive it every round
        assert self.entity([(1.0, 2.0)]).pure_enabled is False


class TestCrashStop:
    """A ``[t, INFINITY)`` window: a plan's crash with no recover."""

    def entity(self, crash_t):
        return RecoverableEntity(
            Chatty(), RecoverySchedule.of([(crash_t, INFINITY)])
        )

    def test_deadline_capped_at_the_crash_instant_then_infinite(self):
        entity = self.entity(0.4)
        state = entity.initial_state()
        assert entity.deadline(state, 0.0) == pytest.approx(0.4)
        assert entity.deadline(state, 0.4) == INFINITY
        assert entity.deadline(state, 50.0) == INFINITY
        assert state.crashes == 1 and state.recoveries == 0

    def test_clock_value_delegated(self):
        entity = self.entity(1.0)
        state = entity.initial_state()
        assert entity.clock_value(state, 0.5) == 0.75
        entity.enabled(state, 2.0)  # down
        assert entity.clock_value(state, 2.0) == 2.25


class TestSendBufferSnapshotRestore:
    """The send buffer's min-deque is derived state: a stable-storage
    snapshot must never persist it, and a restore must rebuild it from
    the queue (a stale deque would corrupt ``clock_deadline`` — the
    engine's time-passage guard — after a crash–recovery)."""

    def loaded_buffer(self):
        buf = SendBuffer(0, 1)
        # SendBuffer does not enforce stamp monotonicity, so exercise
        # the rebuild with an adversarial (reordered, duplicated) queue
        for stamp in (5.0, 7.0, 3.0, 6.0, 3.0):
            buf.enqueue(("m", stamp), stamp)
        return buf

    def test_snapshot_excludes_the_derived_deque(self):
        snapshot = encode_state(self.loaded_buffer())
        assert "_min_stamps" not in snapshot["f"]
        assert "queue" in snapshot["f"]

    def test_restore_rebuilds_the_deque(self):
        buf = self.loaded_buffer()
        restored = decode_state(encode_state(buf))
        assert restored.queue == buf.queue
        assert list(restored._min_stamps) == list(buf._min_stamps)
        assert restored.clock_deadline() == 3.0

    def test_stale_deque_cannot_ride_through_stable_storage(self):
        buf = self.loaded_buffer()
        # corrupt the live cache after the fact; the snapshot round-trip
        # must rebuild from the queue, not trust any persisted deque
        buf._min_stamps.clear()
        restored = decode_state(encode_state(buf))
        assert restored.clock_deadline() == 3.0

    def test_restored_buffer_drains_deadline_consistently(self):
        restored = decode_state(encode_state(self.loaded_buffer()))
        stamps = [entry[1] for entry in restored.queue]
        while restored.queue:
            assert restored.clock_deadline() == min(stamps)
            restored.emit(10.0)
            stamps.pop(0)
        assert restored.clock_deadline() == INFINITY

    def test_empty_buffer_round_trips(self):
        restored = decode_state(encode_state(SendBuffer(0, 1)))
        assert restored.clock_deadline() == INFINITY
        restored.enqueue("m", 2.0)
        assert restored.clock_deadline() == 2.0


class TestMachineStateSnapshotRestore:
    """A clock node's ready sets (the edges whose Figure 2 buffer is
    non-empty) are derived state too: a snapshot never persists them and
    a restore rebuilds them from the queues (a stale set would hide a
    buffered message from ``enabled`` and from the time-passage guard
    after a crash–recovery)."""

    EPS = 0.1

    def process(self):
        return AlgorithmSProcess(0, [0, 1, 2], 1.0, 0.3, self.EPS)

    def loaded(self):
        """A node mid-broadcast: two sends buffered, one receive held."""
        machine = ClockMachine(self.process(), [0, 1, 2], [0, 1, 2])
        state = machine.initial_state()
        state.clock = 1.0
        machine.apply_input(state, Action("WRITE", (0, "v")))
        for send in [a for a in machine.enabled(state) if a.name == "SENDMSG"][:2]:
            machine.fire(state, send)
        machine.apply_input(state, Action("ERECVMSG", (0, 2, (("w", 0.5), 3.0))))
        assert (state.send_ready, state.recv_ready) == ({0, 1}, {2})
        return machine, state

    def test_snapshot_excludes_the_ready_sets(self):
        _, state = self.loaded()
        snapshot = encode_state(state)
        assert "send_ready" not in snapshot["f"]
        assert "recv_ready" not in snapshot["f"]
        assert "send_buffers" in snapshot["f"]

    def test_restore_rebuilds_the_ready_sets(self):
        machine, state = self.loaded()
        restored = decode_state(encode_state(state))
        assert (restored.send_ready, restored.recv_ready) == ({0, 1}, {2})
        assert machine.enabled(restored) == machine.enabled(state)
        assert machine.clock_deadline(restored) == machine.clock_deadline(state)

    def test_corrupted_sets_cannot_ride_through_stable_storage(self):
        machine, state = self.loaded()
        state.send_ready.clear()
        state.recv_ready.add(1)
        restored = decode_state(encode_state(state))
        assert (restored.send_ready, restored.recv_ready) == ({0, 1}, {2})
        emits = [a for a in machine.enabled(restored) if a.name == "ESENDMSG"]
        assert [a.params[1] for a in emits] == [0, 1]
        # the buffered sends pin the clock at their stamp again
        assert machine.clock_deadline(restored) == 1.0

    def test_node_crashing_with_buffered_sends_resumes_emitting(self):
        node = RecoverableEntity(
            ClockNodeEntity(
                ClockMachine(self.process(), [0, 1, 2], [0, 1, 2]),
                FastClockDriver(self.EPS),
            ),
            RecoverySchedule.of([(1.0, 2.0)]),
        )
        state = node.initial_state()
        node.apply_input(state, Action("WRITE", (0, "v")), 0.5)
        for send in [a for a in node.enabled(state, 0.5) if a.name == "SENDMSG"][:2]:
            node.fire(state, send, 0.5)
        assert state.inner.send_ready == {0, 1}
        assert node.enabled(state, 1.0) == []  # crash: snapshot
        resumed = node.enabled(state, 2.0)  # recover from stable storage
        assert state.inner.send_ready == {0, 1}
        emits = [a for a in resumed if a.name == "ESENDMSG"]
        assert [a.params[1] for a in emits] == [0, 1]
        for emit in emits:
            node.fire(state, emit, 2.0)
        assert state.inner.send_ready == set()
        # the send the crash interrupted goes out through the same sets
        (last,) = [a for a in node.enabled(state, 2.0) if a.name == "SENDMSG"]
        node.fire(state, last, 2.0)
        assert state.inner.send_ready == {2}
        assert [
            a.params[1] for a in node.enabled(state, 2.0) if a.name == "ESENDMSG"
        ] == [2]


class TestClockNodeCrashStraddlingABufferHold:
    """Chaos regression: a clock node crashes while its receive buffer
    holds a stamped message, recovers, and delivery still happens in
    deadline (stamp) order — byte-identically across both engine cores."""

    # Slow echo clock vs a short channel: ping k is sent at t=k with
    # stamp k (the ping deadline pins the sender's clock there), arrives
    # at t=k+0.1 (constant-fraction delay of [0.05, 0.15]) where the
    # slow echo clock reads only k-0.2, and is held until that clock
    # reaches the stamp at t=k+eps.
    EPS = 0.3
    D1, D2 = 0.05, 0.15
    WINDOW = (1.15, 1.25)  # inside ping 1's hold interval [1.1, 1.3]

    def run_once(self, incremental):
        def processes(i):
            if i == 0:
                return PingerProcess(0, 1, 3, 1.0)
            return EchoProcess(1, 0)

        def drivers(i):
            return FastClockDriver(self.EPS) if i == 0 else SlowClockDriver(self.EPS)

        spec = build_clock_system(
            pinger_topology(), processes, self.EPS, self.D1, self.D2, drivers
        )
        entities = [
            RecoverableEntity(e, RecoverySchedule.of([self.WINDOW]))
            if e.name == "echo(1)^c" else e
            for e in spec.entities
        ]
        recorder = Recorder()
        result = Simulator(
            entities, hidden=spec.hidden, incremental=incremental
        ).run(8.0, recorder=recorder)
        return result, recorder

    def test_held_message_survives_the_crash_and_delivers_in_order(self):
        result, recorder = self.run_once(incremental=True)
        echo = result.final_states["echo(1)^c"]
        assert echo.crashes == 1 and echo.recoveries == 1
        # the ping held across the crash is delivered after recovery...
        deliveries = [
            e for e in recorder.events
            if e.action.name == "RECVMSG" and e.action.params[0] == 1
        ]
        held = [e for e in deliveries if e.action.params[2] == ("ping", 1)]
        assert held and held[0].now >= self.WINDOW[1]
        # ...in stamp (deadline) order, like every other delivery
        indices = [e.action.params[2][1] for e in deliveries]
        assert indices == sorted(indices)
        # and the round trips all complete
        pongs = [e for e in result.trace if e.action.name == "GOTPONG"]
        assert [e.action.params[1] for e in pongs] == [1, 2, 3]
        assert not any(
            rbuf.queue for rbuf in echo.inner.recv_buffers.values()
        )

    def test_trace_identical_across_engine_cores(self):
        result_inc, rec_inc = self.run_once(incremental=True)
        result_full, rec_full = self.run_once(incremental=False)
        assert rec_inc.events == rec_full.events
        assert result_inc.trace == result_full.trace


class InvokeOnce(Entity):
    """A one-operation client: emits ``invocation`` at t=1, takes ``response``."""

    def __init__(self, invocation, response):
        super().__init__(
            "invoker",
            Signature(
                inputs=action_set(response), outputs=action_set(invocation.name)
            ),
        )
        self.invocation = invocation

    def initial_state(self):
        return {"invoked": False}

    def enabled(self, state, now):
        if not state["invoked"] and now >= 1.0 - 1e-9:
            return [self.invocation]
        return []

    def fire(self, state, action, now):
        state["invoked"] = True

    def apply_input(self, state, action, now):
        pass

    def deadline(self, state, now):
        return INFINITY if state["invoked"] else 1.0


class TestFigure3InstantInsideTheCrashWindow:
    """The node's clock jumps past a scheduled instant while it is down;
    the overdue action fires at recovery (it used to owe a deadline no
    action could discharge: ``TimelockError``)."""

    EPS = 0.1
    WINDOW = (1.2, 3.0)  # the read is due at t=1.51, clock 1.61

    @pytest.mark.parametrize(
        "process, invocation, response",
        [
            (
                AlgorithmSProcess(0, [0], 1.0, 0.3, EPS, initial_value="v0"),
                Action("READ", (0,)), Action("RETURN", (0, "v0")),
            ),
            (
                BlindUpdateObjectProcess(0, [0], CounterSpec(), 1.0, 0.3, eps=EPS),
                Action("ASK", (0, ("read",))), Action("REPLY", (0, 0)),
            ),
        ],
        ids=["register", "counter"],
    )
    def test_overdue_read_responds_at_the_recovery_instant(
        self, process, invocation, response
    ):
        node = RecoverableEntity(
            ClockNodeEntity(
                ClockMachine(process, [], []), FastClockDriver(self.EPS)
            ),
            RecoverySchedule.of([self.WINDOW]),
        )
        result = Simulator(
            [InvokeOnce(invocation, response.name), node]
        ).run(5.0)
        (event,) = [e for e in result.trace if e.action == response]
        assert event.time == pytest.approx(self.WINDOW[1])


class TestRecoveryWithInFlightRetransmissions:
    """A crash straddling an ARQ retransmission window (satellite 3)."""

    def entity(self, windows):
        adapter = ReliableAdapter(PingerProcess(0, 1, 1, 1.0), 0.5)
        return RecoverableEntity(
            TimedNodeEntity(adapter), RecoverySchedule.of(windows)
        )

    def test_outbox_survives_the_crash_and_retransmits_late(self):
        entity = self.entity([(1.2, 3.0)])
        state = entity.initial_state()
        entity.fire(state, Action("PING", (0, 1)), 1.0)
        (frame,) = [
            a for a in entity.enabled(state, 1.0) if a.name == "SENDMSG"
        ]
        assert frame.params[2] == ("DATA", 0, ("ping", 1))
        entity.fire(state, frame, 1.0)
        assert state.inner.outbox[(1, 0)].attempts == 1
        # the retransmission due at 1.5 is silenced by the crash
        assert entity.enabled(state, 1.5) == []
        assert entity.deadline(state, 1.5) == pytest.approx(3.0)
        # the peer's ACK arrives while down: lost, so the entry stays
        entity.apply_input(
            state, Action("RECVMSG", (0, 1, ("ACK", 0))), 2.0
        )
        assert state.lost_inputs == 1
        # recovery restores the crash-instant outbox; the overdue
        # retransmission fires immediately at the recovery time
        (retx,) = [
            a for a in entity.enabled(state, 3.0) if a.name == "SENDMSG"
        ]
        assert retx.params[2] == ("DATA", 0, ("ping", 1))
        entity.fire(state, retx, 3.0)
        entry = state.inner.outbox[(1, 0)]
        assert entry.attempts == 2
        assert entry.next_attempt == pytest.approx(3.5)

    def test_ack_after_recovery_clears_the_outbox(self):
        entity = self.entity([(1.2, 3.0)])
        state = entity.initial_state()
        entity.fire(state, Action("PING", (0, 1)), 1.0)
        (frame,) = [
            a for a in entity.enabled(state, 1.0) if a.name == "SENDMSG"
        ]
        entity.fire(state, frame, 1.0)
        entity.enabled(state, 1.2)  # crash
        entity.apply_input(
            state, Action("RECVMSG", (0, 1, ("ACK", 0))), 3.5
        )
        assert not state.inner.outbox

    def test_end_to_end_ping_completes_despite_crash_and_loss(self):
        # node 0 is down across its ping's due time AND the first DATA
        # attempt is dropped: the late ping fires at recovery, the
        # retransmission covers the loss, the pong still arrives
        def processes(i):
            if i == 0:
                return ReliableAdapter(PingerProcess(0, 1, 1, 1.0), 0.5)
            return ReliableAdapter(EchoProcess(1, 0), 0.5)

        spec = build_timed_system(
            pinger_topology(), processes, 0.1, 0.3, None,
            fault_model=ScriptedFaults([0]),
        )
        entities = [
            RecoverableEntity(e, RecoverySchedule.of([(0.5, 2.0)]))
            if e.name.startswith("arq(pinger") else e
            for e in spec.entities
        ]
        result = SystemSpec(entities=entities, hidden=spec.hidden).run(10.0)
        pongs = [e for e in result.trace if e.action.name == "GOTPONG"]
        assert len(pongs) == 1
        assert pongs[0].time >= 2.0  # necessarily after the recovery
