"""Unit tests for the online safety monitors (synthetic event feeds)."""

from repro.automata.actions import Action
from repro.chaos.monitors import (
    ChannelBoundMonitor,
    ClockPredicateMonitor,
    HeartbeatMonitor,
    MonitorTracer,
    TeeTracer,
)
from repro.chaos.plan import FaultPlan, clock_fault, crash
from repro.faults.recovery import RecoverySchedule
from repro.obs.metrics import MetricsRegistry


def beat(node, k):
    return Action("SUSPECT", (node, k))


class TestClockPredicateMonitor:
    def test_within_envelope_is_silent(self):
        monitor = ClockPredicateMonitor(eps=0.1)
        assert monitor.on_action(5.0, "node", Action("X", (0,)), 5.05, True) == []
        assert monitor.on_action(5.0, "node", Action("X", (0,)), None, True) == []

    def test_flags_once_per_node(self):
        monitor = ClockPredicateMonitor(eps=0.1)
        first = monitor.on_action(5.0, "n", Action("X", (1,)), 5.5, True)
        assert len(first) == 1
        violation = first[0]
        assert violation.kind == "clock_predicate"
        assert violation.node == 1
        # repeated excursions of the same node are not re-reported
        assert monitor.on_action(5.1, "n", Action("X", (1,)), 5.7, True) == []
        # but a different node is
        assert len(monitor.on_action(5.2, "n", Action("X", (2,)), 5.9, True)) == 1

    def test_reflags_after_reentry(self):
        # edge-triggered: an action back inside the envelope re-arms the
        # node, so a second excursion is a violation of its own
        monitor = ClockPredicateMonitor(eps=0.1)
        assert len(monitor.on_action(5.0, "n", Action("X", (1,)), 5.5, True)) == 1
        assert monitor.on_action(6.0, "n", Action("X", (1,)), 6.05, True) == []
        (second,) = monitor.on_action(9.0, "n", Action("X", (1,)), 8.5, True)
        assert second.node == 1 and second.time == 9.0
        # an input (no clock) observes nothing and re-arms nothing
        assert monitor.on_action(9.5, "n", Action("X", (1,)), None, True) == []
        assert monitor.on_action(9.6, "n", Action("X", (1,)), 9.0, True) == []


class TestChannelBoundMonitor:
    def send(self, monitor, t, payload="m"):
        return monitor.on_action(
            t, "hbsender(0)", Action("SENDMSG", (0, 1, payload)), None, False
        )

    def deliver(self, monitor, t, payload="m"):
        return monitor.on_action(
            t, "chan[0->1]", Action("RECVMSG", (1, 0, payload)), None, False
        )

    def test_delivery_within_bounds(self):
        monitor = ChannelBoundMonitor(0.1, 1.0)
        assert self.send(monitor, 0.0) == []
        assert self.deliver(monitor, 0.5) == []

    def test_late_delivery_flagged(self):
        monitor = ChannelBoundMonitor(0.1, 1.0)
        self.send(monitor, 0.0)
        (violation,) = self.deliver(monitor, 2.0)
        assert violation.kind == "channel_bound"
        assert violation.edge == (0, 1)

    def test_delivery_without_send_flagged(self):
        monitor = ChannelBoundMonitor(0.1, 1.0)
        (violation,) = self.deliver(monitor, 1.0)
        assert "no matching send" in violation.detail

    def test_retransmitted_payload_matches_any_candidate(self):
        # two identical sends outstanding: a delivery in bounds of either
        # is legal (a raw payload sent twice), and drops are never reported
        monitor = ChannelBoundMonitor(0.1, 1.0)
        self.send(monitor, 0.0)
        self.send(monitor, 2.0)
        assert self.deliver(monitor, 2.5) == []  # explained by the second
        assert monitor.on_run_end(10.0) == []  # unmatched first send: legal

    def esend(self, monitor, t, frame, stamp):
        return monitor.on_action(
            t, "arq(S(0))^c", Action("ESENDMSG", (0, 1, (frame, stamp))),
            stamp, False,
        )

    def erecv(self, monitor, t, frame, stamp):
        return monitor.on_action(
            t, "chan[0->1]^c", Action("ERECVMSG", (1, 0, (frame, stamp))),
            None, False,
        )

    def test_data_frame_timed_from_first_attempt(self):
        # one DATA frame, three attempts: the copy that gets through is
        # 0.5 on the wire, but the message is 2.5 late end to end
        monitor = ChannelBoundMonitor(0.1, 1.0)
        frame = ("DATA", 0, (("v", 0, 1), 0.0))
        for t in (0.0, 1.0, 2.0):
            assert self.esend(monitor, t, frame, t) == []
        (violation,) = self.erecv(monitor, 2.5, frame, 2.0)
        assert violation.edge == (0, 1)
        assert "delivery delay 2.5 outside" in violation.detail
        # a frame delivered in bounds of its first attempt is clean
        frame = ("DATA", 1, (("v", 0, 2), 3.0))
        self.esend(monitor, 3.0, frame, 3.0)
        self.esend(monitor, 3.2, frame, 3.2)
        assert self.erecv(monitor, 3.9, frame, 3.2) == []

    def test_late_copies_after_delivery_not_reported(self):
        # delivered on time; its acks were lost, so copies keep coming
        monitor = ChannelBoundMonitor(0.1, 1.0)
        frame = ("DATA", 0, (("v", 0, 1), 0.0))
        self.esend(monitor, 0.0, frame, 0.0)
        assert self.erecv(monitor, 0.5, frame, 0.0) == []
        for t in (1.0, 2.0, 3.0):
            self.esend(monitor, t, frame, t)
            assert self.erecv(monitor, t + 2.0, frame, t) == []

    def test_data_frame_without_send_flagged(self):
        monitor = ChannelBoundMonitor(0.1, 1.0)
        (violation,) = self.erecv(monitor, 1.0, ("DATA", 4, "m"), 0.5)
        assert "no matching send" in violation.detail

    def test_ack_matches_its_own_send(self):
        # an ACK is not a DATA frame: each copy is matched to an
        # outstanding send of the same payload, as a raw message is
        monitor = ChannelBoundMonitor(0.1, 1.0)
        ack = ("ACK", 0)
        self.esend(monitor, 0.0, ack, 0.0)
        self.esend(monitor, 2.0, ack, 2.0)
        assert self.erecv(monitor, 2.5, ack, 2.0) == []
        (violation,) = self.erecv(monitor, 3.0, ack, 0.0)
        assert "delivery delay 3 outside" in violation.detail


class TestHeartbeatMonitor:
    def monitor(self, sender_windows=(), **kwargs):
        defaults = dict(
            sender=0, monitor_node=1, period=2.0, timeout=1.2, count=4,
            eps=0.1, sender_schedule=RecoverySchedule.of(sender_windows),
        )
        defaults.update(kwargs)
        return HeartbeatMonitor(**defaults)

    def test_suspecting_a_live_sender_is_inaccurate(self):
        monitor = self.monitor()
        (violation,) = monitor.on_action(2.5, "hbmonitor(1)^c", beat(1, 1),
                                         None, True)
        assert violation.kind == "heartbeat_accuracy"

    def test_suspecting_a_dead_sender_is_a_true_positive(self):
        monitor = self.monitor(sender_windows=[(1.0, 100.0)])
        assert monitor.on_action(3.5, "m", beat(1, 1), None, True) == []

    def test_completeness_violation(self):
        # sender down for beat 1 (due 2.0), never suspected, run outlives
        # the give-up deadline 1*2 + 1.2 + 2*0.1 = 3.4
        monitor = self.monitor(sender_windows=[(1.0, 100.0)])
        violations = monitor.on_run_end(10.0)
        kinds = {v.kind for v in violations}
        assert kinds == {"heartbeat_completeness"}

    def test_completeness_not_required_before_give_up(self):
        monitor = self.monitor(sender_windows=[(1.0, 100.0)])
        assert monitor.on_run_end(3.0) == []  # run ended too early to tell

    def test_suspicion_silences_completeness(self):
        monitor = self.monitor(sender_windows=[(1.0, 100.0)])
        monitor.on_action(3.4, "m", beat(1, 1), None, True)
        assert all(
            v.detail.find("beat 1 ") == -1 for v in monitor.on_run_end(10.0)
        )

    def test_other_nodes_suspicions_ignored(self):
        monitor = self.monitor()
        assert monitor.on_action(2.5, "m", beat(2, 1), None, True) == []


class TestMonitorTracer:
    def test_attributes_and_counts(self):
        plan = FaultPlan.of([clock_fault(1, 2.0, 6.0, 1.5), crash(0, 17.0)])
        tracer = MonitorTracer([ClockPredicateMonitor(eps=0.1)], plan)
        metrics = MetricsRegistry()
        tracer.bind_metrics(metrics)
        tracer.action(3.0, "n", Action("X", (1,)), 4.0, True)
        (violation,) = tracer.violations
        assert violation.event.kind == "clock_fault"
        assert violation.event_index == 0
        assert metrics.counter("repro.chaos.violations").value == 1

    def test_first_violation_is_earliest(self):
        tracer = MonitorTracer([ClockPredicateMonitor(eps=0.1)], None)
        tracer.action(5.0, "n", Action("X", (1,)), 6.0, True)
        tracer.action(3.0, "n", Action("X", (2,)), 4.0, True)
        assert tracer.first_violation.time == 3.0

    def test_tee_tracer_fans_out(self):
        inner_a = MonitorTracer([ClockPredicateMonitor(eps=0.1)], None)
        inner_b = MonitorTracer([ClockPredicateMonitor(eps=0.1)], None)
        tee = TeeTracer(inner_a, inner_b, None)
        tee.run_start(10.0)
        tee.action(5.0, "n", Action("X", (1,)), 6.0, True)
        tee.run_end(10.0, 1)
        tee.close()
        assert len(inner_a.violations) == len(inner_b.violations) == 1
