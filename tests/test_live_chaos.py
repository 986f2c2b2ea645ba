"""Live chaos: fault-injected operation of the networked register service.

The acceptance gate of the live chaos layer: a seeded ``FaultPlan``
with a crash/recover, a partition/heal, and a drop burst runs against a
loopback ``LiveCluster`` to completion — no unhandled exceptions, every
client op ends in success / timeout / retried-success, the history
linearizes, and every monitor violation is attributed to a plan event.

Plus the satellite regressions: wire-garbage hardening, per-client
multi-connection alternation, timed-out (never hung) clients, and
crash-recovery snapshot round-trips of live ``AlgorithmSProcess`` state.
"""

import asyncio
import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

from repro.chaos.monitors import ChannelBoundMonitor, MonitorTracer, TeeTracer
from repro.chaos.plan import (
    FaultPlan,
    clock_fault,
    crash,
    drop_burst,
    heal,
    partition,
    recover,
)
from repro.live import (
    LiveChaosController,
    LiveCluster,
    LiveLoadClient,
    LiveParams,
    run_load,
    validate_for_live,
)
from repro.live.chaos import chaos_params, demo_live_plan
from repro.live.load import build_operations, live_workload
from repro.live.wire import decode_frame, encode_frame
from repro.errors import LiveServiceError
from repro.obs import MetricsRegistry
from repro.obs.trace import Tracer

ROOT = Path(__file__).resolve().parent.parent


def demo_plan_and_params(seed=7, n=3):
    return chaos_params(n=n, seed=seed), demo_live_plan(n)


class TestValidateForLive(unittest.TestCase):
    def test_demo_plan_is_lowerable(self):
        validate_for_live(demo_live_plan(3), 3)

    def test_refuses_unknown_nodes(self):
        plan = FaultPlan(events=(crash(5, 0.1),), name="bad")
        with self.assertRaises(LiveServiceError):
            validate_for_live(plan, 3)

    def test_refuses_unknown_edge_endpoints(self):
        plan = FaultPlan(events=(drop_burst((0, 9), 0.1, 0.2),), name="bad")
        with self.assertRaises(LiveServiceError):
            validate_for_live(plan, 3)

    def test_refuses_unknown_group_members(self):
        plan = FaultPlan(
            events=(partition([[0], [1, 7]], 0.1),), name="bad"
        )
        with self.assertRaises(LiveServiceError):
            validate_for_live(plan, 3)


class TestLiveChaosEndToEnd(unittest.TestCase):
    """The acceptance run: crash+recover, partition+heal, drop burst."""

    @classmethod
    def setUpClass(cls):
        params, plan = demo_plan_and_params(seed=7)
        cls.plan = plan
        cls.report = run_load(
            params, live_workload(operations=6, seed=7), plan=plan
        )

    def test_every_op_accounted_for(self):
        outcomes = self.report.outcomes
        self.assertEqual(sum(outcomes.values()), 3 * 6)
        for record in self.report.records:
            self.assertIn(record.outcome, ("ok", "retried", "timeout"))

    def test_linearizable(self):
        self.assertTrue(self.report.linearization.ok)

    def test_faults_were_actually_applied(self):
        faults = self.report.faults
        self.assertGreaterEqual(faults["crashes"], 1)
        self.assertGreaterEqual(faults["recoveries"], 1)
        self.assertGreater(faults["dropped"], 0)
        self.assertGreater(faults["retransmits"], 0)

    def test_every_violation_attributed(self):
        self.assertEqual(self.report.unattributed, 0)
        for violation in self.report.violations:
            self.assertIsNotNone(violation.event)
            self.assertIsNotNone(violation.event_index)

    def test_degraded_gate_records_widened_bounds(self):
        widened = self.report.widened_bounds
        p = self.report.params
        eps_adj = self.report.eps_adjusted
        self.assertAlmostEqual(
            widened["d2_prime"], p.d2 + 2.0 * eps_adj
        )
        self.assertAlmostEqual(
            widened["d1_prime"], max(p.d1 - 2.0 * eps_adj, 0.0)
        )
        self.assertTrue(self.report.bounds_ok)

    def test_payload_schema(self):
        payload = self.report.to_payload()
        self.assertEqual(payload["format"], "repro-live-chaos-report")
        self.assertEqual(payload["unattributed"], 0)
        self.assertTrue(payload["linearizable"])
        self.assertEqual(
            sum(payload["outcomes"].values()), payload["operations"]
            + sum(1 for r in self.report.records
                  if not r.completed and r.kind == "R")
        )
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_written_payload_validates(self):
        from repro.cli import main

        with tempfile.TemporaryDirectory() as scratch:
            path = str(Path(scratch) / "live-chaos.json")
            self.report.write_payload(path)
            self.assertEqual(main(["validate", path]), 0)


class TestClockFaultAttribution(unittest.TestCase):
    """A clock_fault window must surface as an attributed violation."""

    def test_clock_excursion_attributed(self):
        params = LiveParams(
            n=2, d2=0.1, eps=0.01, seed=3,
            op_timeout=2.0, retry_max=3, retry_base=0.05,
        )
        plan = FaultPlan(
            events=(clock_fault(1, 0.05, 0.35, excess=0.05),),
            name="clock-only",
        )
        report = run_load(
            params, live_workload(operations=4, seed=3), plan=plan
        )
        clock_violations = [
            v for v in report.violations if v.kind == "clock_predicate"
        ]
        self.assertTrue(clock_violations)
        self.assertEqual(report.unattributed, 0)
        for violation in clock_violations:
            self.assertEqual(violation.node, 1)
            self.assertEqual(violation.event.kind, "clock_fault")
        # the degraded gate widened by what the clock actually did
        self.assertGreater(report.eps_adjusted, params.eps)


class TestTimeoutOutcome(unittest.TestCase):
    """Satellite: a dead node surfaces as timed-out records, not a hang."""

    def test_crash_without_recovery_times_out(self):
        params = LiveParams(
            n=2, d2=0.05, eps=0.01, seed=1,
            op_timeout=0.3, retry_max=2, retry_base=0.02,
        )
        plan = FaultPlan(events=(crash(1, 0.05),), name="crash-stop")
        report = run_load(
            params, live_workload(operations=3, seed=1, think_max=0.01),
            plan=plan,
        )
        outcomes = report.outcomes
        self.assertEqual(sum(outcomes.values()), 2 * 3)
        self.assertGreater(outcomes["timeout"], 0)
        # node 0 kept serving; its client finished cleanly
        node0 = [r for r in report.records if r.node == 0]
        self.assertTrue(all(r.completed for r in node0))
        self.assertTrue(report.linearization.ok)

    def test_timed_out_reads_excluded_writes_kept_open(self):
        from repro.traces.linearizability import Operation

        records = [
            Operation(0, 0, "W", ("v", 0, 0), None, 0.0, 0.1),
            Operation(1, 0, "R", None, None, 0.2, 0.5, "timeout", 2),
            Operation(0, 1, "W", ("v", 1, 0), None, 0.3, 0.6, "timeout", 2),
        ]
        ops = build_operations(records, horizon=1.0)
        self.assertEqual(len(ops), 2)  # the timed-out read is gone
        phantom = [op for op in ops if op.node == 1][0]
        self.assertEqual(phantom.res_time, 1.0)  # window open to horizon


class TestWireGarbage(unittest.TestCase):
    """Satellite: garbage bytes must not kill a node's serve task."""

    def _run(self, coro):
        return asyncio.run(coro)

    def test_garbage_then_valid_frames(self):
        async def scenario():
            cluster = LiveCluster(LiveParams(n=1, seed=0))
            await cluster.start()
            try:
                host, port = cluster.addresses[0]
                reader, writer = await asyncio.open_connection(host, port)
                # malformed JSON, valid-JSON-untagged, wrong field types
                writer.write(b"\xff\xfe not json at all\n")
                writer.write(b'[1, 2, 3]\n')
                writer.write(b'{"t": "msg", "src": "zero"}\n')
                writer.write(b'{"t": "write"}\n')  # missing value
                # an update that is not a (value, t) pair
                writer.write(b'{"t": "msg", "src": 0, "m": [1, 2, 3], "stamp": 0}\n')
                await writer.drain()
                # the same connection still serves a valid invocation
                writer.write(encode_frame({"t": "read"}))
                line = await asyncio.wait_for(reader.readline(), 5.0)
                frame = decode_frame(line)
                self.assertEqual(frame["t"], "return")
                writer.close()
                stats = cluster.stats()[0]
                self.assertGreaterEqual(stats["wire_errors"], 5)
            finally:
                await cluster.stop()

        self._run(scenario())

    def test_malformed_arq_frames_are_counted_not_acked(self):
        async def scenario():
            cluster = LiveCluster(LiveParams(n=2, seed=0))
            LiveChaosController(
                FaultPlan(events=(crash(0, 10.0),), name="arm-arq"), cluster
            )
            await cluster.start()
            try:
                node = cluster.nodes[0]
                sent = []
                original = node._wire_send

                def spy(dst, frame):
                    sent.append(frame)
                    return original(dst, frame)

                node._wire_send = spy
                reader, writer = await asyncio.open_connection(
                    *cluster.addresses[0]
                )
                update = [["x", 1, 0], 0.0]
                for m in (
                    ["DATA", "0", update],   # non-int seq
                    ["NACK", 0],             # unknown frame kind
                    update,                  # bare update, no DATA wrapper
                    ["DATA", 0, [1, 2, 3]],  # DATA wrapping a bad update
                ):
                    writer.write(encode_frame({
                        "t": "msg", "src": 1, "m": m,
                        "stamp": 0.0, "sr": 0.0,
                    }))
                writer.write(encode_frame({"t": "read"}))
                frame = decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                writer.close()
                self.assertEqual(frame["t"], "return")
                stats = node.stats()
                self.assertEqual(stats["wire_errors"], 4)
                self.assertEqual(stats["wire_count"], 0)
                self.assertFalse(node._timer_task.done())
                self.assertEqual(sent, [])  # in particular, no ACK
                self.assertEqual(node.state.recv_ready, set())
                adapter_state = node.state.proc_state
                self.assertEqual(adapter_state.pending_acks, [])
                self.assertEqual(adapter_state.delivered, {})
            finally:
                await cluster.stop()

        self._run(scenario())

    def test_oversized_line_drops_connection_not_node(self):
        async def scenario():
            cluster = LiveCluster(LiveParams(n=1, seed=0))
            await cluster.start()
            try:
                host, port = cluster.addresses[0]
                _, writer = await asyncio.open_connection(host, port)
                writer.write(b"x" * (1 << 20))  # no newline: limit overrun
                await writer.drain()
                await asyncio.sleep(0.05)
                writer.close()
                # the node survived and serves a fresh connection
                reader2, writer2 = await asyncio.open_connection(host, port)
                writer2.write(encode_frame({"t": "read"}))
                line = await asyncio.wait_for(reader2.readline(), 5.0)
                self.assertEqual(decode_frame(line)["t"], "return")
                writer2.close()
            finally:
                await cluster.stop()

        self._run(scenario())

    def test_abrupt_disconnect_mid_operation(self):
        async def scenario():
            cluster = LiveCluster(LiveParams(n=1, seed=0))
            await cluster.start()
            try:
                host, port = cluster.addresses[0]
                _, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(
                    {"t": "write", "value": ["v", 9, 9]}
                ))
                await writer.drain()
                writer.transport.abort()  # RST mid-operation
                await asyncio.sleep(0.1)
                reader2, writer2 = await asyncio.open_connection(host, port)
                writer2.write(encode_frame({"t": "read"}))
                line = await asyncio.wait_for(reader2.readline(), 5.0)
                self.assertEqual(decode_frame(line)["t"], "return")
                writer2.close()
            finally:
                await cluster.stop()

        self._run(scenario())


class TestMultiClient(unittest.TestCase):
    """Satellite: one node, several concurrent cid-tagged connections."""

    def test_two_clients_per_node_linearize(self):
        params = LiveParams(n=2, seed=5)
        report = run_load(
            params,
            live_workload(operations=4, seed=5),
            clients_per_node=2,
        )
        self.assertEqual(len(report.operations), 2 * 2 * 4)
        self.assertTrue(report.linearization.ok)

    def test_per_client_alternation_enforced(self):
        async def scenario():
            cluster = LiveCluster(LiveParams(n=1, seed=0))
            await cluster.start()
            try:
                host, port = cluster.addresses[0]
                reader, writer = await asyncio.open_connection(host, port)
                # same cid, two overlapping invocations -> error frame
                writer.write(encode_frame({"t": "read", "cid": "a", "op": 0}))
                writer.write(encode_frame({"t": "read", "cid": "a", "op": 1}))
                first = decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                second = decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                kinds = {first["t"], second["t"]}
                self.assertIn("error", kinds)
                writer.close()
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_retry_replays_cached_response(self):
        async def scenario():
            cluster = LiveCluster(LiveParams(n=1, seed=0))
            await cluster.start()
            try:
                host, port = cluster.addresses[0]
                reader, writer = await asyncio.open_connection(host, port)
                request = {"t": "write", "value": ["v", 0, 1],
                           "cid": "c0", "op": 0}
                writer.write(encode_frame(request))
                ack = decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                self.assertEqual(ack["t"], "ack")
                # a duplicate of the same (cid, op) replays, not re-runs
                writer.write(encode_frame(request))
                replay = decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                self.assertEqual(replay["t"], "ack")
                writer.close()
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestSnapshotRoundTrip(unittest.TestCase):
    """Satellite: crash/recover restores live AlgorithmSProcess state."""

    def test_mid_window_crash_recover_preserves_state(self):
        async def scenario():
            params = LiveParams(n=2, d2=0.2, eps=0.01, seed=2,
                                driver="slow", op_timeout=2.0,
                                retry_max=4, retry_base=0.05)
            plan = FaultPlan(events=(crash(0, 10.0),), name="arm-arq")
            cluster = LiveCluster(params)
            # a controller arms the ARQ layer; its (far-future) timeline
            # is never started, so we can crash/recover by hand
            LiveChaosController(plan, cluster)
            await cluster.start()
            try:
                node = cluster.nodes[0]
                host, port = cluster.addresses[0]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(
                    {"t": "write", "value": ["v", 0, 1],
                     "cid": "c", "op": 0}
                ))
                ack = decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                self.assertEqual(ack["t"], "ack")
                # a receive the buffer must hold across the crash: its
                # stamp is well above the clock, and it carries an update
                # (in the ARQ adapter's DATA frame) that takes effect
                # once delivered
                _, clk = node.clock.read()
                held = clk + 0.6
                writer.write(encode_frame({
                    "t": "msg", "src": 1,
                    "m": ["DATA", 0, [["h", 1, 0], held]], "stamp": held,
                }))
                writer.write(encode_frame({"t": "stats"}))
                await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
                self.assertEqual(node.state.recv_ready, {1})

                state_before = node.state
                value_before = state_before.proc_state.inner.value
                await node.crash()
                self.assertTrue(node.down)
                # volatile memory wiped while down
                self.assertIsNot(node.state, state_before)
                await node.recover()
                self.assertFalse(node.down)

                # restored copy of the written value survived the crash
                self.assertEqual(
                    node.state.proc_state.inner.value, value_before
                )
                # __post_restore__ rebuilt the send buffers' min-deque:
                # clock_deadline never raises and agrees with a fresh poll
                for buf in node.state.send_buffers.values():
                    buf.clock_deadline()
                # ...and the ready sets, from the restored queues
                state = node.state
                self.assertEqual(state.send_ready, {
                    j for j, b in state.send_buffers.items() if b.queue
                })
                self.assertEqual(state.recv_ready, {
                    j for j, b in state.recv_buffers.items() if b.queue
                })
                self.assertEqual(state.recv_ready, {1})
                # the restored clock is back inside the C_eps envelope
                # on its first post-recovery read (slow driver jumps to
                # the envelope edge across the outage)
                real, clock = node.clock.read()
                self.assertLessEqual(
                    abs(real - clock), params.eps + 1e-3
                )
                # and the node still serves on the *same* port
                reader2, writer2 = await asyncio.open_connection(host, port)
                writer2.write(encode_frame({"t": "read"}))
                frame = decode_frame(
                    await asyncio.wait_for(reader2.readline(), 5.0)
                )
                self.assertEqual(frame["t"], "return")
                self.assertEqual(tuple(frame["value"]), ("v", 0, 1))
                # the held receive is delivered once the clock passes
                # its stamp, and a later read sees its update
                for _ in range(100):
                    if not node.state.recv_ready:
                        break
                    await asyncio.sleep(0.02)
                self.assertEqual(node.state.recv_ready, set())
                writer2.write(encode_frame({"t": "read"}))
                frame = decode_frame(
                    await asyncio.wait_for(reader2.readline(), 5.0)
                )
                self.assertEqual(tuple(frame["value"]), ("h", 1, 0))
                writer2.close()
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestLiveOutboxRecovery(unittest.TestCase):
    """Live twin of ``test_recovery``'s crash-surviving ARQ outbox."""

    def test_outbox_survives_the_crash_and_retransmits_late(self):
        params = LiveParams(n=2, d2=0.1, eps=0.005, seed=6,
                            op_timeout=2.0, retry_base=0.05)
        heal_at = 0.5
        plan = FaultPlan(
            events=(partition([[0], [1]], 0.0), heal(heal_at)), name="cut"
        )

        async def scenario():
            cluster = LiveCluster(params)
            LiveChaosController(plan, cluster)
            await cluster.start()
            try:
                sender, peer = cluster.nodes
                applied = []
                original = peer.process.apply_input

                def counting(state, action, ctx):
                    if action.name == "RECVMSG" and action.params[1] == 0:
                        applied.append(action.params[2])
                    return original(state, action, ctx)

                peer.process.apply_input = counting
                reader, writer = await asyncio.open_connection(
                    *cluster.addresses[0]
                )
                writer.write(encode_frame(
                    {"t": "write", "value": ["v", 0, 1]}
                ))
                ack = decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                self.assertEqual(ack["t"], "ack")
                # the update to the partitioned peer is still unacked
                self.assertIn((1, 0), sender.state.proc_state.outbox)
                await sender.crash()
                await asyncio.sleep(
                    heal_at + 0.05 - (time.monotonic() - cluster.epoch)
                )
                self.assertEqual(applied, [])
                await sender.recover()
                # the restored adapter outbox retransmits the update
                self.assertIn((1, 0), sender.state.proc_state.outbox)
                for _ in range(100):
                    if applied:
                        break
                    await asyncio.sleep(0.02)
                # room for any further copy to land
                await asyncio.sleep(3 * params.retry_base)
                self.assertEqual([m[0] for m in applied], [("v", 0, 1)])
                self.assertEqual(
                    peer.state.proc_state.inner.value, ("v", 0, 1)
                )
                self.assertNotIn((1, 0), sender.state.proc_state.outbox)
                self.assertGreater(sender.retransmits, 0)
            finally:
                await cluster.stop()

        asyncio.run(scenario())


    def test_retransmits_until_acked(self):
        # 40 intervals of drops: more than the adapter's default 25 sends
        params = LiveParams(n=2, d2=0.5, eps=0.005, seed=6,
                            op_timeout=2.0, retry_base=0.01)
        plan = FaultPlan(
            events=(drop_burst((0, 1), 0.0, 0.4),), name="long-burst"
        )

        async def scenario():
            cluster = LiveCluster(params)
            LiveChaosController(plan, cluster)
            await cluster.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *cluster.addresses[0]
                )
                writer.write(encode_frame(
                    {"t": "write", "value": ["v", 0, 1]}
                ))
                await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
                peer = cluster.nodes[1]
                for _ in range(100):
                    if peer.state.proc_state.inner.value == ("v", 0, 1):
                        break
                    await asyncio.sleep(0.02)
                self.assertEqual(
                    peer.state.proc_state.inner.value, ("v", 0, 1)
                )
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestPeerLinkAfterPeerRestart(unittest.TestCase):
    """A half-closed link to a restarted peer is re-dialed at once."""

    def test_second_update_after_restart_arrives(self):
        async def scenario():
            cluster = LiveCluster(LiveParams(n=2, seed=0))
            await cluster.start()
            try:
                peer = cluster.nodes[1]
                await peer.crash()  # node 0's link to it is half-closed
                await peer.recover()
                await asyncio.sleep(0.05)
                reader, writer = await asyncio.open_connection(
                    *cluster.addresses[0]
                )
                # no ARQ: the first update finds the dead link and is
                # lost, but re-dials it, so the second one arrives
                for seq in (1, 2):
                    writer.write(encode_frame(
                        {"t": "write", "value": ["v", 0, seq]}
                    ))
                    await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
                for _ in range(50):
                    if peer.state.proc_state.value == ("v", 0, 2):
                        break
                    await asyncio.sleep(0.02)
                self.assertEqual(peer.state.proc_state.value, ("v", 0, 2))
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class _FirstAttempts(Tracer):
    """The stream's first ``ESENDMSG`` time per ARQ ``DATA`` frame."""

    def __init__(self):
        self.first = {}

    def action(self, now, owner, action, clock, visible):
        if action.name == "ESENDMSG" and action.params[2][0][0] == "DATA":
            src, dst, ((_, seq, _), _) = action.params
            self.first.setdefault((src, dst, seq), now)


class TestLiveChannelMonitor(unittest.TestCase):
    """A retransmitted update delivered past ``d2`` is one violation."""

    @staticmethod
    def _monitors(params, plan):
        return MonitorTracer(
            [ChannelBoundMonitor(params.d1, params.d2)], plan
        )

    def test_drop_burst_lateness_from_first_attempt(self):
        params = LiveParams(n=2, d2=0.1, eps=0.005, seed=4,
                            op_timeout=2.0, retry_base=0.05)
        burst_end = 0.4
        plan = FaultPlan(
            events=(drop_burst((0, 1), 0.0, burst_end),), name="burst"
        )
        monitors, attempts = self._monitors(params, plan), _FirstAttempts()

        async def scenario():
            cluster = LiveCluster(
                params, tracer=TeeTracer(monitors, attempts)
            )
            LiveChaosController(plan, cluster)
            await cluster.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *cluster.addresses[0]
                )
                # node 0's update to node 1 is dropped until the burst
                # ends, then a retransmission lands
                writer.write(encode_frame(
                    {"t": "write", "value": ["v", 0, 1]}
                ))
                ack = decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                self.assertEqual(ack["t"], "ack")
                writer.close()
                for _ in range(100):
                    if monitors.violations:
                        break
                    await asyncio.sleep(0.02)
                # room for a duplicate copy to land, were one ever sent
                await asyncio.sleep(3 * params.retry_base)
            finally:
                await cluster.stop()
            return cluster.stats()

        stats = asyncio.run(scenario())
        # the sender counted the frames the burst cut; nothing else did
        self.assertGreater(stats[0]["dropped"], 0)
        self.assertNotIn("dropped", stats[1])
        channel = [
            v for v in monitors.violations if v.monitor == "channel_bound"
        ]
        self.assertEqual(len(channel), 1)
        violation = channel[0]
        self.assertEqual(violation.edge, (0, 1))
        self.assertEqual(violation.event.kind, "drop_burst")
        real, first = violation.time, attempts.first[(0, 1, 0)]
        self.assertGreater(real - first, params.d2)
        # delivered after the burst, yet measured from an attempt that
        # departed inside it, over a retransmission interval earlier
        self.assertGreaterEqual(real, burst_end)
        self.assertLess(first, burst_end - params.retry_base)

    def test_late_duplicates_of_an_on_time_delivery_are_not_violations(self):
        params = LiveParams(n=2, d2=0.1, eps=0.005, seed=4,
                            op_timeout=2.0, retry_base=0.05)
        burst_end = 0.4
        # the update reaches node 1 on time; its ACKs back are dropped,
        # so node 0 retransmits and copies keep arriving past d2
        plan = FaultPlan(
            events=(drop_burst((1, 0), 0.0, burst_end),), name="ack-loss"
        )
        monitors = self._monitors(params, plan)

        async def scenario():
            cluster = LiveCluster(params, tracer=monitors)
            LiveChaosController(plan, cluster)
            await cluster.start()
            try:
                reader, writer = await asyncio.open_connection(
                    *cluster.addresses[0]
                )
                writer.write(encode_frame(
                    {"t": "write", "value": ["v", 0, 1]}
                ))
                ack = decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                self.assertEqual(ack["t"], "ack")
                writer.close()
                sender, peer = cluster.nodes
                for _ in range(100):
                    if (1, 0) not in sender.state.proc_state.outbox:
                        break
                    await asyncio.sleep(0.02)
            finally:
                await cluster.stop()
            return sender, peer

        sender, peer = asyncio.run(scenario())
        self.assertNotIn((1, 0), sender.state.proc_state.outbox)
        self.assertGreater(sender.retransmits, 0)
        self.assertEqual(peer._wire_count, 1)  # the first copy only
        self.assertEqual(
            [v for v in monitors.violations if v.monitor == "channel_bound"],
            [],
        )


class TestForeignPeerSource(unittest.TestCase):
    """A peer ``msg`` from a ``src`` with no edge is a wire error, only."""

    def _run(self, arq):
        async def scenario():
            metrics = MetricsRegistry()
            cluster = LiveCluster(LiveParams(n=2, seed=0), metrics=metrics)
            if arq:
                LiveChaosController(
                    FaultPlan(events=(crash(0, 10.0),), name="arm-arq"),
                    cluster,
                )
            await cluster.start()
            try:
                node = cluster.nodes[0]
                sent = []
                original = node._wire_send

                def spy(dst, frame):
                    sent.append(frame)
                    return original(dst, frame)

                node._wire_send = spy
                reader, writer = await asyncio.open_connection(
                    *cluster.addresses[0]
                )
                update = [["x", 99, 0], 0.0]
                frame = {"t": "msg", "src": 99,
                         "m": ["DATA", 0, update] if arq else update,
                         "stamp": 0.0, "sr": 0.0}
                writer.write(encode_frame(frame))
                writer.write(encode_frame({"t": "stats"}))
                stats = decode_frame(
                    await asyncio.wait_for(reader.readline(), 5.0)
                )
                writer.close()
                self.assertEqual(stats["t"], "stats")
                self.assertEqual(stats["wire_errors"], 1)
                self.assertEqual(stats["wire_count"], 0)
                self.assertNotIn(99, node._reconnect)
                self.assertEqual(node.state.recv_ready, set())
                self.assertEqual(sent, [])  # in particular, no ACK
                if arq:
                    adapter_state = node.state.proc_state
                    self.assertEqual(adapter_state.pending_acks, [])
                    self.assertEqual(adapter_state.delivered, {})
            finally:
                await cluster.stop()
            snapshot = metrics.snapshot()
            self.assertEqual(
                snapshot["counters"]["repro.live.msgs.received"], 0
            )
            self.assertEqual(
                snapshot["sketches"]["repro.live.wire.delay"]["count"], 0
            )

        asyncio.run(scenario())

    def test_refused_without_arq(self):
        self._run(arq=False)

    def test_refused_with_arq_is_not_acked(self):
        self._run(arq=True)


class TestFaultFreeUnchanged(unittest.TestCase):
    """Fault-free traffic and reports must be byte-compatible."""

    def test_single_client_requests_untagged(self):
        client = LiveLoadClient(
            0,
            __import__("repro.registers.opstream", fromlist=["OpSchedule"])
            .OpSchedule.generate(0, live_workload(operations=2, seed=0)),
            ("127.0.0.1", 1), 0.0,
        )
        op = client.schedule.ops[0]
        frame = client._request(op)
        self.assertNotIn("cid", frame)
        self.assertNotIn("op", frame)

    def test_fault_free_stats_have_no_fault_keys(self):
        params = LiveParams(n=2, seed=0)
        report = run_load(params, live_workload(operations=2, seed=0))
        self.assertTrue(report.linearization.ok)
        for stats in report.node_stats:
            for key in ("wire_errors", "crashes", "recoveries",
                        "retransmits", "inputs_lost", "seq"):
                self.assertNotIn(key, stats)

    def test_fault_free_peer_frames_carry_no_arq_fields(self):
        async def scenario():
            frames = []
            cluster = LiveCluster(LiveParams(n=2, seed=0))
            await cluster.start()
            try:
                node = cluster.nodes[0]
                original = node._wire_send

                def spy(dst, frame):
                    frames.append(dict(frame))
                    return original(dst, frame)

                node._wire_send = spy
                host, port = cluster.addresses[0]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(
                    {"t": "write", "value": ["v", 0, 1]}
                ))
                await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
            finally:
                await cluster.stop()
            for frame in frames:
                if frame.get("t") == "msg":
                    self.assertNotIn("seq", frame)
                    self.assertNotIn("s0", frame)

        asyncio.run(scenario())


class TestChaosCli(unittest.TestCase):
    """``python -m repro chaos --live`` exit-code semantics."""

    def _run(self, *extra):
        return subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--live",
             "--seed", "7", "--ops", "4", *extra],
            capture_output=True, text=True, cwd=ROOT,
            env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=300,
        )

    def test_expect_clean_demo(self):
        result = self._run("--expect", "clean")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("linearizable   : True", result.stdout)

    def test_sim_only_flags_refused(self):
        result = self._run("--shrink")
        self.assertEqual(result.returncode, 2)


if __name__ == "__main__":
    unittest.main()
