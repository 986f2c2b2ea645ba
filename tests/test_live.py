"""Tests for the live register service (repro.live).

The end-to-end tests run a real loopback cluster inside ``asyncio.run``
with small workloads and generous timing slack: CI machines jitter, and
the *unconditional* claims here are linearizability and schema
conformance, not tight latency. The Theorem 6.5 gate itself is checked
with slack large enough that only a broken implementation trips it.
"""

import json

import pytest

from repro.constants import INFINITY
from repro.errors import LiveServiceError
from repro.live import (
    LiveParams,
    LiveReport,
    build_operations,
    run_load,
    sim_replay,
)
from repro.live.clock import LiveClock
from repro.live.load import live_workload
from repro.live.params import read_manifest, write_manifest
from repro.live.wire import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    tuplify,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_metrics, validate_trace_lines
from repro.obs.trace import JsonlTracer, Tracer
from repro.sim.clock_drivers import driver_factory
from repro.traces.linearizability import Operation


class TestLiveClock:
    def make(self, kind, eps=0.01, node=0):
        import time

        driver = driver_factory(kind, eps, seed=3)(node)
        return LiveClock(driver, time.monotonic())

    @pytest.mark.parametrize("kind", ["perfect", "fast", "slow", "mixed"])
    def test_clock_stays_inside_envelope(self, kind):
        eps = 0.05
        clk = self.make(kind, eps=eps)
        for _ in range(200):
            real, clock = clk.read()
            assert abs(real - clock) <= eps + 1e-9
        assert clk.max_skew <= eps + 1e-9

    def test_clock_is_monotone(self):
        clk = self.make("random", eps=0.02)
        last = -1.0
        for _ in range(100):
            _, clock = clk.read()
            assert clock >= last
            last = clock

    def test_wall_delay_infinity_passthrough(self):
        assert self.make("perfect").wall_delay(INFINITY) == INFINITY

    def test_wall_delay_for_reached_deadline_is_zero(self):
        clk = self.make("perfect")
        _, clock = clk.read()
        assert clk.wall_delay(clock - 1.0) == 0.0
        assert clk.wall_delay(clock) == 0.0

    def test_wall_delay_future_deadline_is_positive_and_bounded(self):
        eps = 0.01
        clk = self.make("slow", eps=eps)
        _, clock = clk.read()
        delay = clk.wall_delay(clock + 0.5)
        # at least the clock distance minus jitter, at most + 2*eps worth
        # of driver pessimism
        assert 0.0 < delay <= 0.5 + 2 * eps + 1e-9


class TestWire:
    def test_tuplify_nested_lists(self):
        assert tuplify(["v", 2, 0]) == ("v", 2, 0)
        assert tuplify([["v", 1, 0], 3.5]) == (("v", 1, 0), 3.5)
        assert tuplify({"m": [["v", 0, 1], 2.0]}) == {"m": (("v", 0, 1), 2.0)}
        assert tuplify("scalar") == "scalar"

    def test_round_trip_preserves_register_values(self):
        frame = {"t": "msg", "src": 1, "m": [["v", 1, 4], 3.25], "stamp": 3.25}
        decoded = decode_frame(encode_frame(frame))
        assert decoded["m"] == (("v", 1, 4), 3.25)
        assert decoded["m"][0] == ("v", 1, 4)  # checker compares by equality

    def test_frames_are_newline_delimited_json(self):
        raw = encode_frame({"t": "ack"})
        assert raw.endswith(b"\n")
        assert json.loads(raw) == {"t": "ack"}

    def test_malformed_frame_rejected(self):
        with pytest.raises(LiveServiceError):
            decode_frame(b"not json\n")

    def test_untagged_frame_rejected(self):
        with pytest.raises(LiveServiceError):
            decode_frame(b'{"src": 1}\n')

    def test_oversize_frame_rejected(self):
        huge = b'{"t": "msg", "pad": "' + b"x" * MAX_FRAME_BYTES + b'"}\n'
        with pytest.raises(LiveServiceError):
            decode_frame(huge)


def _tuplify_recursive(value):
    """The generator-based ``tuplify`` the codec used to run."""
    if isinstance(value, list):
        return tuple(_tuplify_recursive(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuplify_recursive(item) for key, item in value.items()}
    return value


class TestCodecPinned:
    """The bytes on the wire and the decoded values, fixed literally."""

    @pytest.mark.parametrize("frame, raw", [
        (
            {"t": "msg", "src": 0, "m": [("v", 0, 1), 0.25],
             "stamp": 0.125, "sr": 1.5},
            b'{"t":"msg","src":0,"m":[["v",0,1],0.25],'
            b'"stamp":0.125,"sr":1.5}\n',
        ),
        (
            {"t": "write", "value": ("v", [1, {"k": (2, None)}], True),
             "cid": "c\u00e9", "op": 3},
            b'{"t":"write","value":["v",[1,{"k":[2,null]}],true],'
            b'"cid":"c\\u00e9","op":3}\n',
        ),
        (
            {"t": "stats", "node": 1, "real": 2.5, "clock": 2.4995,
             "max_skew": 0.0005, "eps": 0.001, "wire_count": 3,
             "wire_sum": 0.0015, "wire_max": 0.001},
            b'{"t":"stats","node":1,"real":2.5,"clock":2.4995,'
            b'"max_skew":0.0005,"eps":0.001,"wire_count":3,'
            b'"wire_sum":0.0015,"wire_max":0.001}\n',
        ),
    ], ids=["msg", "write", "stats"])
    def test_encode_frame_bytes(self, frame, raw):
        assert encode_frame(frame) == raw
        assert raw == (json.dumps(frame, separators=(",", ":")) + "\n").encode()

    @pytest.mark.parametrize("line", [
        b'{"t":"msg","src":2,"m":[["v",2,7],1.25],"stamp":1.0,"sr":0.5}\n',
        b'{"t":"msg","src":1,"m":["DATA",4,[["v",1,0],0.5]],"stamp":0.25,'
        b'"sr":0.5,"s0":0.25}\n',
        b'{"t":"write","value":{"a":[1,[2,{"b":[3]}]],"c":{}},"op":0}\n',
        b'{"t":"return","value":[]}\n',
        b'{"t":"stats","node":0,"wire_count":0,"eps":0.001}\n',
        b'{"t":"error","reason":"operation already pending"}\n',
    ])
    def test_decode_frame_matches_the_recursive_decode(self, line):
        expected = {
            key: _tuplify_recursive(value)
            for key, value in json.loads(line.decode("utf-8")).items()
        }
        decoded = decode_frame(line)
        assert decoded == expected
        assert [type(v) for v in decoded.values()] == [
            type(v) for v in expected.values()
        ]

    @pytest.mark.parametrize("line", [
        b'{"t": "msg"\n',
        b"\xff\xfe\n",
        b'["t", "msg"]\n',
    ], ids=["truncated", "not-utf8", "not-an-object"])
    def test_more_bad_lines_rejected(self, line):
        with pytest.raises(LiveServiceError):
            decode_frame(line)


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        params = LiveParams(n=2, d2=0.1, eps=0.02, c=0.05, seed=9)
        write_manifest(path, params, [("127.0.0.1", 4001), ("127.0.0.1", 4002)])
        loaded, addresses = read_manifest(path)
        assert loaded == params
        assert addresses == [("127.0.0.1", 4001), ("127.0.0.1", 4002)]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(LiveServiceError):
            read_manifest(str(tmp_path / "absent.json"))

    def test_wrong_format_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(LiveServiceError):
            read_manifest(str(path))

    def test_address_count_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "short.json")
        write_manifest(path, LiveParams(n=3), [("127.0.0.1", 4001)])
        with pytest.raises(LiveServiceError):
            read_manifest(path)


class TestParams:
    def test_d2_prime(self):
        assert LiveParams(d2=0.05, eps=0.01).d2_prime == pytest.approx(0.07)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            LiveParams(n=0)
        with pytest.raises(ValueError):
            LiveParams(d1=0.2, d2=0.1)
        with pytest.raises(ValueError):
            LiveParams(eps=-0.1)

    def test_dict_round_trip(self):
        params = LiveParams(n=4, driver="slow", seed=5)
        assert LiveParams.from_dict(params.to_dict()) == params


class TestBuildOperations:
    def test_ids_assigned_in_invocation_order(self):
        records = [
            Operation(0, 1, "W", ("v", 1, 0), None, 0.5, 0.9),
            Operation(0, 0, "R", None, ("v", -1, 0), 0.1, 0.4),
        ]
        ops = build_operations(records)
        assert [op.op_id for op in ops] == [0, 1]
        assert ops[0].node == 0 and ops[1].node == 1
        assert ops[0].latency == pytest.approx(0.3)


class _RecordingWriter:
    """A client connection stand-in that keeps every frame written to it."""

    def __init__(self):
        self.frames = []

    def is_closing(self):
        return False

    def write(self, data):
        self.frames.append(decode_frame(data))


class TestNodeDrain:
    def test_overdue_update_applies_before_the_due_return(self):
        import time

        from repro.live.node import LiveRegisterNode

        params = LiveParams(n=2, eps=0.001, c=0.0, delta=0.001, driver="perfect")
        driver = driver_factory("perfect", params.eps)(0)
        node = LiveRegisterNode(0, params, driver, time.monotonic())
        client = _RecordingWriter()
        node._dispatch({"t": "read"}, client)
        time.sleep(2 * node.machine.process.read_bound)
        # a peer update whose instant t + delta is already past
        node._dispatch(
            {"t": "msg", "src": 1, "m": [["new", 1, 0], 0.0], "stamp": 0.0},
            None,
        )
        node._read_clock()
        # the due RETURN (of the old value) is listed before the delivery
        names = [action.name for action in node.machine.enabled(node.state)]
        assert names == ["RETURN", "RECVMSG"]
        assert node._drain()
        assert client.frames == [{"t": "return", "value": ("new", 1, 0)}]


async def _await(predicate, timeout=5.0):
    import asyncio

    loop = asyncio.get_running_loop()
    give_up = loop.time() + timeout
    while not predicate():
        assert loop.time() < give_up, "condition not reached"
        await asyncio.sleep(0.005)


class TestBroadcast:
    """A write's peer frames: one frame, one encode, unless ARQ is armed."""

    def run_writes(self, monkeypatch, arq, writes=2):
        import asyncio

        import repro.live.node as live_node
        from repro.live.service import LiveCluster

        encodes, sends, wire = [], [], []
        real_encode = live_node.encode_frame

        def encode_spy(frame):
            data = real_encode(frame)
            encodes.append((frame, data))
            return data

        async def scenario():
            cluster = LiveCluster(LiveParams(n=4, seed=0))
            if arq:
                for node in cluster.nodes:
                    node.attach_faults(())
            await cluster.start()
            try:
                node = cluster.nodes[0]
                original = node._wire_send

                def send_spy(dst, frame):
                    sends.append((dst, frame))
                    return original(dst, frame)

                node._wire_send = send_spy
                for dst, (_, link) in node._peer_links.items():
                    def tap(data, dst=dst, write=link.write):
                        wire.append((dst, data))
                        write(data)

                    link.write = tap
                monkeypatch.setattr(live_node, "encode_frame", encode_spy)
                reader, writer = await asyncio.open_connection(
                    *cluster.addresses[0]
                )
                for seq in range(writes):
                    writer.write(encode_frame(
                        {"t": "write", "value": ["v", 0, seq]}
                    ))
                    assert decode_frame(
                        await asyncio.wait_for(reader.readline(), 5.0)
                    ) == {"t": "ack"}
                writer.close()
                await _await(lambda: all(
                    peer.stats()["wire_count"] == writes
                    for peer in cluster.nodes[1:]
                ))
                return [peer.stats()["wire_count"] for peer in cluster.nodes]
            finally:
                await cluster.stop()

        counts = asyncio.run(scenario())
        return counts, encodes, sends, wire

    def test_peer_frames_share_one_encode(self, monkeypatch):
        counts, encodes, sends, wire = self.run_writes(monkeypatch, arq=False)
        # one first-copy message per write at every peer, none at home
        assert counts == [0, 2, 2, 2]
        broadcasts = [
            (frame, data) for frame, data in encodes
            if frame["t"] == "msg" and frame["src"] == 0
        ]
        assert len(broadcasts) == 2  # one encode per write
        assert len(sends) == 6 and len(wire) == 6
        for index, (frame, data) in enumerate(broadcasts):
            batch = sends[3 * index:3 * index + 3]
            assert sorted(dst for dst, _ in batch) == [1, 2, 3]
            assert all(sent is frame for _, sent in batch)
            written = wire[3 * index:3 * index + 3]
            assert [raw for _, raw in written] == [data] * 3
        # the second write's frame is a new one, read and encoded afresh
        (first, first_data), (second, second_data) = broadcasts
        assert first is not second and first_data != second_data
        assert first["m"][0] == ("v", 0, 0) and second["m"][0] == ("v", 0, 1)

    def test_arq_frames_are_encoded_one_by_one(self, monkeypatch):
        counts, encodes, sends, _ = self.run_writes(monkeypatch, arq=True)
        assert counts == [0, 2, 2, 2]
        # a DATA frame per destination and sequence number...
        data = {(dst, frame["m"][1]) for dst, frame in sends
                if frame["m"][0] == "DATA"}
        assert len(data) == 6
        # ...and every frame handed to the wire, retransmissions and
        # ACKs included, is its own object with its own encode
        assert len({id(frame) for _, frame in sends}) == len(sends)
        encoded = [frame for frame, _ in encodes
                   if frame["t"] == "msg" and frame["src"] == 0]
        assert [id(f) for f in encoded] == [id(f) for _, f in sends]


class TestTimer:
    """The node timer sleeps on a handle and wakes on a kick."""

    def test_peer_msg_during_a_long_sleep_is_delivered_at_its_stamp(self):
        import asyncio

        from repro.live.service import LiveCluster

        delivered = []

        class Recording(Tracer):
            def action(self, now, owner, action, clock, visible):
                if action.name == "RECVMSG" and owner == "S(0)^c":
                    delivered.append((now, clock, action.params[2]))

        async def scenario():
            params = LiveParams(n=2, eps=0.001, driver="perfect", seed=0)
            cluster = LiveCluster(params, tracer=Recording())
            await cluster.start()
            try:
                node = cluster.nodes[0]
                _, writer = await asyncio.open_connection(
                    *cluster.addresses[0]
                )
                writer.write(encode_frame({"t": "hello", "src": 1}))
                _, clock = node.clock.read()
                # an update ten seconds out: the timer sleeps toward it
                writer.write(encode_frame({
                    "t": "msg", "src": 1, "m": [["far", 1, 0], clock + 10.0],
                    "stamp": clock,
                }))
                await _await(lambda: len(delivered) == 1)
                await asyncio.sleep(0.02)
                assert node.machine.clock_deadline(node.state) > clock + 9.0
                # a message stamped 50 ms ahead must wake it for its stamp
                _, clock = node.clock.read()
                stamp = clock + 0.05
                writer.write(encode_frame({
                    "t": "msg", "src": 1, "m": [["near", 1, 1], clock + 1.0],
                    "stamp": stamp,
                }))
                await _await(lambda: len(delivered) == 2, timeout=2.0)
                writer.close()
                return stamp
            finally:
                await cluster.stop()

        stamp = asyncio.run(scenario())
        _, at_clock, message = delivered[1]
        assert message[0] == ("near", 1, 1)
        assert stamp <= at_clock < stamp + 0.5

    def test_stop_during_a_long_sleep_is_prompt_and_leaves_nothing(self):
        import asyncio
        import time

        from repro.live.service import LiveCluster

        async def scenario():
            loop = asyncio.get_running_loop()
            handles = []
            call_later = loop.call_later

            def recording(delay, callback, *args, **kwargs):
                handle = call_later(delay, callback, *args, **kwargs)
                handles.append((callback, handle))
                return handle

            loop.call_later = recording
            cluster = LiveCluster(LiveParams(n=2, driver="perfect", seed=0))
            await cluster.start()
            node = cluster.nodes[0]
            _, writer = await asyncio.open_connection(*cluster.addresses[0])
            writer.write(encode_frame({"t": "hello", "src": 1}))
            _, clock = node.clock.read()
            writer.write(encode_frame({
                "t": "msg", "src": 1, "m": [["far", 1, 0], clock + 60.0],
                "stamp": clock,
            }))
            kicks = {n._kick.set for n in cluster.nodes}
            await _await(lambda: any(
                callback in kicks and handle.when() > loop.time() + 30.0
                for callback, handle in handles
            ))
            start = time.perf_counter()
            await cluster.stop()
            elapsed = time.perf_counter() - start
            writer.close()
            timers = [handle for callback, handle in handles
                      if callback in kicks]
            return elapsed, cluster, timers

        elapsed, cluster, timers = asyncio.run(scenario())
        assert elapsed < 1.0
        assert all(node._timer_task.done() for node in cluster.nodes)
        assert timers and all(handle.cancelled() for handle in timers)


class TestEndToEnd:
    """One real loopback run, shared across assertions (clusters are the
    expensive part; one run can answer every question)."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("live") / "live-trace.jsonl"

    @pytest.fixture(scope="class")
    def report(self, trace_path):
        params = LiveParams(n=3, seed=4)
        workload = live_workload(
            operations=10, read_fraction=0.5, seed=4,
            think_min=0.0, think_max=0.01,
        )
        tracer = JsonlTracer(str(trace_path))
        try:
            return run_load(params, workload, slack=1.0, tracer=tracer)
        finally:
            tracer.close()

    def test_history_is_linearizable(self, report):
        assert report.linearization.ok
        assert report.linearization.visited > 0

    def test_all_operations_completed(self, report):
        assert len(report.operations) == 30
        assert len(report.reads) + len(report.writes) == 30

    def test_eps_measured_within_envelope(self, report):
        assert 0.0 <= report.eps_measured <= report.params.eps + 1e-9

    def test_node_stats_collected(self, report):
        assert len(report.node_stats) == 3
        assert {s["node"] for s in report.node_stats} == {0, 1, 2}
        # updates flowed: every op broadcasts to all peers
        assert all(s["wire_count"] > 0 for s in report.node_stats)

    def test_bounds_pass_with_generous_slack(self, report):
        # slack=1.0 makes the gate insensitive to CI jitter; a failure
        # here means the implementation, not the machine, is wrong
        assert report.bounds_ok, "\n".join(
            check.render() for check in report.bound_checks()
        )

    def test_render_mentions_the_verdict(self, report):
        text = report.render(assert_bounds=True)
        assert "linearizable   : True" in text
        assert "Theorem 6.5 gate" in text

    def test_metrics_snapshot_conforms_to_schema(self, report):
        registry = MetricsRegistry()
        report.to_metrics(registry)
        snapshot = registry.snapshot()
        assert validate_metrics(snapshot) == []
        assert snapshot["counters"]["repro.live.ops.completed"] == 30

    def test_trace_export_conforms_to_schema(self, report, trace_path):
        lines = trace_path.read_text().splitlines()
        assert validate_trace_lines(lines) == []
        records = [json.loads(line) for line in lines[1:]]
        spans = [r for r in records if r["k"] == "span" and r["span"] == "op"]
        assert len(spans) == 60  # inv + res per operation
        # the stream is the simulator's vocabulary, owners included
        owners = {r["owner"] for r in records if r["k"] == "action"}
        assert {"S(0)^c", "chan[1->0]^c", "client(2)"} <= owners

    def test_sim_replay_of_same_seed_linearizes(self, report):
        workload = live_workload(
            operations=10, read_fraction=0.5, seed=4,
            think_min=0.0, think_max=0.01,
        )
        run = sim_replay(report.params, workload)
        assert run.linearizable()
        assert len(run.operations) == len(report.operations)


class TestStatsRpc:
    def test_rpc_frame_carries_the_in_process_stats(self):
        import asyncio

        from repro.live.service import LiveCluster, fetch_stats
        from repro.live.wire import encode_frame

        stream = []

        class Recording(Tracer):
            def action(self, now, owner, action, clock, visible):
                stream.append((owner, action.name))

        async def both():
            cluster = LiveCluster(LiveParams(n=2, seed=1), tracer=Recording())
            addresses = await cluster.start()
            try:
                reader, writer = await asyncio.open_connection(*addresses[1])
                writer.write(encode_frame({"t": "write", "value": ["v", 1, 0]}))
                await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
                cluster.nodes[1].dropped = 2
                return cluster.stats(), await fetch_stats(addresses)
            finally:
                await cluster.stop()

        local, remote = asyncio.run(both())
        drifting = ("real", "clock", "max_skew")  # read again per call
        for mine, theirs in zip(local, remote):
            for key in drifting:
                mine.pop(key), theirs.pop(key)
            assert decode_frame(encode_frame(mine)) == theirs
        # the node's observations are on its stream, not in the frame
        assert ("client(1)", "WRITE") in stream
        assert ("S(1)^c", "ACK") in stream
        assert set(remote[1]) == {
            "t", "node", "eps", "wire_count", "wire_sum", "wire_max",
            "dropped",
        }
        assert remote[1]["dropped"] == 2
        assert "dropped" not in remote[0]


class TestReportWithoutRun:
    """Report mechanics that need no cluster."""

    def make_report(self, ops, stats=(), records=(), plan=None,
                    violations=()):
        from repro.traces.linearizability import analyze_linearizability

        lin = analyze_linearizability(ops, initial_value=("v", -1, 0))
        return LiveReport(
            params=LiveParams(), operations=ops, linearization=lin,
            node_stats=list(stats), records=list(records), plan=plan,
            violations=list(violations),
        )

    def test_empty_history_is_ok(self):
        report = self.make_report([])
        assert report.ok
        assert report.eps_measured == LiveParams().eps  # fallback
        # only the premise check exists without latencies
        assert [c.name for c in report.bound_checks()] == ["wire delay"]

    def test_wire_premise_violation_detected(self):
        report = self.make_report([], stats=[
            {"node": 0, "max_skew": 0.005, "wire_max": 9.0},
        ])
        assert not report.bounds_ok
        assert report.eps_measured == 0.005

    def test_plan_attributes_the_node_stats_observations(self):
        from repro.chaos.monitors import Violation
        from repro.chaos.plan import FaultPlan, clock_fault

        plan = FaultPlan(
            events=(clock_fault(1, 0.1, 0.3, excess=0.05),), name="skew"
        )
        stats = [
            {"node": 0, "max_skew": 0.004, "wire_max": 0.001},
            {"node": 1, "max_skew": 0.03, "wire_max": 0.001, "dropped": 2},
        ]
        # what the clock monitor reports on node 1's stream
        skew = Violation(
            monitor="clock_predicate", kind="clock_predicate", time=0.2,
            node=1, detail="|now - clock| = 0.03 > eps = 0.01",
        )
        records = [
            Operation(0, 0, "W", ("v", 0, 0), None, 0.0, 0.1, "retried", 2),
            Operation(0, 1, "R", None, None, 0.2, 0.5, "timeout", 3),
        ]
        report = self.make_report([], stats, records, plan, [skew])
        (violation,) = report.violations
        assert violation.node == 1
        assert violation.event.kind == "clock_fault"
        assert report.unattributed == 0 and report.ok
        assert report.retries == 3
        assert report.faults["dropped"] == 2
        assert report.outcomes == {"ok": 0, "retried": 1, "timeout": 1}
        # only the completed record reaches the latency gate
        assert report.write_sketch.count == 1
        assert report.read_sketch.count == 0
        assert "fault plan     : skew (1 events)" in report.render()
        # the same run without a plan reports no violations
        assert self.make_report([], stats, records).violations == []

    def test_timeout_without_plan_is_not_ok(self):
        records = [
            Operation(0, 0, "W", ("v", 0, 0), None, 0.0, 0.1),
            Operation(0, 1, "R", None, None, 0.2, 1.2, "timeout"),
            Operation(1, 0, "W", ("v", 0, 1), None, 0.3, 1.3, "timeout"),
        ]
        ops = build_operations(records, horizon=1.3)
        report = self.make_report(ops, records=records)
        # the open-window history is still safe; the run is not healthy
        assert report.linearization.ok
        assert not report.ok
        assert "timeout=2" in report.render()
        assert report.horizon == 1.3
        # only the completed write reaches the gate and the metrics
        registry = MetricsRegistry()
        report.to_metrics(registry)
        sketches = registry.snapshot()["sketches"]
        assert sketches["repro.live.op.write_latency"]["count"] == 1
        assert sketches["repro.live.op.read_latency"]["count"] == 0

    def test_completed_counts_completed_records(self):
        # a timed-out write stays in the history, open to the horizon,
        # but it did not complete
        records = [
            Operation(0, 0, "W", ("v", 0, 0), None, 0.0, 0.1),
            Operation(1, 0, "W", ("v", 0, 1), None, 0.3, 1.3, "timeout"),
        ]
        ops = build_operations(records, horizon=1.3)
        report = self.make_report(ops, records=records)
        assert len(report.operations) == 2
        registry = MetricsRegistry()
        report.to_metrics(registry)
        counters = registry.snapshot()["counters"]
        assert counters["repro.live.ops.completed"] == 1
        assert counters["repro.live.ops.writes"] == 2

    def test_plan_refuses_external_addresses(self):
        from repro.chaos.plan import FaultPlan, crash

        plan = FaultPlan(events=(crash(0, 0.1),), name="crash")
        with pytest.raises(LiveServiceError):
            run_load(
                LiveParams(n=1), live_workload(operations=1),
                addresses=[("127.0.0.1", 1)], plan=plan,
            )

    def test_connect_refuses_trace_out(self, tmp_path, capsys):
        # the nodes, and so their stream, live in the serve process
        from repro.cli import main

        manifest = str(tmp_path / "manifest.json")
        write_manifest(manifest, LiveParams(n=1), [("127.0.0.1", 1)])
        status = main([
            "load", "--connect", manifest, "--ops", "1",
            "--trace-out", str(tmp_path / "trace.jsonl"),
        ])
        assert status == 2
        assert "serve process" in capsys.readouterr().err

    def test_live_chaos_prints_its_causal_attribution(self, capsys):
        from repro.cli import main

        status = main(["chaos", "--live", "--seed", "7", "--ops", "2",
                       "--causal"])
        out = capsys.readouterr().out
        assert status == 0, out
        assert "causal attribution:" in out
        assert "happens-before DAG: acyclic, sound" in out
