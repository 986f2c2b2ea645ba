"""Causal span tracing: DAG reconstruction, attribution, bound checks."""

import json

import pytest

from repro.chaos import FaultPlan, causal_attribution, crash, heal, partition, run_chaos
from repro.chaos.runner import demo_builder
from repro.cli import main
from repro.constants import TOLERANCE
from repro.errors import ReproError
from repro.obs.causal import CausalTrace, SpanBook, check_bounds
from repro.obs.schema import validate_trace_lines
from repro.obs.trace import JsonlTracer, read_trace
from repro.objects.specs import CounterSpec
from repro.registers.algorithm_s import theorem_bounds
from repro.registers.system import clock_register_system, run_register_experiment
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import UniformDelay

EPS, C, DELTA, D1, D2 = 0.1, 0.3, 0.01, 0.2, 1.0


def _traced_register_run(path, ops=10, horizon=60.0, seed=0, spec=None):
    """Run the default clock register workload, tracing to ``path``;
    ``spec`` runs that blind-update object instead."""
    system = clock_register_system(
        n=3, d1=D1, d2=D2, c=C, eps=EPS,
        workload=RegisterWorkload(operations=ops, read_fraction=0.5, seed=seed),
        drivers=driver_factory("mixed", EPS, seed=seed),
        delta=DELTA, delay_model=UniformDelay(seed=seed), spec=spec,
    )
    tracer = JsonlTracer(str(path))
    tracer.meta({"model": "clock", "eps": EPS, "c": C, "delta": DELTA,
                 "d1": D1, "d2": D2})
    run = run_register_experiment(system, horizon, tracer=tracer, spec=spec)
    tracer.close()
    return run


class TestReconstruction:
    @pytest.fixture(scope="class")
    def trace(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("causal") / "register.jsonl"
        _traced_register_run(path)
        return CausalTrace.from_file(str(path))

    def test_dag_is_acyclic_and_sound(self, trace):
        assert trace.is_acyclic()
        assert trace.check() == []

    def test_every_delivery_has_a_matching_send(self, trace):
        assert all(not span.orphan for span in trace.spans if span.delivered)
        delivered = [span for span in trace.spans if span.delivered]
        assert delivered, "the run delivered no messages"
        for span in delivered:
            assert "enq" in span.phases and "dlv" in span.phases

    def test_online_span_records_match_offline_reconstruction(self, trace):
        """The v2 file's embedded span records double as a cross-check."""
        offline = sum(len(span.phases) for span in trace.spans)
        offline += sum(
            (1 if op.inv else 0) + (1 if op.res else 0) for op in trace.ops
        )
        assert trace.span_record_count == offline

    def test_meta_round_trips(self, trace):
        assert trace.meta["model"] == "clock"
        assert trace.meta["eps"] == EPS
        assert "entities" in trace.meta

    def test_attribution_sums_to_end_to_end_latency(self, trace):
        ops = trace.completed_ops()
        assert ops
        for op in ops:
            total = sum(trace.attribution(op).values())
            assert abs(total - op.latency) <= TOLERANCE
        for span in trace.spans:
            if not span.delivered:
                continue
            segments = span.segments()
            total = sum(end - start for _, start, end in segments)
            assert abs(total - span.end_to_end) <= TOLERANCE

    def test_propagation_chains_telescope(self, trace):
        writes = [op for op in trace.completed_ops() if op.kind == "W"]
        assert writes
        chained = 0
        for op in writes:
            for chain in trace.propagation(op):
                total = sum(seg.duration for seg in chain.segments)
                assert abs(total - chain.total) <= TOLERANCE
                starts = [seg.start for seg in chain.segments]
                assert starts == sorted(starts)
                chained += 1
        assert chained, "no write propagation chains reconstructed"

    def test_bounds_hold_on_the_default_workload(self, trace):
        report = check_bounds(
            trace, model="clock", eps=EPS, c=C, delta=DELTA, d1=D1, d2=D2,
        )
        assert report.ok, report.render()
        limits = theorem_bounds(model="clock", eps=EPS, c=C, delta=DELTA, d2=D2)
        by_name = {check.name: check for check in report.checks}
        assert by_name["read_latency"].limit == pytest.approx(limits["read_real"])
        assert by_name["write_latency"].limit == pytest.approx(limits["write_real"])

    def test_violated_bound_fails_loudly(self, trace):
        report = check_bounds(
            trace, model="clock", eps=1e-4, c=C, delta=DELTA, d1=D1, d2=D2,
        )
        assert not report.ok
        assert "FAIL" in report.render()


@pytest.mark.parametrize(
    "spec", [None, CounterSpec()], ids=["register", "counter"]
)
def test_every_operation_has_a_span(tmp_path, spec):
    """Operation spans pair every object's vocabulary, not only the
    register's: one completed span per completed operation, with the
    clients' latencies, and each update propagates once to each of the
    3 replicas (a counter node repeats its update arguments), and each
    delivered update ends in its replica's update wait."""
    path = tmp_path / "ops.jsonl"
    run = _traced_register_run(path, spec=spec)
    trace = CausalTrace.from_file(str(path))
    spans = trace.completed_ops()
    assert len(spans) == len(run.operations) > 0
    assert sorted(span.latency for span in spans) == pytest.approx(
        sorted(op.latency for op in run.operations)
    )
    chains = [trace.propagation(op) for op in spans if op.kind == "W"]
    assert {len(per_write) for per_write in chains} == {3}
    delivered = [chain for per_write in chains for chain in per_write if chain.span.delivered]
    assert delivered
    assert {chain.segments[-1].label for chain in delivered} == {"update_wait"}


class TestChaosReconstruction:
    """Satellite: causal graph on a chaos-plan run (crash + partition)."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("chaos") / "chaos.jsonl"
        plan = FaultPlan.of(
            [crash(0, 5.0), partition([[0], [1]], 6.0), heal(12.0)],
            name="crash-partition",
        )
        tracer = JsonlTracer(str(path))
        run_chaos(demo_builder, plan, 20.0, tracer=tracer)
        tracer.close()
        return str(path)

    def test_dag_acyclic_under_faults(self, trace_path):
        trace = CausalTrace.from_file(trace_path)
        assert trace.events
        assert trace.is_acyclic()

    def test_every_delivery_has_a_matching_send(self, trace_path):
        trace = CausalTrace.from_file(trace_path)
        problems = trace.check()
        assert not any("delivery without" in p for p in problems), problems
        # faults may strand messages, but never fabricate deliveries
        assert all(not span.orphan for span in trace.spans if span.delivered)

    def test_attribution_summary_renders(self, trace_path):
        summary = causal_attribution(trace_path)
        assert "acyclic" in summary
        assert "message spans" in summary


class TestOnlineOfflineParity:
    def test_span_book_is_shared_between_paths(self, tmp_path):
        path = tmp_path / "parity.jsonl"
        _traced_register_run(path, ops=6)
        records = read_trace(str(path))
        offline = CausalTrace.from_records(records)
        book = SpanBook()
        for record in records:
            if record.get("k") != "action":
                continue
            action = record["action"]
            book.observe(record["now"], action.name, action.params,
                         record.get("clock"))
        assert len(book.spans) == len(offline.spans)
        assert len(book.ops) == len(offline.ops)
        for online, rebuilt in zip(book.spans, offline.spans):
            assert online.sid == rebuilt.sid
            assert set(online.phases) == set(rebuilt.phases)


class TestMixedVersionRejection:
    def _write(self, path, lines):
        path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")

    def test_v1_file_with_span_records_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        self._write(path, [
            {"format": "repro-obs-trace", "version": 1},
            {"k": "run_start", "horizon": 10.0},
            {"k": "span", "sid": "m0", "span": "msg", "ph": "enq", "now": 0.0},
        ])
        with pytest.raises(ReproError, match="version"):
            read_trace(str(path))
        problems = validate_trace_lines(path.read_text().splitlines())
        assert problems

    def test_concatenated_traces_rejected(self, tmp_path):
        path = tmp_path / "concat.jsonl"
        self._write(path, [
            {"format": "repro-obs-trace", "version": 2},
            {"k": "run_start", "horizon": 10.0},
            {"format": "repro-obs-trace", "version": 2},
            {"k": "run_end", "now": 10.0, "steps": 0},
        ])
        with pytest.raises(ReproError, match="second header"):
            read_trace(str(path))
        problems = validate_trace_lines(path.read_text().splitlines())
        assert any("mixed-version" in p for p in problems)


class TestTraceCli:
    def test_assert_bounds_on_default_workload(self, capsys):
        code = main(["trace", "--assert-bounds", "--ops", "8",
                     "--horizon", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out

    def test_analyze_written_trace(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        _traced_register_run(path, ops=6)
        code = main(["trace", str(path), "--analyze"])
        out = capsys.readouterr().out
        assert code == 0
        assert "acyclic" in out

    def test_critical_path_listing(self, tmp_path, capsys):
        path = tmp_path / "cli.jsonl"
        _traced_register_run(path, ops=6)
        code = main(["trace", str(path), "--critical-path"])
        out = capsys.readouterr().out
        assert code == 0
        assert "local_wait" in out
