"""Tests for trace persistence and the ASCII timeline renderer.

A run persists as the ``--trace-out`` file :class:`JsonlTracer` writes,
and reloads into the run's own record with
``Recorder.from_trace(read_trace(path))``.
"""

import io
import json

import pytest

from repro.automata.actions import Action
from repro.automata.executions import timed_sequence
from repro.broadcast import build_flood_system
from repro.errors import ReproError
from repro.network.topology import Topology
from repro.objects.specs import CounterSpec
from repro.obs.trace import TRACE_KINDS_V1, JsonlTracer, read_trace
from repro.registers.system import (
    register_system,
    run_register_experiment,
    timed_register_system,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.delay import UniformDelay
from repro.sim.recorder import Recorder
from repro.analysis.timeline import render_timeline
from repro.traces.linearizability import is_linearizable


def sample_run(tracer=None):
    workload = RegisterWorkload(operations=4, read_fraction=0.5, seed=5)
    spec = timed_register_system(
        n=2, d1_prime=0.2, d2_prime=1.0, c=0.3, workload=workload,
        delay_model=UniformDelay(seed=5),
    )
    return run_register_experiment(spec, 40.0, tracer=tracer)


def traced_sample_run(path):
    tracer = JsonlTracer(str(path))
    run = sample_run(tracer)
    tracer.close()
    return run


def reload(path):
    return Recorder.from_trace(read_trace(str(path)))


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


class TestPersistence:
    def test_roundtrip_preserves_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run = traced_sample_run(path)
        count = sum(r["k"] == "action" for r in read_trace(str(path)))
        assert count == len(run.result.recorder)
        reloaded = reload(path)
        assert reloaded.events == run.result.recorder.events

    def test_reloaded_trace_rechecks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        run = traced_sample_run(path)
        reloaded = reload(path)
        assert reloaded.timed_trace() == run.result.trace
        assert is_linearizable(reloaded.timed_trace(), run.initial_value)

    def test_tuple_list_distinction_roundtrips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(str(path))
        tracer.action(
            0.0, "x", Action("X", ((1, 2), [3, 4], "s", None, True)), None, True
        )
        tracer.close()
        params = reload(path).events[0].action.params
        assert params[0] == (1, 2) and isinstance(params[0], tuple)
        assert params[1] == [3, 4] and isinstance(params[1], list)
        assert params[3] is None and params[4] is True

    def test_unserializable_payload_rejected(self):
        tracer = JsonlTracer(io.StringIO())
        with pytest.raises(ReproError):
            tracer.action(0.0, "x", Action("X", (object(),)), None, True)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ReproError):
            read_trace(str(path))

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        write_lines(path, ['{"format": "other"}'])
        with pytest.raises(ReproError):
            read_trace(str(path))

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        write_lines(path, ['{"format": "repro-obs-trace", "version": 999}'])
        with pytest.raises(ReproError):
            read_trace(str(path))

    def test_blank_lines_tolerated(self, tmp_path):
        run = sample_run()
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(str(path), spans=False)
        for event in run.result.recorder.events[:2]:
            tracer.action(
                event.now, event.owner, event.action, event.clock, event.visible
            )
        tracer.close()
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert reload(path).events == run.result.recorder.events[:2]


REGISTER_SHAPES = {
    "timed": ("timed", None),
    "clock": ("clock", None),
    "baseline": ("baseline", None),
    "mmt": ("mmt", None),
    "clock-counter": ("clock", CounterSpec),
}


class TestTraceReload:
    """A ``--trace-out`` file reloads into the record of the run that
    wrote it."""

    @pytest.mark.parametrize("shape", sorted(REGISTER_SHAPES))
    def test_register_trace_reloads_to_the_run_record(self, shape, tmp_path):
        model, spec_cls = REGISTER_SHAPES[shape]
        spec = spec_cls() if spec_cls else None
        system = register_system(
            model, n=4, d1=0.2, d2=1.0, c=0.3, eps=0.1,
            workload=RegisterWorkload(operations=20, read_fraction=0.5, seed=3),
            driver="mixed", step_bound=0.1, spec=spec,
        )
        path = tmp_path / f"{shape}.jsonl"
        tracer = JsonlTracer(str(path))
        run = run_register_experiment(
            system, 80.0, max_steps=3_000_000, tracer=tracer, spec=spec
        )
        tracer.close()
        assert len(run.result.recorder) > 0
        assert reload(path).events == run.result.recorder.events

    def test_injections_replay_as_environment_events(self, tmp_path):
        spec = build_flood_system(
            "timed", Topology.ring(4), 0.1, 1.0, delay_model=UniformDelay(seed=3)
        )
        path = tmp_path / "flood.jsonl"
        tracer = JsonlTracer(str(path))
        result = spec.simulator().run(
            6.0, tracer=tracer,
            initial_inputs=[(Action("BCAST", (0, ("m", 1))), 0.5)],
        )
        tracer.close()
        reloaded = reload(path)
        assert reloaded.events == result.recorder.events
        injected = [e for e in reloaded.events if e.owner == "environment"]
        assert [e.action.name for e in injected] == ["BCAST"]
        assert injected[0].clock is None and injected[0].visible

    def test_version_1_file_reloads(self, tmp_path):
        path = tmp_path / "v2.jsonl"
        run = traced_sample_run(path)
        lines = [json.dumps({"format": "repro-obs-trace", "version": 1})]
        lines += [
            line for line in path.read_text().splitlines()[1:]
            if json.loads(line)["k"] in TRACE_KINDS_V1
        ]
        v1 = tmp_path / "v1.jsonl"
        write_lines(v1, lines)
        assert reload(v1).events == run.result.recorder.events


class TestTimeline:
    def test_empty_trace(self):
        assert render_timeline(timed_sequence()) == "(empty trace)"

    def test_lanes_per_node(self):
        trace = timed_sequence(
            (Action("WRITE", (0, "v")), 0.0),
            (Action("READ", (1,)), 1.0),
            (Action("ACK", (0,)), 2.0),
            (Action("RETURN", (1, "v")), 3.0),
        )
        text = render_timeline(trace, width=40)
        assert "node 0" in text and "node 1" in text
        node0_line = [l for l in text.splitlines() if l.startswith("node 0")][0]
        assert "W" in node0_line and "A" in node0_line
        assert "R" not in node0_line.split("|", 1)[1]

    def test_glyph_override_and_legend(self):
        trace = timed_sequence((Action("CUSTOM", (0,)), 0.0))
        text = render_timeline(trace, width=20, glyphs={"CUSTOM": "#"})
        assert "#" in text
        assert "#=CUSTOM" in text

    def test_unknown_action_uses_star(self):
        trace = timed_sequence((Action("MYSTERY", (0,)), 0.0))
        assert "*" in render_timeline(trace, width=20)

    def test_width_validated(self):
        with pytest.raises(ValueError):
            render_timeline(timed_sequence((Action("A", (0,)), 0.0)), width=5)

    def test_events_positioned_proportionally(self):
        trace = timed_sequence(
            (Action("WRITE", (0, "v")), 0.0),
            (Action("ACK", (0,)), 10.0),
        )
        line = [
            l for l in render_timeline(trace, width=50).splitlines()
            if l.startswith("node 0")
        ][0]
        lane = line.split("|")[1]
        assert lane[0] == "W" and lane[-1] == "A"

    def test_real_run_renders(self):
        run = sample_run()
        text = render_timeline(run.result.trace)
        assert "node 0" in text and "legend:" in text
