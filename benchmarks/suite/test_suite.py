"""Tests of the benchmark suite itself (``python -m pytest benchmarks/suite -q``).

Everything that runs a workload uses ``--smoke`` shapes, so the file
stays under half a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, SUITE_DIR)

import compare  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _suite(tmp_path_factory, tag):
    out = tmp_path_factory.mktemp("suite") / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, os.path.join(SUITE_DIR, "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def report_a(tmp_path_factory):
    return _suite(tmp_path_factory, "a")


@pytest.fixture(scope="module")
def report_b(tmp_path_factory):
    return _suite(tmp_path_factory, "b")


# -- BENCHMARK.json ---------------------------------------------------------


def test_benchmark_json_meets_the_driver_contract():
    assert set(DECLARED) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert DECLARED["paths"] == ["benchmarks/suite"]
    assert DECLARED["command"][-1].startswith(DECLARED["paths"][0] + "/")
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    for workload in DECLARED["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(DECLARED["end_to_end"]) <= 16
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert 1 <= len(DECLARED["per_layer"]) <= 128
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = WORKLOADS + [
        m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]
    ]
    assert len(set(names)) == len(names), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])
    # the driver makes 4 + 22 x workloads runs in 3420 s; a run is its
    # measured seconds plus set-up, warm-up and verification (< 8 s here)
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (DECLARED["run_seconds"] + 8) <= 3420


def test_the_suite_emits_exactly_the_declared_vocabulary():
    assert set(workloads.WORKLOADS) == set(WORKLOADS)
    assert workloads.END_TO_END == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]
    }
    assert workloads.PER_LAYER == {
        m["name"]: m["unit"] for m in DECLARED["per_layer"]
    }
    assert set(workloads.SHAPES) == set(WORKLOADS)


# -- the suite's report -------------------------------------------------------


def test_every_workload_reports_every_metric_and_nothing_fails(report_a):
    assert report_a["format"] == "repro-bench-suite"
    for key in ("python", "nproc", "loadavg", "commit", "seeds"):
        assert key in report_a["manifest"]
    assert set(report_a["workloads"]) == set(WORKLOADS)
    for name, entry in report_a["workloads"].items():
        assert set(entry["end_to_end"]) == set(workloads.END_TO_END), name
        assert set(entry["per_layer"]) == set(workloads.PER_LAYER), name
        assert entry["attempted"] >= 1 and entry["fail_ratio"] == 0, entry["notes"]
        for kind in ("end_to_end", "per_layer"):
            for metric, slot in entry[kind].items():
                assert all(isinstance(v, (int, float)) for v in slot["values"]), metric
        # a user-visible number that is 0 measured nothing
        for metric, slot in entry["end_to_end"].items():
            assert slot["median"] > 0, (name, metric)


def test_layers_a_workload_does_not_touch_read_zero(report_a):
    layers = report_a["workloads"]["sim_timed_pairs"]["per_layer"]
    for metric, slot in layers.items():
        if metric.startswith(("core.clock_transform.", "live.", "traces.")):
            assert slot["median"] == 0, metric
    assert layers["components.base.enabled_calls"]["median"] > 0
    layers = report_a["workloads"]["sim_clock_pairs"]["per_layer"]
    assert layers["core.clock_transform.advance_calls"]["median"] > 0
    assert layers["components.base.enabled_calls"]["median"] == 0
    layers = report_a["workloads"]["live_fastread"]["per_layer"]
    assert layers["live.wire.frames_per_op"]["median"] == 2


def test_the_traced_pass_accounts_for_the_engine_time(report_a):
    for name in ("sim_timed_pairs", "sim_clock_pairs", "sim_clock_register"):
        layers = {
            k: v["median"] for k, v in report_a["workloads"][name]["per_layer"].items()
        }
        # spans opened directly by the engine: entity methods, pick, record
        children = sum(
            layers[f"{prefix}.{method}_s"]
            for prefix in ("core.clock_transform", "components.base")
            for method in ("enabled", "deadline", "advance", "fire", "apply_input")
            if f"{prefix}.{method}_s" in layers
        ) + sum(layers[k] for k in (
            "network.channel.busy_s", "registers.workload.busy_s",
            "sim.scheduler.pick_s", "sim.recorder.record_s",
        ))
        assert children + layers["sim.engine.self_s"] == pytest.approx(
            layers["sim.engine.run_s"], rel=1e-6
        ), name
        assert layers["bench.trace_overhead_ratio"] > 0


def test_exact_counts_repeat_and_two_runs_compare_clean(report_a, report_b):
    rows, errors = compare.compare(report_a, report_b)
    # same commit: a differing exact count would be among the errors;
    # timings of millisecond-long smoke repetitions may well "regress"
    assert not [e for e in errors if "same commit" in e or "fail_ratio" in e], errors
    exact = [row for row in rows if row[5] in ("equal", "differs")]
    assert len(exact) > 30 and all(row[5] == "equal" for row in exact)


@pytest.mark.parametrize("name", ["sim_timed_pairs", "sim_clock_pairs", "sim_clock_register"])
def test_tracing_does_not_change_the_trace(name):
    plain = run.run_pass(name, 7, 0, False, True, None)
    traced = run.run_pass(name, 7, 0, True, True, None)
    assert plain["correct"] and traced["correct"], plain["notes"] + traced["notes"]
    assert traced["facts"], "the traced pass reports the big shape's facts"
    for key, value in traced["facts"].items():
        assert plain["facts"][key] == value, key


# -- the driver's command line ---------------------------------------------------


def test_one_pass_prints_the_contract_json_last():
    done = subprocess.run(
        [sys.executable, os.path.join(SUITE_DIR, "run.py"), "--workload",
         "live_fastwrite", "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == set(workloads.END_TO_END)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["value"] > 0, name
    # every metric is also printed by name and unit for a human
    for name, unit in workloads.END_TO_END.items():
        assert re.search(rf"live_fastwrite\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\n", done.stdout)


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        SUITE_DIR, tmp_path / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "sim_timed_pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_a_workload_that_hangs_is_reported_as_failed(monkeypatch):
    monkeypatch.setattr(run, "WALL_TIMEOUT_S", 0.05)
    result = run.run_pass("sim_timed_pairs", 1, 0, False, True, None)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert "killed" in result["notes"][0]


def test_a_golden_mismatch_is_a_failure():
    key = "sim_timed_pairs/64x4.steps"
    with open(os.path.join(SUITE_DIR, "golden.json")) as handle:
        golden = json.load(handle)
    assert run.run_pass("sim_timed_pairs", 1, 0, False, True, golden)["correct"]
    result = run.run_pass("sim_timed_pairs", 1, 0, False, True, {**golden, key: -1})
    assert result["failed"] == 1 and key in result["notes"][-1]
    # other seeds have no golden facts and are not compared
    assert run.run_pass("sim_timed_pairs", 2, 0, False, True, {})["correct"]


# -- trace.py ----------------------------------------------------------------------


def leaked_wrappers(owners):
    """``(owner, attribute)`` pairs that still hold a tracer wrapper."""
    return [
        (owner, attribute)
        for owner in owners
        for attribute, value in vars(owner).items()
        if getattr(value, "__qualname__", "") == "Tracer.wrap.<locals>.wrapper"
    ]


def test_tracer_restores_and_refuses_inherited_methods():
    from repro.components.base import Entity, TimedNodeEntity
    from repro.core.clock_transform import ClockNodeEntity

    original = vars(ClockNodeEntity)["advance"]
    with pytest.raises(RuntimeError, match="boom"):
        with trace.Tracer() as tracer:
            tracer.wrap(ClockNodeEntity, "advance", "x")
            assert vars(ClockNodeEntity)["advance"] is not original
            assert leaked_wrappers([ClockNodeEntity]) == [(ClockNodeEntity, "advance")]
            # TimedNodeEntity inherits advance; the engine tells "has no
            # advance of its own" by identity with Entity.advance
            with pytest.raises(AttributeError):
                tracer.wrap(TimedNodeEntity, "advance", "y")
            raise RuntimeError("boom")
    assert vars(ClockNodeEntity)["advance"] is original
    assert TimedNodeEntity.advance is Entity.advance
    assert leaked_wrappers([ClockNodeEntity, TimedNodeEntity]) == []


def test_tracer_folds_spans_with_self_time():
    class Layered:
        def outer(self):
            return self.inner() + self.inner()

        def inner(self):
            return 1

    with trace.Tracer() as tracer:
        seen = []
        tracer.wrap(Layered, "outer", "outer")
        tracer.wrap(Layered, "inner", "inner", lambda args, result: seen.append(result))
        assert Layered().outer() == 2
    outer, inner = tracer.layers["outer"], tracer.layers["inner"]
    assert (outer.calls, inner.calls, seen) == (1, 2, [1, 1])
    assert outer.self_ns == outer.ns - inner.ns and inner.self_ns == inner.ns
    assert tracer.calls("outer", "inner", "absent") == 3


def test_no_wrapper_survives_a_traced_pass():
    import repro.live.client
    import repro.live.node
    import repro.live.service
    import repro.traces.linearizability
    from repro.components.base import TimedNodeEntity
    from repro.core.buffers import ReceiveBuffer, SendBuffer
    from repro.core.clock_transform import ClockNodeEntity
    from repro.live.clock import LiveClock
    from repro.network.channel import ChannelEntity
    from repro.registers.algorithm_l import RegisterProcess
    from repro.registers.workload import ClientEntity
    from repro.sim.clock_drivers import ClockDriver
    from repro.sim.engine import Simulator
    from repro.sim.recorder import Recorder
    from repro.sim.scheduler import DeterministicScheduler

    owners = [
        ClockNodeEntity, TimedNodeEntity, ChannelEntity, ClientEntity,
        SendBuffer, ReceiveBuffer, RegisterProcess, ClockDriver, Simulator,
        Recorder, DeterministicScheduler, LiveClock, repro.live.client,
        repro.live.node, repro.live.service, repro.traces.linearizability,
    ]
    for name in ("sim_clock_register", "live_fastwrite", "check_histories"):
        metrics, outcome = workloads.run_workload(name, 5, 0, True, smoke=True)
        assert outcome.failed == 0, outcome.notes
        assert leaked_wrappers(owners) == []


# -- compare.py ----------------------------------------------------------------------


def _report(commit, ops_per_s, steps=100, fail_ratio=0.0, workload="sim_timed_pairs"):
    return {
        "manifest": {"commit": commit},
        "bounds": {"ops_per_s": {"better": "higher", "bound": 0.1}},
        "workloads": {workload: {
            "end_to_end": {"ops_per_s": {"unit": "1/s", "values": ops_per_s}},
            "per_layer": {
                "sim.engine.steps": {"unit": "count", "median": steps},
                "sim.engine.run_s": {"unit": "s", "median": 1.0},
                "live.wire.encode_calls": {"unit": "count", "median": 0},
            },
            "fail_ratio": fail_ratio,
        }},
    }


def _verdicts(a, b):
    rows, errors = compare.compare(a, b)
    return {row[1]: row[5] for row in rows}, errors


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    verdicts, errors = _verdicts(_report("c1", steady), _report("c1", [98.0, 97.0, 99.0, 98.5]))
    assert verdicts == {
        "ops_per_s": "within-bound", "sim.engine.steps": "equal",
        "sim.engine.run_s": "", "fail_ratio": "",
    } and not errors
    verdicts, errors = _verdicts(_report("c1", steady), _report("c2", [85.0, 86.0, 84.0, 85.5]))
    assert verdicts["ops_per_s"] == "regressed" and len(errors) == 1
    noisy = [80.0, 120.0, 95.0, 105.0]
    assert _verdicts(_report("c1", steady), _report("c2", noisy))[0]["ops_per_s"] == "unresolved"
    # wider than the bound, but every run beats every baseline run
    faster = [150.0, 200.0, 160.0, 190.0]
    assert _verdicts(_report("c1", steady), _report("c2", faster))[0]["ops_per_s"] == "within-bound"
    # one run a side: no spread to judge by
    assert _verdicts(_report("c1", [100.0]), _report("c2", [95.0]))[0]["ops_per_s"] == "within-bound"


def test_compare_counts_and_fail_ratio():
    steady = [100.0, 101.0]
    verdicts, errors = _verdicts(_report("c1", steady), _report("c1", steady, steps=101))
    assert verdicts["sim.engine.steps"] == "differs" and "same commit" in errors[0]
    verdicts, errors = _verdicts(_report("c1", steady), _report("c2", steady, steps=90))
    assert verdicts["sim.engine.steps"] == "differs" and not errors
    verdicts, errors = _verdicts(_report("unknown", steady), _report("unknown", steady, steps=90))
    assert not errors
    live = dict(workload="live_fastread")
    verdicts, errors = _verdicts(_report("c1", steady, **live), _report("c1", steady, steps=90, **live))
    assert verdicts["sim.engine.steps"] == "" and not errors
    verdicts, errors = _verdicts(_report("c1", steady), _report("c2", steady, fail_ratio=0.01))
    assert verdicts["fail_ratio"] == "rose" and "fail_ratio rose" in errors[0]


def test_compare_exit_codes(tmp_path):
    paths = []
    for tag, report in (("a", _report("c1", [100.0])), ("b", _report("c2", [50.0]))):
        paths.append(str(tmp_path / f"{tag}.json"))
        with open(paths[-1], "w") as handle:
            json.dump(report, handle)
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1
    assert compare.main([]) == 2
