"""Tests for the repro.campaign subsystem.

The load-bearing claims: grid expansion is canonical and stable; the
runner survives crashed/hung/failing workers with bounded retry; the
checkpoint makes interrupted campaigns resume **byte-identically**; and
the aggregate is byte-identical across worker counts. Plus the schema
checkers, the snapshot-merge API, and the ``python -m repro sweep`` CLI.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.campaign import (
    Aggregator,
    CampaignRunner,
    Checkpoint,
    Grid,
    point_key,
)
from repro.campaign.schema import (
    validate_aggregate_file,
    validate_checkpoint_file,
)
from repro.cli import main as cli_main
from repro.errors import CampaignError
from repro.obs import MetricsRegistry, merge_snapshots, registry_from_snapshot

SMALL_RUN = {"horizon": 30.0}


def small_grid(**axes):
    axes = axes or {"eps": [0.05, 0.1]}
    return Grid(axes, run=SMALL_RUN, seeds=2)


def aggregate_text(grid, outcomes):
    payload = Aggregator(grid.grid_id()).build(outcomes)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- grid ---------------------------------------------------------------------


def test_grid_expansion_is_canonical_and_stable():
    grid = Grid({"d2": [1.0, 0.8], "eps": [0.1, 0.05]}, seeds=2)
    points = grid.points()
    assert len(points) == 8 == grid.size
    # canonical axis order: eps varies slower than d2, d2 slower than seed
    assert [p["config"]["eps"] for p in points[:4]] == [0.1] * 4
    assert [p["config"]["d2"] for p in points[:4]] == [1.0, 1.0, 0.8, 0.8]
    assert [p["config"]["seed"] for p in points[:2]] == [0, 1]
    assert [p["index"] for p in points] == list(range(8))
    # keys identify configs byte-stably and uniquely
    assert len({p["key"] for p in points}) == 8
    assert points[0]["key"] == point_key(points[0]["config"])
    # same spec, axes given in another order -> same id and keys
    again = Grid({"eps": [0.1, 0.05], "d2": [1.0, 0.8], "seed": [0, 1]})
    assert again.grid_id() == grid.grid_id()
    assert [p["key"] for p in again.points()] == [p["key"] for p in points]


def test_grid_rejects_bad_specs():
    with pytest.raises(CampaignError):
        Grid({"epsilon": [0.1]})  # unknown axis
    with pytest.raises(CampaignError):
        Grid({"eps": []})  # empty axis
    with pytest.raises(CampaignError):
        Grid({"eps": [0.1, 0.1]})  # duplicate values
    with pytest.raises(CampaignError):
        Grid({"seed": [0]}, seeds=2)  # both seed axis and seeds=
    with pytest.raises(CampaignError):
        Grid({"model": ["quantum"]})  # unknown model
    with pytest.raises(CampaignError):
        Grid({"c": ["x"]})  # c must be a number or "u"
    with pytest.raises(CampaignError):
        Grid({}, run={"warmup": 1.0})  # unknown run parameter


def test_grid_from_json_spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "grid": {"eps": [0.05, 0.1], "c": "u"},
        "seeds": 2,
        "run": {"horizon": 30.0},
    }))
    grid = Grid.from_file(str(spec))
    assert grid.size == 4
    assert grid.axes["c"] == ["u"]  # scalar promoted to a one-element axis
    assert grid.run["horizon"] == 30.0
    assert grid.grid_id() == Grid(
        {"eps": [0.05, 0.1], "c": ["u"]}, run=SMALL_RUN, seeds=2
    ).grid_id()


def test_grid_from_toml_spec_file(tmp_path):
    pytest.importorskip("tomllib")
    spec = tmp_path / "spec.toml"
    spec.write_text(
        'seeds = 2\n[grid]\neps = [0.05, 0.1]\n[run]\nhorizon = 30.0\n'
    )
    grid = Grid.from_file(str(spec))
    assert grid.size == 4
    assert grid.grid_id() == small_grid().grid_id()


# -- runner -------------------------------------------------------------------


def test_serial_and_parallel_aggregates_are_byte_identical():
    grid = small_grid()
    serial = CampaignRunner(workers=1).run(grid.points())
    parallel = CampaignRunner(workers=2).run(grid.points())
    assert all(o.ok for o in serial) and all(o.ok for o in parallel)
    assert aggregate_text(grid, serial) == aggregate_text(grid, parallel)


def test_parallel_crash_is_retried():
    grid = small_grid()
    points = grid.points()
    points[0]["chaos"] = {"crash_attempts": 1}
    logs = []
    outcomes = CampaignRunner(workers=2, retries=2, log=logs.append).run(points)
    assert all(o.ok for o in outcomes)
    assert outcomes[0].attempts == 2
    assert any("crashed" in line for line in logs)
    # the crash never leaks into the aggregate: still byte-identical
    clean = CampaignRunner(workers=1).run(grid.points())
    assert aggregate_text(grid, outcomes) == aggregate_text(grid, clean)


def test_serial_crash_is_retried_without_killing_the_process():
    grid = small_grid()
    points = grid.points()
    points[0]["chaos"] = {"crash_attempts": 1}
    outcomes = CampaignRunner(workers=1, retries=1).run(points)
    assert all(o.ok for o in outcomes)
    assert outcomes[0].attempts == 2


def test_crash_beyond_retry_budget_fails_the_point():
    grid = small_grid()
    points = grid.points()
    points[1]["chaos"] = {"crash_attempts": 99}
    outcomes = CampaignRunner(workers=1, retries=1).run(points)
    assert outcomes[1].status == "failed"
    assert outcomes[1].attempts == 2
    payload = Aggregator(grid.grid_id()).build(outcomes)
    assert payload["summary"]["failed"] == 1
    assert payload["failures"][0]["index"] == 1


def test_hung_worker_is_killed_on_timeout():
    grid = small_grid()
    points = grid.points()
    points[1]["chaos"] = {"sleep": 30.0}
    outcomes = CampaignRunner(workers=2, retries=0, timeout=1.0).run(points)
    assert outcomes[0].ok
    assert outcomes[1].status == "failed"
    assert "timed out" in outcomes[1].error


def test_duplicate_point_keys_are_rejected():
    grid = small_grid()
    points = grid.points()
    with pytest.raises(CampaignError):
        CampaignRunner(workers=1).run(points + [points[0]])


# -- checkpoint / resume ------------------------------------------------------


def test_resume_after_partial_run_is_byte_identical(tmp_path):
    grid = small_grid()
    full = CampaignRunner(workers=1).run(grid.points())
    path = str(tmp_path / "checkpoint.jsonl")

    # first run: one point exhausts its retries, the rest complete
    points = grid.points()
    points[1]["chaos"] = {"crash_attempts": 99}
    with Checkpoint(path, grid.grid_id(), grid.size) as checkpoint:
        partial = CampaignRunner(
            workers=1, retries=0, checkpoint=checkpoint
        ).run(points)
    assert [o.status for o in partial].count("failed") == 1

    # simulate a kill mid-write: torn final line is tolerated on load
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"k":"point","key":"tru')

    with Checkpoint(path, grid.grid_id(), grid.size) as checkpoint:
        resumed = CampaignRunner(workers=1, checkpoint=checkpoint).run(
            grid.points()
        )
    statuses = [o.status for o in resumed]
    assert statuses.count("cached") == grid.size - 1
    assert statuses.count("done") == 1
    assert aggregate_text(grid, resumed) == aggregate_text(grid, full)


def test_checkpoint_refuses_a_different_grid(tmp_path):
    grid = small_grid()
    path = str(tmp_path / "checkpoint.jsonl")
    with Checkpoint(path, grid.grid_id(), grid.size):
        pass
    with pytest.raises(CampaignError):
        Checkpoint(path, "0123456789ab", grid.size)


def test_checkpoint_rejects_midfile_corruption(tmp_path):
    grid = small_grid()
    path = str(tmp_path / "checkpoint.jsonl")
    with Checkpoint(path, grid.grid_id(), grid.size) as checkpoint:
        checkpoint.append("k1", {"x": 1}, 0.1, 1)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("garbage not json\n")          # corrupt, NOT final...
        handle.write('{"k":"point","key":"k2","result":{},'
                     '"wall":0.1,"attempts":1}\n')  # ...a real row follows
    with pytest.raises(CampaignError):
        Checkpoint(path, grid.grid_id(), grid.size)


# -- aggregation / obs merge --------------------------------------------------


def test_merge_snapshots_roundtrip_and_order_independence():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("ops").inc(3)
    b.counter("ops").inc(4)
    a.gauge("skew").set(0.2)
    b.gauge("skew").set(0.5)
    for registry, values in ((a, (0.05, 0.4)), (b, (0.2,))):
        histogram = registry.histogram("lat", [0.1, 0.5])
        for value in values:
            histogram.observe(value)
    snap_a, snap_b = a.snapshot(), b.snapshot()
    merged = merge_snapshots([snap_a, snap_b])
    assert merged["counters"]["ops"] == 7
    assert merged["gauges"]["skew"] == 0.5
    assert merged == merge_snapshots([snap_b, snap_a])
    # rebuild -> snapshot is lossless for deterministic fields
    assert registry_from_snapshot(snap_a).snapshot() == snap_a


def test_aggregate_exports_conform_to_schema(tmp_path):
    grid = small_grid()
    path = str(tmp_path / "checkpoint.jsonl")
    with Checkpoint(path, grid.grid_id(), grid.size) as checkpoint:
        outcomes = CampaignRunner(workers=1, checkpoint=checkpoint).run(
            grid.points()
        )
    aggregator = Aggregator(grid.grid_id())
    payload = aggregator.build(outcomes)
    jsonl = str(tmp_path / "aggregate.jsonl")
    csv_path = str(tmp_path / "aggregate.csv")
    aggregator.write_jsonl(jsonl, payload)
    aggregator.write_csv(csv_path, payload)
    assert validate_aggregate_file(jsonl) == []
    assert validate_checkpoint_file(path) == []
    assert cli_main(["validate", jsonl, path]) == 0
    with open(csv_path, encoding="utf-8") as handle:
        rows = handle.read().splitlines()
    assert len(rows) == 1 + grid.size  # header + one row per point
    # curves cover the swept eps values in order
    assert [c["eps"] for c in payload["curves"]] == [0.05, 0.1]
    assert payload["metrics"] is not None


def test_schema_flags_broken_aggregates(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"k":"header","format":"nope","version":1,'
                   '"campaign":"x","points":0}\n')
    problems = validate_aggregate_file(str(bad))
    assert any("format" in p for p in problems)
    assert any("summary" in p for p in problems)


# -- CLI ----------------------------------------------------------------------


def run_cli(tmp_path, *extra):
    command = [
        sys.executable, "-m", "repro", "sweep",
        "--eps", "0.05,0.1", "--seeds", "2", "--horizon", "30",
        "--out", str(tmp_path / "out"), *extra,
    ]
    return subprocess.run(command, capture_output=True, text=True, timeout=600)


def test_cli_sweep_with_crash_resume_and_validation(tmp_path):
    first = run_cli(tmp_path, "--workers", "2", "--chaos-crash", "1")
    assert first.returncode == 0, first.stdout + first.stderr
    assert "retrying" in first.stdout
    out = tmp_path / "out"
    baseline = (out / "aggregate.jsonl").read_bytes()

    resumed = run_cli(tmp_path, "--workers", "2", "--resume")
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    assert "resuming: 4 points already done" in resumed.stdout
    assert (out / "aggregate.jsonl").read_bytes() == baseline

    assert validate_aggregate_file(str(out / "aggregate.jsonl")) == []
    assert validate_checkpoint_file(str(out / "checkpoint.jsonl")) == []


def test_cli_sweep_rejects_spec_plus_axis_flags(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text('{"grid": {"eps": [0.1]}}')
    completed = run_cli(tmp_path, "--spec", str(spec))
    assert completed.returncode == 2
    assert "not both" in completed.stderr


def test_shards_is_not_an_axis(tmp_path):
    with pytest.raises(CampaignError, match="unknown grid axis 'shards'"):
        Grid({"shards": [1]})
    spec = tmp_path / "spec.json"
    spec.write_text('{"grid": {"shards": [1, 2], "driver": "skewed"}}')
    with pytest.raises(CampaignError, match="unknown grid axis 'shards'"):
        Grid.from_file(str(spec))
    completed = run_cli(tmp_path, "--shards", "2")
    assert completed.returncode == 2
    assert "--shards" in completed.stderr


def test_plan_fault_axis_runs_and_is_deterministic():
    from repro.campaign.worker import run_point

    grid = Grid(
        {"fault": ["plan"], "plan_seed": [0], "n": [2], "ops": [4]},
        run={"horizon": 30.0},
        seeds=1,
    )
    (point,) = grid.points()
    assert '"fault":"plan"' in point["key"]
    first = run_point(point)["result"]
    again = run_point(point)["result"]
    # the seeded plan is part of the config, so the point is exactly as
    # deterministic as a fault-free one
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert first["config"]["plan_seed"] == 0
    assert first["operations"] > 0


@pytest.mark.parametrize("plan_seed", [2, 13, 15, 16, 18, 20, 40, 42, 54, 59])
def test_plan_point_whose_crash_spans_a_scheduled_instant_reports_a_verdict(
    plan_seed,
):
    """These plans crash a node across one of its own Figure 3 instants;
    the overdue action fires at recovery instead of timelocking the run."""
    from repro.campaign.worker import run_point

    (point,) = Grid({"fault": ["plan"], "plan_seed": [plan_seed]}).points()
    result = run_point(point)["result"]
    assert result["operations"] > 0
    assert isinstance(result["linearizable"], bool)


# -- experiments as campaign tasks -------------------------------------------


def test_run_experiment_task_matches_the_runner_contract():
    from repro.experiments import run_experiment_task

    payload = run_experiment_task({"index": 0, "key": "FIG3", "exp": "FIG3"})
    result = payload["result"]
    assert result["format"] == "repro-bench-result"
    assert result["exp_id"] == "FIG3"
    assert result["ok"] is True
    assert result["table"]["rows"]
    assert payload["wall"] > 0 and "wall_seconds" not in result

    with pytest.raises(CampaignError):
        run_experiment_task({"index": 0, "key": "NOPE", "exp": "NOPE"})
