"""The campaign worker: run one grid point, return plain data.

:func:`run_point` is the default task of a
:class:`~repro.campaign.runner.CampaignRunner`. It is a module-level
function (importable by name in any child process, under both the
``fork`` and ``spawn`` start methods), takes one picklable grid-point
dict produced by :meth:`repro.campaign.grid.Grid.points`, and returns a
picklable payload::

    {"result": {...deterministic...}, "wall": <float seconds>}

Everything under ``"result"`` is a pure function of the point config —
two runs of the same point, in any process, on any worker count, yield
byte-identical JSON. Wall-clock time is reported *next to* the result,
never inside it, so aggregates stay deterministic.

Chaos hooks
-----------
For fault-injection tests the runner may attach a ``"chaos"`` dict to a
point (never part of the point ``key``):

- ``{"crash_attempts": k}`` — attempts ``0..k-1`` die abruptly
  (``os._exit`` in a worker process; a simulated-crash exception when
  running serially), exercising the runner's bounded retry;
- ``{"sleep": s}`` — sleep ``s`` seconds before running, exercising the
  per-task timeout kill path.
"""

from __future__ import annotations

import os
import time
from typing import Dict

from repro.errors import CampaignError
from repro.campaign.grid import point_key
from repro.obs import MetricsRegistry
from repro.registers.system import (
    lossy_clock_register_system,
    register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload

MAX_STEPS = 3_000_000
"""Per-point engine step budget (matches the CLI's register command)."""


class SimulatedWorkerCrash(CampaignError):
    """Injected crash while running serially (stands in for process death)."""


def _apply_chaos(point: Dict) -> None:
    chaos = point.get("chaos") or {}
    attempt = int(point.get("_attempt", 0))
    if int(chaos.get("crash_attempts", 0)) > attempt:
        if point.get("_serial"):
            raise SimulatedWorkerCrash(
                f"injected crash on attempt {attempt} of point {point['index']}"
            )
        os._exit(23)  # abrupt death: no exception, no result message
    sleep = float(chaos.get("sleep", 0.0))
    if sleep > 0.0:
        time.sleep(sleep)


def _build_system(config: Dict, run: Dict):
    """The register system spec for one grid point's config."""
    n = int(config["n"])
    eps = float(config["eps"])
    d1, d2 = float(config["d1"]), float(config["d2"])
    c = 2.0 * eps if config["c"] == "u" else float(config["c"])
    delta = float(run["delta"])
    workload = RegisterWorkload(
        operations=int(config["ops"]),
        read_fraction=float(config["read_fraction"]),
        seed=int(config["seed"]),
    )
    model = config["model"]
    fault = config["fault"]
    if fault != "none" and model != "clock":
        raise CampaignError(
            f"fault model {fault!r} is only wired for model='clock', "
            f"got {model!r}"
        )
    if fault == "lossy":
        return lossy_clock_register_system(
            n, d1, d2, c, eps, p_drop=float(config["p_drop"]), max_drops=3,
            workload=workload, driver=config["driver"], delta=delta,
        )
    spec = register_system(
        model, n=n, d1=d1, d2=d2, c=c, eps=eps, workload=workload,
        driver=config["driver"], step_bound=float(run["step_bound"]),
        delta=delta,
    )
    if fault == "plan":
        return _with_random_plan(
            spec, n, eps, int(config["plan_seed"]), float(run["horizon"])
        )
    return spec


def _with_random_plan(spec, n, eps, plan_seed, horizon):
    """``spec`` under a seeded random fault plan (the chaos sweep axis).

    The plan is a pure function of ``plan_seed`` and the topology, so a
    chaos point stays deterministic and byte-identical across workers.
    """
    from repro.chaos import FaultPlan
    from repro.chaos.apply import apply_plan

    edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    plan = FaultPlan.random(
        plan_seed, n_nodes=n, edges=edges, horizon=horizon, eps=eps
    )
    return apply_plan(spec, plan)


def run_point(point: Dict) -> Dict:
    """Run one grid point; return ``{"result": ..., "wall": ...}``.

    The ``result`` dict is deterministic (see module docstring): config
    echo, operation counts, sorted per-operation latencies, latency
    extremes/means, the linearizability verdict, and the engine's
    deterministic summary (steps, events, metrics snapshot).
    """
    _apply_chaos(point)
    config = point["config"]
    run_params = point["run"]
    # wall-time measurement around the run; reported as volatile
    # metadata, never part of the deterministic result
    start = time.perf_counter()
    spec = _build_system(config, run_params)
    metrics = MetricsRegistry()
    run = run_register_experiment(
        spec, float(run_params["horizon"]), max_steps=MAX_STEPS,
        metrics=metrics,
    )
    wall = time.perf_counter() - start
    linearizable = run.linearizable()
    result = {
        "key": point_key(config),
        "config": dict(config),
        "run": dict(run_params),
        "operations": len(run.operations),
        "reads": len(run.reads),
        "writes": len(run.writes),
        "read_latencies": sorted(op.latency for op in run.reads),
        "write_latencies": sorted(op.latency for op in run.writes),
        "max_read_latency": run.max_read_latency(),
        "max_write_latency": run.max_write_latency(),
        "mean_read_latency": run.mean_read_latency(),
        "mean_write_latency": run.mean_write_latency(),
        "linearizable": linearizable,
        "violations": 0 if linearizable else 1,
        "engine": run.result.summary(),
    }
    return {"result": result, "wall": wall}
