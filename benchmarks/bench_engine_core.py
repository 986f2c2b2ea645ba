"""BENCH_engine: incremental engine core vs the full-scan reference path.

Times the same seeded systems under ``Simulator(..., incremental=True)``
(dirty-set scheduling, routing table, deadline heap) and
``incremental=False`` (re-derive everything per event, the operational
semantics written down naively), across system sizes n ∈ {2, 8, 32, 128}
and all three model pipelines (timed / clock / MMT). Each system is
n/2 independent pinger/echo pairs, so event counts grow linearly with n
while the full scan's per-event cost grows with n too — the gap the
incremental core exists to close (target: ≥3x steps/sec at n=32).

For every cell the benchmark also asserts the two paths produce
byte-identical recorder traces — a conformance failure here means an
entity broke its declared scheduling contract (see
``docs/performance.md``).

Writes ``BENCH_engine.json`` (repo root by default)::

    {"format": "repro-bench-engine", "version": 1, "quick": false,
     "results": [{"pipeline": "timed", "n": 32, "steps": ...,
                  "incremental": {"steps_per_sec": ..., "wall_s": ...,
                                  "allocs_per_step": ...},
                  "full": {...}, "speedup": ..., "traces_identical": true},
                 ...]}

``steps_per_sec`` is machine-dependent; ``speedup`` (incremental over
full on the same machine, same process) is the portable number the CI
gate compares (``python -m repro validate --baseline``).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_core.py [--quick] [--out PATH]
"""

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.components.pinger import EchoProcess, PingerProcess
from repro.network.topology import Topology
from repro.clocks.sources import DriftingClockSource
from repro.core.pipeline import (
    build_clock_system,
    build_mmt_system,
    build_timed_system,
)
from repro.sim.clock_drivers import driver_factory
from repro.sim.engine import Simulator
from repro.sim.recorder import Recorder

DEFAULT_OUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_engine.json")

SIZES = (2, 8, 32, 128)
QUICK_SIZES = (2, 8)
PIPELINES = ("timed", "clock", "mmt")

D1, D2 = 0.2, 0.6
EPS = 0.05
STEP_BOUND = 0.25


def _pair_processes(count, interval):
    def make(i):
        if i % 2 == 0:
            return PingerProcess(i, i + 1, count, interval)
        return EchoProcess(i, i - 1)

    return make


def _pair_topology(n):
    edges = []
    for k in range(0, n, 2):
        edges.append((k, k + 1))
        edges.append((k + 1, k))
    return Topology(n, edges)


def build_spec(pipeline, n, quick):
    """A system of n/2 independent pinger pairs in the given model."""
    count = 6 if quick else 20
    interval = 0.5
    topo = _pair_topology(n)
    procs = _pair_processes(count, interval)
    if pipeline == "timed":
        spec = build_timed_system(topo, procs, D1, D2)
    elif pipeline == "clock":
        spec = build_clock_system(
            topo, procs, EPS, D1, D2, driver_factory("mixed", EPS, seed=5)
        )
    elif pipeline == "mmt":
        spec = build_mmt_system(
            topo, procs, EPS, D1, D2, STEP_BOUND,
            lambda i: DriftingClockSource(EPS, 1.004, 10.0),
        )
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    horizon = count * interval + 3.0 * D2
    return spec, horizon


def run_once(spec, horizon, incremental):
    """One run; returns (wall seconds, steps, allocated blocks, events)."""
    recorder = Recorder()
    sim = Simulator(
        spec.entities, hidden=spec.hidden, incremental=incremental,
        max_steps=10_000_000,
    )
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        blocks_before = sys.getallocatedblocks()
        start = time.perf_counter()
        result = sim.run(horizon, recorder=recorder)
        wall = time.perf_counter() - start
        blocks = sys.getallocatedblocks() - blocks_before
    finally:
        if gc_was_enabled:
            gc.enable()
    return wall, result.steps, blocks, recorder.events


def measure(pipeline, n, quick):
    """Benchmark one grid cell in both modes; returns the result record."""
    repeats = 1 if quick else 3
    cell = {}
    events_by_mode = {}
    for mode, incremental in (("incremental", True), ("full", False)):
        best_wall = float("inf")
        best_blocks = None
        steps = 0
        for _ in range(repeats):
            spec, horizon = build_spec(pipeline, n, quick)
            wall, steps, blocks, events = run_once(spec, horizon, incremental)
            if wall < best_wall:
                best_wall = wall
                best_blocks = blocks
            events_by_mode[mode] = events
        cell[mode] = {
            "wall_s": round(best_wall, 6),
            "steps_per_sec": round(steps / best_wall, 1) if best_wall > 0 else 0.0,
            "allocs_per_step": round(best_blocks / steps, 2) if steps else 0.0,
        }
        cell.setdefault("steps", steps)
    identical = events_by_mode["incremental"] == events_by_mode["full"]
    full_rate = cell["full"]["steps_per_sec"]
    speedup = cell["incremental"]["steps_per_sec"] / full_rate if full_rate else 0.0
    return {
        "pipeline": pipeline,
        "n": n,
        "steps": cell["steps"],
        "incremental": cell["incremental"],
        "full": cell["full"],
        "speedup": round(speedup, 3),
        "traces_identical": identical,
    }


def run_grid(quick=False, sizes=None, pipelines=PIPELINES):
    sizes = sizes or (QUICK_SIZES if quick else SIZES)
    results = []
    for pipeline in pipelines:
        for n in sizes:
            record = measure(pipeline, n, quick)
            results.append(record)
            print(
                f"{pipeline:6s} n={n:<4d} steps={record['steps']:<7d} "
                f"inc={record['incremental']['steps_per_sec']:>10.1f}/s  "
                f"full={record['full']['steps_per_sec']:>10.1f}/s  "
                f"speedup={record['speedup']:>6.2f}x  "
                f"identical={record['traces_identical']}"
            )
    return {
        "format": "repro-bench-engine",
        "version": 1,
        "quick": bool(quick),
        "results": results,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny grid (n in {2, 8}, fewer pings, single repeat) for CI smoke",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    parser.add_argument(
        "--pipelines", default=",".join(PIPELINES),
        help="comma-separated subset of timed,clock,mmt",
    )
    parser.add_argument(
        "--sizes", default=None,
        help="comma-separated system sizes (default: the full/quick grid); "
        "cells keep the full workload, so they stay comparable to the "
        "checked-in baseline at the same n",
    )
    args = parser.parse_args(argv)
    pipelines = tuple(p for p in args.pipelines.split(",") if p)
    sizes = (
        tuple(int(s) for s in args.sizes.split(",") if s) if args.sizes else None
    )
    payload = run_grid(quick=args.quick, sizes=sizes, pipelines=pipelines)
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")
    bad = [r for r in payload["results"] if not r["traces_identical"]]
    if bad:
        print(f"ERROR: {len(bad)} cell(s) with divergent traces", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
