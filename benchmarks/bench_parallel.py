"""BENCH_parallel: sharded windowed execution vs the serial engine.

Times the same seeded pinger-pair systems under the serial incremental
engine and under ``Simulator.run(..., shards=k)`` for k ∈ {1, 2, 4},
across system sizes n ∈ {128, 512, 1024} and the timed and clock
pipelines. Every pair gets a *unique dyadic* ping interval
(``0.5 + j * 2^-13``), so the global timeline is dense — each real
instant wakes only a few entities, which is exactly the regime where any
O(system) work per time advance dominates. Dyadic intervals keep
cross-pair deadlines either exactly equal or separated by ≫ the engine
tolerance, so the sharded trace-merge sees the same float instants the
serial engine does.

For every (pipeline, n, shards) cell the benchmark asserts the sharded
run's merged recorder trace is byte-identical to the serial engine's —
the correctness bar of ``repro.sim.sharded`` (the conservative window
math is only an optimization while it reproduces the serial schedule
exactly).

Two numbers are read off the grid (see ``docs/performance.md``):

- the **serial column as a function of n**. Clock nodes under the
  granularity-free ``skewed`` drivers are evaluated lazily, so a time
  advance costs the serial engine nothing per node and steps/sec at
  n=1024 stays within 2x of n=128 — the ratio CI gates
  (``tools/validate_bench_parallel.py --require-flat 2.0``);
- the **sharded speedups**, which used to reach 5x on the clock pipeline
  only because each in-process shard swept a fraction of the nodes per
  advance. With the sweep gone they sit near 1x on both pipelines; the
  grid records that.

Every cell is the fastest of ``REPEATS`` runs: one run of a few tenths
of a second varies by ±25% on a shared two-core box, more than the
ratio being gated.

Writes ``BENCH_parallel.json`` (repo root by default)::

    {"format": "repro-bench-parallel", "version": 1, "quick": false,
     "results": [{"pipeline": "clock", "n": 128, "steps": ...,
                  "serial": {"steps_per_sec": ..., "wall_s": ...},
                  "sharded": {"1": {"steps_per_sec": ..., "wall_s": ...,
                                    "speedup": ...}, "2": {...}, "4": {...}},
                  "best_speedup": ..., "best_shards": 4,
                  "traces_identical": true}, ...]}

``steps_per_sec`` is machine-dependent; ratios within one file (serial
at the smallest n over serial at the largest, sharded over serial) are
the portable numbers (``tools/validate_bench_parallel.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick] [--out PATH]
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
from repro.core.pipeline import build_clock_system, build_timed_system
from repro.sim.clock_drivers import driver_factory
from repro.sim.engine import Simulator
from repro.sim.recorder import Recorder

DEFAULT_OUT = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_parallel.json"
)

SIZES = (128, 512, 1024)
QUICK_SIZES = (128,)
SHARD_COUNTS = (1, 2, 4)
PIPELINES = ("timed", "clock")
REPEATS = 3

D1, D2 = 0.2, 0.6
EPS = 0.05
BASE_INTERVAL = 0.5
INTERVAL_STEP = 2.0 ** -13  # dyadic: exact products, no tolerance collisions
MAX_INTERVAL = BASE_INTERVAL + 511 * INTERVAL_STEP


def _pair_processes(count):
    def make(i):
        if i % 2 == 0:
            j = i // 2
            interval = BASE_INTERVAL + (j % 512) * INTERVAL_STEP
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
    """n/2 independent pinger pairs, each on its own dyadic interval."""
    count = 4 if quick else 8
    topo = _pair_topology(n)
    procs = _pair_processes(count)
    if pipeline == "timed":
        spec = build_timed_system(topo, procs, D1, D2)
    elif pipeline == "clock":
        # skewed drivers are granularity-free (constant offset): the
        # sharded-mode requirement, and what makes the nodes lazy
        spec = build_clock_system(
            topo, procs, EPS, D1, D2, driver_factory("skewed", EPS)
        )
    else:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    horizon = count * MAX_INTERVAL + 3.0 * D2
    return spec, horizon


def run_best(pipeline, n, quick, shards=None):
    """Fastest of ``REPEATS`` fresh runs; returns (wall, steps, events)."""
    runs = [
        run_once(*build_spec(pipeline, n, quick), shards=shards)
        for _ in range(REPEATS)
    ]
    return min(runs, key=lambda run: run[0])


def run_once(spec, horizon, shards=None):
    """One run; returns (wall seconds, steps, events)."""
    recorder = Recorder()
    sim = Simulator(spec.entities, hidden=spec.hidden, max_steps=10_000_000)
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = sim.run(horizon, recorder=recorder, shards=shards)
        wall = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return wall, result.steps, recorder.events


def measure(pipeline, n, quick):
    """Benchmark one (pipeline, n) row across all shard counts."""
    serial_wall, steps, serial_events = run_best(pipeline, n, quick)
    serial_rate = steps / serial_wall if serial_wall > 0 else 0.0
    row = {
        "pipeline": pipeline,
        "n": n,
        "steps": steps,
        "serial": {
            "wall_s": round(serial_wall, 6),
            "steps_per_sec": round(serial_rate, 1),
        },
        "sharded": {},
    }
    identical = True
    best_speedup, best_shards = 0.0, None
    for k in SHARD_COUNTS:
        wall, k_steps, events = run_best(pipeline, n, quick, shards=k)
        if events != serial_events:
            identical = False
        rate = k_steps / wall if wall > 0 else 0.0
        speedup = serial_wall / wall if wall > 0 else 0.0
        row["sharded"][str(k)] = {
            "wall_s": round(wall, 6),
            "steps_per_sec": round(rate, 1),
            "speedup": round(speedup, 3),
        }
        if speedup > best_speedup:
            best_speedup, best_shards = speedup, k
    row["best_speedup"] = round(best_speedup, 3)
    row["best_shards"] = best_shards
    row["traces_identical"] = identical
    return row


def run_grid(quick=False, sizes=None, pipelines=PIPELINES):
    sizes = sizes or (QUICK_SIZES if quick else SIZES)
    results = []
    for pipeline in pipelines:
        for n in sizes:
            record = measure(pipeline, n, quick)
            results.append(record)
            cells = "  ".join(
                f"k={k}:{record['sharded'][str(k)]['speedup']:.2f}x"
                for k in SHARD_COUNTS
            )
            print(
                f"{pipeline:6s} n={n:<5d} steps={record['steps']:<7d} "
                f"serial={record['serial']['steps_per_sec']:>9.1f}/s  "
                f"{cells}  identical={record['traces_identical']}"
            )
    return {
        "format": "repro-bench-parallel",
        "version": 1,
        "quick": bool(quick),
        "results": results,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny grid (n=128, fewer pings) for CI smoke",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    parser.add_argument(
        "--pipelines", default=",".join(PIPELINES),
        help="comma-separated subset of timed,clock",
    )
    parser.add_argument(
        "--sizes", default=None,
        help="comma-separated system sizes (default: the full/quick grid)",
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
