#!/usr/bin/env python
"""Validate ``BENCH_parallel.json`` and gate the serial engine's flatness in n.

Usage::

    python tools/validate_bench_parallel.py BENCH_parallel.json
    python tools/validate_bench_parallel.py BENCH_parallel.json --require-flat 2.0

Checks, in order:

1. **Schema** — the file is a ``repro-bench-parallel`` document whose
   every result record carries pipeline/n/steps, a ``serial`` cell, a
   per-shard-count ``sharded`` map with ``steps_per_sec`` / ``wall_s`` /
   ``speedup``, a ``best_speedup``, and ``traces_identical``.
2. **Conformance** — ``traces_identical`` must be true in every cell:
   sharded execution is only valid while its merged trace is
   byte-for-byte the serial engine's.
3. **Flatness** (``--require-flat X``) — for every pipeline in the
   file, the serial engine's steps/sec at the smallest n may be at
   most ``X`` times its steps/sec at the largest n: per-step cost must
   not grow with the system. A ratio within one file, so it carries
   over from the machine that produced the checked-in baseline to CI
   hardware. (Sharded speedups are recorded but no longer gated: with
   lazy node clocks in-process shards sit near 1x, see
   ``docs/performance.md``.)

Exits 0 when all checks pass, 1 on failures (printed one per line),
2 on usage errors.
"""

import argparse
import json
import sys

REQUIRED_SHARD_KEYS = ("steps_per_sec", "wall_s", "speedup")


def load(path):
    try:
        with open(path) as handle:
            return json.load(handle), []
    except (OSError, ValueError) as exc:
        return None, [f"{path}: unreadable: {exc}"]


def check_schema(doc, path):
    problems = []
    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]
    if doc.get("format") != "repro-bench-parallel":
        problems.append(f"{path}: format must be 'repro-bench-parallel'")
    if not isinstance(doc.get("version"), int):
        problems.append(f"{path}: version must be an integer")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        return problems + [f"{path}: results must be a non-empty list"]
    for i, record in enumerate(results):
        where = f"{path}: results[{i}]"
        if not isinstance(record, dict):
            problems.append(f"{where}: must be an object")
            continue
        if not isinstance(record.get("pipeline"), str):
            problems.append(f"{where}: missing pipeline")
        if not isinstance(record.get("n"), int) or record.get("n", 0) <= 0:
            problems.append(f"{where}: n must be a positive integer")
        if not isinstance(record.get("steps"), int) or record.get("steps", 0) <= 0:
            problems.append(f"{where}: steps must be a positive integer")
        if not isinstance(record.get("traces_identical"), bool):
            problems.append(f"{where}: missing traces_identical")
        best = record.get("best_speedup")
        if not isinstance(best, (int, float)) or best <= 0:
            problems.append(f"{where}: best_speedup must be a positive number")
        serial = record.get("serial")
        if not isinstance(serial, dict):
            problems.append(f"{where}: missing serial object")
        else:
            for key in ("steps_per_sec", "wall_s"):
                value = serial.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: serial.{key} must be a non-negative number"
                    )
        sharded = record.get("sharded")
        if not isinstance(sharded, dict) or not sharded:
            problems.append(f"{where}: sharded must be a non-empty object")
            continue
        for shards, cell in sorted(sharded.items()):
            if not shards.isdigit() or int(shards) < 1:
                problems.append(
                    f"{where}: sharded key {shards!r} must be a positive "
                    f"integer string"
                )
            if not isinstance(cell, dict):
                problems.append(f"{where}: sharded[{shards}] must be an object")
                continue
            for key in REQUIRED_SHARD_KEYS:
                value = cell.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: sharded[{shards}].{key} must be a "
                        f"non-negative number"
                    )
    return problems


def check_conformance(doc, path):
    return [
        f"{path}: {r['pipeline']} n={r['n']}: sharded trace diverges from "
        f"the serial engine"
        for r in doc["results"]
        if r.get("traces_identical") is not True
    ]


def check_flatness(doc, path, limit):
    problems = []
    for pipeline in sorted({r["pipeline"] for r in doc["results"]}):
        rate_by_n = {
            r["n"]: r["serial"]["steps_per_sec"]
            for r in doc["results"]
            if r["pipeline"] == pipeline
        }
        if len(rate_by_n) < 2:
            problems.append(
                f"{path}: flatness needs {pipeline!r} results at two sizes "
                f"or more"
            )
            continue
        small, large = min(rate_by_n), max(rate_by_n)
        if rate_by_n[small] > limit * rate_by_n[large]:
            problems.append(
                f"{path}: serial {pipeline} steps/sec falls from "
                f"{rate_by_n[small]:.0f} at n={small} to "
                f"{rate_by_n[large]:.0f} at n={large}, more than the "
                f"allowed {limit:g}x"
            )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", help="BENCH_parallel.json to validate")
    parser.add_argument(
        "--require-flat", type=float, default=None,
        help="largest allowed ratio of serial steps/sec at the smallest n "
        "to the largest n, for every pipeline in the file",
    )
    args = parser.parse_args(argv)

    doc, problems = load(args.bench)
    if doc is not None:
        problems += check_schema(doc, args.bench)
    if not problems:
        problems += check_conformance(doc, args.bench)
        if args.require_flat is not None:
            problems += check_flatness(doc, args.bench, args.require_flat)
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print(f"{args.bench}: OK ({len(doc['results'])} cells)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
