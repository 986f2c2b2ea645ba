"""One benchmark for simulate / serve / check, end to end and layer by layer.

Two ways to call it, from the root of a checkout:

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S --trace 0|1``
    One pass of one workload, as the benchmark driver calls it. Prints
    every metric with its unit and, as the last line of standard output,
    one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
    ``--trace 0`` measures the end-to-end metrics for about ``S``
    seconds; ``--trace 1`` is the traced pass with the per-layer ones.

``python3 benchmarks/suite/run.py [--seed S[,S...]] [--workload W] [--out FILE]``
    The whole suite: for every seed one untraced pass per workload,
    round-robin across the workloads, then one traced pass per workload.
    Prints every metric by name and unit and writes the manifest to
    ``--out``; two such files go into ``compare.py``.

Either way a pass runs in a subprocess of its own with a 4 GiB address
space limit and a wall timeout, so a workload that is killed or hangs
reports every attempt as failed, with the reason, instead of taking the
machine down. The exit code is non-zero when anything failed
verification. ``--smoke`` selects the tiny shapes the tests use and
``--update-golden`` rewrites ``golden.json`` for the default seed.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SOURCES = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
GOLDEN_JSON = os.path.join(SUITE_DIR, "golden.json")

DEFAULT_SEED = 1
ADDRESS_SPACE_LIMIT = 4 << 30
WALL_TIMEOUT_S = 170  # the driver allows 180


def _failure(reason):
    """The result of a pass that produced none: one attempt, failed."""
    return {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {},
        "facts": {}, "notes": [f"FAILED: {reason}"],
    }


def child_main(args):
    """Run one pass in this process and print its result as one line."""
    resource.setrlimit(
        resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT)
    )
    if hasattr(os, "sched_setaffinity"):
        # every workload is one thread; keep it on the last CPU it may
        # use, away from CPU 0 where interrupts and kernel threads land
        # (on the 2-core sandbox CPU 0 ran the same repetition 20% slower)
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, SOURCES)
    from workloads import END_TO_END, PER_LAYER, run_workload

    try:
        metrics, outcome = run_workload(
            args.workload, args.seed[0], args.seconds, bool(args.trace),
            args.smoke,
        )
    except MemoryError:
        print(json.dumps(_failure("out of memory under the 4 GiB limit")))
        return
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
        "facts": outcome.facts,
        "notes": outcome.notes,
    }))


def run_pass(workload, seed, seconds, traced, smoke, golden):
    """One pass in a guarded subprocess; always returns a result dict.

    ``golden`` maps fact names to their expected values; a default-seed
    pass is checked against it (``None`` skips the check).
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
    ] + (["--smoke"] if smoke else [])
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=WALL_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return _failure(f"no result within {WALL_TIMEOUT_S} s; killed")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        how = (
            f"killed by signal {-done.returncode}" if done.returncode < 0
            else f"exit code {done.returncode}"
        )
        tail = " | ".join(done.stderr.strip().splitlines()[-3:])
        return _failure(f"workload process ended with {how}: {tail}")
    result = json.loads(lines[-1])
    if golden is not None and seed == DEFAULT_SEED:
        mismatches = [
            f"FAILED: golden mismatch for {key}: expected {golden.get(key)!r}, "
            f"got {value!r} (run.py --update-golden after an intended change)"
            for key, value in sorted(result["facts"].items())
            if golden.get(key) != value
        ]
        result["attempted"] += len(result["facts"])
        result["failed"] += len(mismatches)
        result["notes"] += mismatches
        result["correct"] = result["failed"] == 0
    return result


def _print_pass(workload, result):
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{workload:20s} {name:46s} {shown} {metric['unit']}")
    print(
        f"{workload:20s} {'fail_ratio':46s} "
        f"{result['failed'] / result['attempted']:>16.6g} ratio "
        f"({result['failed']} failed of {result['attempted']} attempted)"
    )
    for note in result["notes"]:
        print(f"{workload:20s} {note}")


def _manifest(args):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=ROOT, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": commit,
        "seeds": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def suite_main(args, declared, golden):
    """Every selected workload, every seed; returns the exit code."""
    workloads = [args.workload] if args.workload else [
        w["name"] for w in declared["workloads"]
    ]
    report = {
        "format": "repro-bench-suite", "version": 1,
        "manifest": _manifest(args),
        "bounds": {m["name"]: m for m in declared["end_to_end"]},
        "workloads": {
            w: {"end_to_end": {}, "per_layer": {}, "attempted": 0,
                "failed": 0, "notes": [], "facts": {}}
            for w in workloads
        },
    }

    def fold(workload, result, kind):
        entry = report["workloads"][workload]
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        entry["notes"] += result["notes"]
        entry["facts"].update(result["facts"])
        for name, metric in result["metrics"].items():
            slot = entry[kind].setdefault(
                name, {"unit": metric["unit"], "values": []}
            )
            slot["values"].append(metric["value"])
        _print_pass(workload, result)

    # round-robin: a slow minute of the machine hits one run of every
    # workload, not every run of one
    for seed in args.seed:
        for workload in workloads:
            fold(workload, run_pass(workload, seed, args.seconds, False, args.smoke, golden), "end_to_end")
    for workload in workloads:
        fold(workload, run_pass(workload, args.seed[0], args.seconds, True, args.smoke, golden), "per_layer")

    for entry in report["workloads"].values():
        entry["fail_ratio"] = entry["failed"] / entry["attempted"]
        for kind in ("end_to_end", "per_layer"):
            for slot in entry[kind].values():
                slot["median"] = median(slot["values"])
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    failed = sum(e["failed"] for e in report["workloads"].values())
    if failed:
        print(f"ERROR: {failed} attempts failed verification", file=sys.stderr)
    return 1 if failed else 0


def update_golden(declared):
    """Record the default seed's exact facts, full and smoke shapes."""
    facts = {}
    for smoke in (False, True):
        for workload in (w["name"] for w in declared["workloads"]):
            # zero seconds is one repetition: facts do not need more
            result = run_pass(workload, DEFAULT_SEED, 0, False, smoke, None)
            _print_pass(workload, result)
            if not result["correct"]:
                print(f"ERROR: {workload} failed; golden.json not written", file=sys.stderr)
                return 1
            facts.update(result["facts"])
    with open(GOLDEN_JSON, "w") as handle:
        json.dump(facts, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_JSON} ({len(facts)} facts)")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument(
        "--seed", default=[DEFAULT_SEED],
        type=lambda text: [int(s) for s in text.split(",")],
        help="seed, or a comma-separated list: one untraced pass per seed",
    )
    parser.add_argument("--seconds", type=float, help="host seconds an untraced pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run one pass: 0 end to end, 1 traced")
    parser.add_argument("--out", help="write the suite's report here (JSON)")
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, as the tests use")
    parser.add_argument("--update-golden", action="store_true", help="rewrite golden.json")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"error: nothing to measure: {SOURCES}/repro is missing", file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as handle:
        declared = json.load(handle)
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds is None:
        args.seconds = 0 if args.smoke else declared["run_seconds"]

    if args.child:
        child_main(args)
        return 0
    if args.update_golden:
        return update_golden(declared)
    with open(GOLDEN_JSON) as handle:
        golden = json.load(handle)
    if args.trace is None:
        return suite_main(args, declared, golden)
    if args.workload is None or len(args.seed) != 1:
        parser.error("--trace runs one pass: give --workload and one --seed")
    result = run_pass(
        args.workload, args.seed[0], args.seconds, bool(args.trace),
        args.smoke, golden,
    )
    _print_pass(args.workload, result)
    print(json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
