"""Regenerate every experiment table at once.

Usage::

    python benchmarks/run_all.py [--workers N] [EXP_ID ...]

The only way to write ``benchmarks/results/``. With no experiment ids,
runs all experiments in DESIGN.md order, prints each table, and writes
two artifacts per experiment through
:func:`repro.experiments.write_result`: the rendered table as
``<EXP_ID>.txt`` and a machine-readable ``<EXP_ID>.json`` (config, table
rows, shapes). Both are functions of the code alone — wall times are
printed, not stored — so a second run leaves the tree unchanged, and
``tests/test_experiments.py`` fails when the committed files differ
from a fresh run. Exit status 1 lists every boolean shape that came out
``False``.

``--workers N`` runs the experiments on N worker processes via
:class:`repro.campaign.CampaignRunner`, which also contains a crashed
experiment and retries it once; the default runs them serially
in-process.
"""

from __future__ import annotations

import argparse
import os
import sys

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without an installed package
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), "..", "src")
    )

from repro.campaign import CampaignRunner  # noqa: E402
from repro.experiments import ALL_EXPERIMENTS, write_result  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*", metavar="EXP_ID",
                        help="experiment ids to run (default: all)")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (default: 1, serial)")
    args = parser.parse_args(argv)

    wanted = args.experiments or list(ALL_EXPERIMENTS)
    for exp_id in wanted:
        if exp_id not in ALL_EXPERIMENTS:
            print(f"unknown experiment {exp_id!r}; known: {list(ALL_EXPERIMENTS)}")
            return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)

    points = [
        {"index": index, "key": exp_id, "exp": exp_id}
        for index, exp_id in enumerate(wanted)
    ]
    runner = CampaignRunner(
        task="repro.experiments:run_experiment_task",
        workers=args.workers,
        retries=1,
        log=print,
    )
    outcomes = runner.run(points)

    failures = []
    for outcome in outcomes:
        exp_id = outcome.key
        if not outcome.ok:
            failures.append((exp_id, {"error": outcome.error}))
            print(f"{exp_id} FAILED: {outcome.error}\n")
            continue
        result = outcome.result
        print(write_result(result, RESULTS_DIR))
        print(f"({exp_id} finished in {outcome.wall:.1f}s)\n")
        bad = {
            key: value
            for key, value in result["shapes"].items()
            if isinstance(value, bool) and not value
        }
        if bad:
            failures.append((exp_id, bad))
    if failures:
        print("SHAPE FAILURES:")
        for exp_id, bad in failures:
            print(f"  {exp_id}: {bad}")
        return 1
    print(f"all {len(wanted)} experiments reproduced their expected shapes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
