"""Compare two reports of ``run.py --out``: ``compare.py A.json B.json``.

``A`` is the baseline (the parent commit, or the first acceptance set),
``B`` the candidate. One row per (workload, metric):

- an **end-to-end** metric gets a verdict from the bound the benchmark
  fixed for it (``BENCHMARK.json``, copied into every report):
  ``regressed`` when B's median is worse than A's by more than the
  bound; otherwise ``unresolved`` when either side's run-to-run spread
  (distance between the quartiles over the median) is wider than the
  bound -- unless every run of B reads better than every run of A;
  otherwise ``within-bound``. Spread needs at least two runs a side
  (``run.py --seed 1,1,1`` or several seeds); with one it counts as 0.
- a **per-layer count** of a deterministic workload (``*_calls``,
  ``*.calls``, ``*_visited``, ``steps``, ``time_advances``, ``events``
  on ``sim_*`` and ``check_histories``) is compared exactly: ``equal``
  or ``differs``. Live counts depend on timers and are only shown.
- every other per-layer metric is shown with its change; it has no bound.
- ``fail_ratio`` may not rise.

The exit code is 1 when a metric regressed or a fail ratio rose. When
both reports were made from the same commit, a count that ``differs`` is
an error too (the same code must do the same work); between two commits
it is the expected trace of an optimisation and only reported.
"""

import json
import sys
from statistics import median, quantiles

EXACT_SUFFIXES = (
    "_calls", ".calls", "_visited", ".steps", ".time_advances", ".events",
)


def is_exact_count(workload, metric):
    """Whether the metric repeats exactly for one seed of this workload."""
    return not workload.startswith("live_") and metric.endswith(EXACT_SUFFIXES)


def spread(values):
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    first, _, third = quantiles(values, n=4)
    return (third - first) / abs(median(values))


def change(a, b):
    """``b`` relative to ``a``: +0.1 is ten percent more."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a)


def worsening(a, b, better):
    """By what share of ``a`` is ``b`` worse (negative: better)."""
    return change(a, b) if better == "lower" else -change(a, b)


def verdict(a_values, b_values, better, bound):
    """``regressed`` / ``unresolved`` / ``within-bound`` for one metric."""
    if worsening(median(a_values), median(b_values), better) > bound:
        return "regressed"
    if max(spread(a_values), spread(b_values)) > bound:
        if better == "lower":
            all_better = max(b_values) < min(a_values)
        else:
            all_better = min(b_values) > max(a_values)
        if not all_better:
            return "unresolved"
    return "within-bound"


def compare(a, b):
    """Rows ``(workload, metric, a, b, change, verdict)`` and error lines."""
    rows, errors = [], []
    same_code = (
        a["manifest"]["commit"] == b["manifest"]["commit"] != "unknown"
    )
    bounds = b["bounds"]
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for metric in sorted(set(wa["end_to_end"]) & set(wb["end_to_end"])):
            va = wa["end_to_end"][metric]["values"]
            vb = wb["end_to_end"][metric]["values"]
            declared = bounds[metric]
            result = verdict(va, vb, declared["better"], declared["bound"])
            rows.append((
                workload, metric, median(va), median(vb),
                change(median(va), median(vb)), result,
            ))
            if result == "regressed":
                errors.append(
                    f"{workload} {metric}: worse by more than "
                    f"{declared['bound']:.0%}"
                )
        for metric in sorted(set(wa["per_layer"]) & set(wb["per_layer"])):
            ma = wa["per_layer"][metric]["median"]
            mb = wb["per_layer"][metric]["median"]
            if ma == 0 and mb == 0:
                continue  # a layer this workload does not touch
            result = ""
            if is_exact_count(workload, metric):
                result = "equal" if ma == mb else "differs"
                if result == "differs" and same_code:
                    errors.append(
                        f"{workload} {metric}: {ma:g} != {mb:g} "
                        f"on the same commit"
                    )
            rows.append((workload, metric, ma, mb, change(ma, mb), result))
        rows.append((
            workload, "fail_ratio", wa["fail_ratio"], wb["fail_ratio"],
            wb["fail_ratio"] - wa["fail_ratio"],
            "rose" if wb["fail_ratio"] > wa["fail_ratio"] else "",
        ))
        if wb["fail_ratio"] > wa["fail_ratio"]:
            errors.append(
                f"{workload} fail_ratio rose from {wa['fail_ratio']:g} "
                f"to {wb['fail_ratio']:g}"
            )
    return rows, errors


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    rows, errors = compare(*reports)
    for workload, metric, a, b, delta, result in rows:
        print(
            f"{workload:20s} {metric:46s} {a:>14.6g} {b:>14.6g} "
            f"{delta:>+8.1%}  {result}"
        )
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
