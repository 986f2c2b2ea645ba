"""Reproducibility: identical configurations yield identical traces.

Every source of nondeterminism in the simulator is seeded (schedulers,
delay models, clock drivers, workloads, step policies), so two runs of
the same configuration must produce byte-identical event sequences —
the property that makes archived traces and regression comparisons
meaningful.
"""

import json
import os
import subprocess
import sys

import pytest

from helpers import register_spec
from repro.core.clock_transform import PassThroughMachine
from repro.core.pipeline import Clock, Timed
from repro.registers.system import (
    clock_register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import UniformDelay
from repro.sim.scheduler import RandomScheduler


def run_twice(build):
    results = []
    for _ in range(2):
        spec = build()
        run = run_register_experiment(
            spec, 60.0, scheduler=RandomScheduler(seed=3)
        )
        results.append(run)
    return results


class TestDeterminism:
    def test_timed_model_deterministic(self):
        def build():
            return register_spec(
                Timed(), n=3, d1=0.2, d2=1.0, c=0.3,
                workload=RegisterWorkload(operations=5, seed=4),
                algorithm="L", delay_model=UniformDelay(seed=4),
            )

        a, b = run_twice(build)
        assert a.result.recorder.events == b.result.recorder.events

    def test_clock_model_deterministic(self):
        def build():
            return clock_register_system(
                n=3, d1=0.2, d2=1.0, c=0.3, eps=0.1,
                workload=RegisterWorkload(operations=5, seed=5),
                drivers=driver_factory("random", 0.1, seed=5),
                delay_model=UniformDelay(seed=5),
            )

        a, b = run_twice(build)
        assert a.result.recorder.events == b.result.recorder.events

    def test_baseline_deterministic(self):
        def build():
            native = Clock(
                0.1, driver_factory("mixed", 0.1, seed=6),
                machine=PassThroughMachine,
            )
            return register_spec(
                native, n=3, d1=0.2, d2=1.0, c=0.0,
                workload=RegisterWorkload(operations=4, seed=6), eps=0.1,
                algorithm="slotted", delay_model=UniformDelay(seed=6),
            )

        a, b = run_twice(build)
        assert a.result.recorder.events == b.result.recorder.events

    def test_different_seeds_differ(self):
        def build(seed):
            return clock_register_system(
                n=3, d1=0.2, d2=1.0, c=0.3, eps=0.1,
                workload=RegisterWorkload(operations=5, seed=seed),
                drivers=driver_factory("random", 0.1, seed=seed),
                delay_model=UniformDelay(seed=seed),
            )

        a = run_register_experiment(build(1), 60.0, scheduler=RandomScheduler(seed=1))
        b = run_register_experiment(build(2), 60.0, scheduler=RandomScheduler(seed=2))
        assert a.result.recorder.events != b.result.recorder.events

    def test_latency_metrics_stable(self):
        def build():
            return clock_register_system(
                n=3, d1=0.2, d2=1.0, c=0.3, eps=0.1,
                workload=RegisterWorkload(operations=5, seed=7),
                drivers=driver_factory("mixed", 0.1, seed=7),
                delay_model=UniformDelay(seed=7),
            )

        a, b = run_twice(build)
        assert a.max_read_latency() == b.max_read_latency()
        assert a.max_write_latency() == b.max_write_latency()


#: One clock-register run, printed as its recorder events and JSONL trace.
_HASH_SEED_RUN = """
import io
from repro.obs.trace import JsonlTracer
from repro.registers.system import clock_register_system, run_register_experiment
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import UniformDelay
from repro.sim.scheduler import RandomScheduler

spec = clock_register_system(
    n=3, d1=0.2, d2=1.0, c=0.3, eps=0.1,
    workload=RegisterWorkload(operations=6, seed=8),
    drivers=driver_factory("mixed", 0.1, seed=8),
    delay_model=UniformDelay(seed=8),
)
trace = io.StringIO()
run = run_register_experiment(
    spec, 60.0, scheduler=RandomScheduler(seed=8), tracer=JsonlTracer(trace)
)
for e in run.result.recorder.events:
    print(repr((e.index, e.action, e.now, e.owner, e.clock, e.visible)))
print(trace.getvalue(), end="")
"""


class TestHashSeed:
    """A run's output does not depend on ``PYTHONHASHSEED``.

    Same-process double runs share one hash seed, so they cannot see an
    iteration over a set of strings (owner names, values) leaking into
    the output; two interpreters with different seeds can.
    """

    def run_with_hash_seed(self, seed):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_RUN],
            capture_output=True, text=True, env=env, check=True,
        )
        return proc.stdout

    def test_clock_register_run_is_hash_seed_independent(self):
        first, second = (self.run_with_hash_seed(s) for s in ("0", "1"))
        assert first.count("\n") > 100
        assert first == second


class TestLintDeterminism:
    """The static analyzer is itself subject to the reproducibility bar:
    two runs over the same tree must render identically — no set-ordered
    walks, no timestamps, no hash-seed-dependent output.
    """

    def test_lint_report_is_byte_identical_across_runs(self):
        from repro.lint import render_text, run_lint

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        reports = [
            render_text(run_lint([src], root=root), verbose=True)
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
