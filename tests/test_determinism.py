"""Reproducibility: identical configurations yield identical traces.

Every source of nondeterminism in the simulator is seeded (schedulers,
delay models, clock drivers, workloads, step policies), so two runs of
the same configuration must produce byte-identical event sequences —
the property that makes archived traces and regression comparisons
meaningful.
"""

import json

import pytest

from repro.registers.system import (
    baseline_register_system,
    clock_register_system,
    run_register_experiment,
    timed_register_system,
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
            return timed_register_system(
                n=3, d1_prime=0.2, d2_prime=1.0, c=0.3,
                workload=RegisterWorkload(operations=5, seed=4),
                delay_model=UniformDelay(seed=4),
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
            return baseline_register_system(
                n=3, d1=0.2, d2=1.0, eps=0.1,
                workload=RegisterWorkload(operations=4, seed=6),
                drivers=driver_factory("mixed", 0.1, seed=6),
                delay_model=UniformDelay(seed=6),
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


class TestLintDeterminism:
    """The static analyzer is itself subject to the reproducibility bar.

    CI compares lint JSON byte-for-byte, so two runs over the same tree
    must serialize identically — no set-ordered walks, no timestamps,
    no hash-seed-dependent output.
    """

    def test_lint_json_is_byte_identical_across_runs(self):
        import os

        from repro.lint import render_json, run_lint

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        reports = [
            render_json(run_lint([src], root=root)) for _ in range(2)
        ]
        assert reports[0] == reports[1]
