"""End-to-end fault tolerance: the register over lossy channels, and
crash-stop completeness for the heartbeat detector (Section 7.3)."""

import pytest

from repro.chaos import FaultPlan, apply_plan, crash
from repro.core.pipeline import (
    Clock,
    build_clock_system,
    simulation1_delay_bounds,
)
from repro.detector import build_detector_system, detector_timeout
from repro.faults import (
    BernoulliFaults,
    BurstFaults,
    ReliableAdapter,
    effective_delay_bounds,
)
from repro.network.topology import Topology
from repro.registers.algorithm_s import AlgorithmSProcess
from repro.registers.system import INITIAL_VALUE, run_register_experiment
from repro.registers.workload import ClientEntity, RegisterWorkload
from repro.sim.clock_drivers import FastClockDriver, SlowClockDriver, driver_factory
from repro.sim.delay import MaximalDelay, UniformDelay
from repro.sim.scheduler import RandomScheduler


def lossy_register_spec(seed, fault_model, retx=0.5, max_drops=3,
                        n=3, d1=0.2, d2=1.0, eps=0.1, c=0.3):
    d1e, d2e = effective_delay_bounds(d1, d2, retx, max_drops)
    _, d2p = simulation1_delay_bounds(d1e, d2e, eps)

    def processes(i):
        inner = AlgorithmSProcess(
            i, list(range(n)), d2p, c, eps, delta=0.01,
            initial_value=INITIAL_VALUE,
        )
        return ReliableAdapter(inner, retransmit_interval=retx)

    spec = build_clock_system(
        Topology.complete(n, True), processes, eps, d1, d2,
        driver_factory("mixed", eps, seed=seed), UniformDelay(seed=seed),
        fault_model=fault_model,
    )
    workload = RegisterWorkload(operations=4, read_fraction=0.5, seed=seed)
    return spec.add(*[ClientEntity(i, workload) for i in range(n)])


class TestRegisterOverLossyChannels:
    @pytest.mark.parametrize("seed", range(3))
    def test_linearizable_despite_loss_and_duplication(self, seed):
        faults = BernoulliFaults(
            seed=seed, p_drop=0.3, p_duplicate=0.15, max_consecutive_drops=3
        )
        spec = lossy_register_spec(seed, faults)
        run = run_register_experiment(
            spec, 120.0, scheduler=RandomScheduler(seed=seed),
            max_steps=3_000_000,
        )
        assert len(run.operations) >= 8
        assert run.linearizable()
        dropped = sum(
            state.dropped
            for name, state in run.result.final_states.items()
            if name.startswith("lossychan")
        )
        assert dropped > 0, "the fault model should actually drop messages"

    def test_latencies_respect_effective_bounds(self):
        retx, max_drops, eps, c, d2 = 0.5, 3, 0.1, 0.3, 1.0
        faults = BernoulliFaults(
            seed=9, p_drop=0.4, p_duplicate=0.1, max_consecutive_drops=max_drops
        )
        spec = lossy_register_spec(9, faults, retx=retx, max_drops=max_drops)
        run = run_register_experiment(
            spec, 120.0, scheduler=RandomScheduler(seed=9), max_steps=3_000_000
        )
        _, d2e = effective_delay_bounds(0.2, d2, retx, max_drops)
        write_bound = (d2e + 2 * eps - c) + 2 * eps
        read_bound = (2 * eps + 0.01 + c) + 2 * eps
        assert run.max_write_latency() <= write_bound + 1e-9
        assert run.max_read_latency() <= read_bound + 1e-9

    def test_burst_faults(self):
        faults = BurstFaults(good_duration=4.0, bad_duration=1.0,
                             max_consecutive_drops=3)
        spec = lossy_register_spec(4, faults)
        run = run_register_experiment(
            spec, 120.0, scheduler=RandomScheduler(seed=4), max_steps=3_000_000
        )
        assert run.linearizable()


class TestCrashStopDetector:
    def drivers(self, eps):
        return lambda i: SlowClockDriver(eps) if i == 0 else FastClockDriver(eps)

    def build(self, eps=0.15, d1=0.1, d2=1.0, crash_time=None):
        spec = build_detector_system(
            Clock(eps, self.drivers(eps)), 2.0, detector_timeout(d2, eps), 8,
            d1, d2, delay_model=MaximalDelay(),
        )
        if crash_time is None:
            return spec
        # the sender (node 0) crashes for good: a crash with no recover
        return apply_plan(spec, FaultPlan.of([crash(0, crash_time)]))

    def test_accuracy_without_crash(self):
        result = self.build().run(30.0)
        assert not [e for e in result.trace if e.action.name == "SUSPECT"]

    def test_completeness_with_crash(self):
        eps, d2, period = 0.15, 1.0, 2.0
        crash_time = 7.0
        result = self.build(crash_time=crash_time).run(30.0)
        suspicions = [e for e in result.trace if e.action.name == "SUSPECT"]
        assert suspicions, "crashed sender must be suspected"
        first = suspicions[0].time
        # detection latency: at most one period + timeout + clock slack
        bound = crash_time + period + detector_timeout(d2, eps) + 2 * eps
        assert first <= bound + 1e-9
        # and never before the crash (accuracy preserved)
        assert first >= crash_time - 1e-9

    def test_crashed_sender_stops_beating(self):
        result = self.build(crash_time=7.0).run(30.0)
        beats = [e for e in result.trace if e.action.name == "BEAT"]
        assert all(e.time <= 7.0 + 1e-9 for e in beats)
        assert 0 < len(beats) < 8

    def test_crash_at_zero_means_silence(self):
        result = self.build(crash_time=0.0).run(20.0)
        beats = [e for e in result.trace if e.action.name == "BEAT"]
        suspicions = [e for e in result.trace if e.action.name == "SUSPECT"]
        assert not beats
        assert suspicions
