"""Mutation tests: under-provisioned parameters must be caught.

These tests check that the correctness machinery has teeth: when a
design constant is set below what the analysis requires, the
linearizability checker reports real violations (rather than the suite
passing vacuously).
"""

import pytest

from repro.core.clock_transform import PassThroughMachine
from repro.core.pipeline import Clock, Design, lower
from repro.network.topology import Topology
from repro.registers.baseline import SlottedRegisterProcess
from repro.registers.system import INITIAL_VALUE, run_register_experiment
from repro.registers.workload import ClientEntity, RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import MaximalDelay, UniformDelay
from repro.sim.scheduler import RandomScheduler

N, D1, D2 = 3, 0.2, 1.0


def slotted_run(u, eps, seed, delay_model=None):
    """The slotted baseline with an explicit (possibly wrong) slot width."""
    peers = list(range(N))

    def factory(i):
        return SlottedRegisterProcess(i, peers, D2, u, initial_value=INITIAL_VALUE)

    spec = lower(
        Design(Topology.complete(N, True), factory, D1, D2),
        Clock(
            eps, driver_factory("mixed", eps, seed=seed),
            machine=PassThroughMachine,
        ),
        delay_model or UniformDelay(seed=seed),
    )
    workload = RegisterWorkload(operations=5, read_fraction=0.6, seed=seed,
                                think_min=0.05, think_max=0.6)
    spec = spec.add(*[ClientEntity(i, workload) for i in range(N)])
    return run_register_experiment(
        spec, 90.0, scheduler=RandomScheduler(seed=seed)
    )


class TestSlotWidthIsLoadBearing:
    def test_correct_slot_width_linearizable(self):
        eps = 0.15
        for seed in range(3):
            assert slotted_run(2 * eps, eps, seed).linearizable()

    def test_undersized_slots_violate_linearizability(self):
        """Slots a quarter of the required width (u = eps/2 instead of
        2*eps): late-arriving updates outrun the slot structure and
        runs fail. (At u = eps the algorithm's incidental margins still
        absorb the skew; the sharp requirement from the arrival-time
        analysis is u >= 2*eps, and u = eps/2 is comfortably beyond any
        hidden slack.)"""
        eps = 0.3
        violations = sum(
            1 for seed in range(12)
            if not slotted_run(eps / 2, eps, seed,
                               delay_model=MaximalDelay()).linearizable()
        )
        assert violations >= 2

    def test_oversized_slots_still_correct_just_slower(self):
        eps = 0.15
        generous = slotted_run(4 * eps, eps, 1)
        tight = slotted_run(2 * eps, eps, 1)
        assert generous.linearizable()
        assert generous.max_read_latency() > tight.max_read_latency()
