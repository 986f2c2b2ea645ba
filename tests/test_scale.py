"""Scale tests: the full stack at larger node counts.

Complete-graph register systems grow as O(n^2) channels; these tests
pin down that correctness and the latency bounds survive at sizes well
beyond the 3-node default, and that the engine handles thousand-event
runs comfortably.
"""

import pytest

from repro.core.pipeline import Clock
from repro.automata.actions import Action
from repro.broadcast import build_flood_system, deliveries
from repro.broadcast.flood import _distances, diameter
from repro.network.topology import Topology
from repro.registers.system import (
    clock_register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import UniformDelay
from repro.sim.scheduler import RandomScheduler


class TestRegisterScale:
    @pytest.mark.parametrize("n", [8, 12])
    def test_clock_register_at_scale(self, n):
        eps, c, d2 = 0.1, 0.3, 1.0
        workload = RegisterWorkload(operations=3, read_fraction=0.5, seed=1)
        spec = clock_register_system(
            n=n, d1=0.2, d2=d2, c=c, eps=eps, workload=workload,
            drivers=driver_factory("mixed", eps, seed=1),
            delay_model=UniformDelay(seed=1),
        )
        run = run_register_experiment(
            spec, 70.0, scheduler=RandomScheduler(seed=1),
            max_steps=5_000_000,
        )
        assert len(run.operations) == 3 * n
        assert run.linearizable()
        assert run.max_read_latency() <= (2 * eps + 0.01 + c) + 2 * eps + 1e-9
        assert run.max_write_latency() <= (d2 + 2 * eps - c) + 2 * eps + 1e-9

    def test_channel_count_quadratic(self):
        n = 8
        workload = RegisterWorkload(operations=1, seed=2)
        spec = clock_register_system(
            n=n, d1=0.2, d2=1.0, c=0.3, eps=0.1, workload=workload,
            drivers=driver_factory("perfect", 0.1),
        )
        channels = [e for e in spec.entities if e.name.startswith("chan[")]
        assert len(channels) == n * n  # complete with self-loops


class TestBroadcastScale:
    def test_flood_on_large_ring(self):
        n = 20
        topology = Topology.ring(n)
        eps = 0.05
        spec = build_flood_system(
            Clock(eps, driver_factory("mixed", eps, seed=3)), topology, 0.1,
            0.5, delay_model=UniformDelay(seed=3),
        )
        horizon = 2.0 + diameter(topology) * (0.5 + 2 * eps)
        result = spec.simulator().run(
            horizon,
            initial_inputs=[(Action("BCAST", (0, ("m", 1))), 1.0)],
        )
        delivered = deliveries(result.trace)
        assert len(delivered) == n
        dist = _distances(topology, 0)
        for (node, _), stamp in deliveries(result.clock_trace()).items():
            assert stamp <= 1.0 + eps + dist[node] * (0.5 + 2 * eps) + 1e-9
