"""Lazy node clocks are the eager node clocks, evaluated less often.

A clock node under a ``granularity_free`` driver whose process only
wakes at a static deadline is not advanced by the engine: it steps its
clock when it is next asked something (``repro.core.clock_transform``).
The same systems run here once under the stock drivers (lazy) and once
under test-local subclasses whose only difference is
``granularity_free = False`` (stepped at every time advance, as every
clock node was before), on both engine cores: the recorder streams must
be byte-identical and every node's clock must read the same at the
horizon.

One corner is outside the equivalence — a clock deadline at or below a
positive start offset ``beta``, before the node's first step
(``docs/performance.md`` § Lazy node clocks) — and is pinned at the end
of this file on the system that contains it, experiment ABL4's.
"""

import pytest

from repro.chaos import apply_plan, conformance_corpus
from repro.components.pinger import (
    EchoProcess,
    PingerProcess,
    pinger_process_factory,
    pinger_topology,
)
from repro.core.clock_transform import ClockNodeEntity, PassThroughMachine
from repro.core.pipeline import build_clock_system, build_native_clock_system
from repro.network.topology import Topology
from repro.registers.opstream import OpSchedule
from repro.registers.system import clock_register_system
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import (
    DriftingClockDriver,
    PerfectClockDriver,
    SkewedClockDriver,
    driver_factory,
)
from repro.sim.delay import MaximalDelay, UniformDelay
from repro.sim.engine import Simulator
from repro.sim.recorder import Recorder
from repro.sim.scheduler import RandomScheduler

D1, D2, EPS = 0.2, 0.6, 0.05


def _pair_topology(n):
    edges = []
    for k in range(0, n, 2):
        edges.append((k, k + 1))
        edges.append((k + 1, k))
    return Topology(n, edges)


def _pair_processes(count=4, interval=0.5):
    def make(i):
        if i % 2 == 0:
            return PingerProcess(i, i + 1, count, interval)
        return EchoProcess(i, i - 1)

    return make


class SteppedSkewed(SkewedClockDriver):
    granularity_free = False


class SteppedPerfect(PerfectClockDriver):
    granularity_free = False


def _skewed(cls):
    """Offsets spread over the whole envelope, both edges included."""
    return lambda i: cls(EPS, EPS * ((i * 3) % 5 - 2) / 2.0)


DRIVERS = [
    ("skewed", _skewed(SkewedClockDriver), _skewed(SteppedSkewed)),
    ("perfect", lambda i: PerfectClockDriver(EPS), lambda i: SteppedPerfect(EPS)),
]


def _pairs(drivers):
    return build_clock_system(
        _pair_topology(8), _pair_processes(), EPS, D1, D2, drivers
    )


def _native_pairs(drivers):
    return build_native_clock_system(
        _pair_topology(8), _pair_processes(), EPS, D1, D2, drivers
    )


def _register(drivers):
    workload = RegisterWorkload(operations=4, seed=13)
    return clock_register_system(
        n=4, d1=D1, d2=1.0, c=0.3, eps=EPS, workload=workload,
        drivers=drivers, delay_model=UniformDelay(seed=13),
        schedules=[OpSchedule.generate(i, workload) for i in range(4)],
    )


def _chaos(plan):
    def build(drivers):
        spec = build_clock_system(
            pinger_topology(), pinger_process_factory(8, 2.0), EPS, 0.1, 1.0,
            drivers,
        )
        return apply_plan(spec, plan)

    return build


SYSTEMS = [
    ("pairs", _pairs, 6.0),
    ("native-pairs", _native_pairs, 6.0),
    ("register", _register, 12.0),
] + [
    (f"chaos-{plan.name}", _chaos(plan), 20.0) for plan in conformance_corpus()
]


def _run(spec, horizon, **kwargs):
    """``(recorder events, {node: clock at the horizon})``."""
    sim = Simulator(spec.entities, hidden=spec.hidden, **kwargs)
    result = sim.run(horizon, recorder=Recorder())
    assert result.completed()
    clocks = {
        node: entity.clock_value(result.final_states[entity.name], result.now)
        for node, entity in spec.node_entities.items()
    }
    return result.recorder.events, clocks


@pytest.mark.parametrize("name,build,horizon", SYSTEMS, ids=[s[0] for s in SYSTEMS])
@pytest.mark.parametrize("kind,lazy,stepped", DRIVERS, ids=[d[0] for d in DRIVERS])
def test_lazy_equals_eager(name, build, horizon, kind, lazy, stepped):
    nodes = build(lazy).node_entities.values()
    assert any(n.wakes_at_deadline for n in nodes) or name.startswith("chaos")
    assert not any(
        n.wakes_at_deadline for n in build(stepped).node_entities.values()
    )
    # a clock_fault wraps the driver: that node must fall back to stepping
    for node in nodes:
        if not getattr(node, "inner", node).driver.granularity_free:
            assert not node.wakes_at_deadline

    events, clocks = _run(build(lazy), horizon)
    assert events, name
    runs = {
        "lazy reference": _run(build(lazy), horizon, incremental=False),
        "stepped": _run(build(stepped), horizon),
        "stepped reference": _run(build(stepped), horizon, incremental=False),
    }
    for label, (other_events, other_clocks) in runs.items():
        assert other_events == events, (name, label)
        assert other_clocks == clocks, (name, label)


@pytest.mark.parametrize("build", [_pairs, _native_pairs, _register])
def test_engine_leaves_lazy_nodes_out_of_its_per_advance_sweeps(build):
    for cls, swept in ((SkewedClockDriver, False), (SteppedSkewed, True)):
        spec = build(_skewed(cls))
        sim = Simulator(spec.entities, hidden=spec.hidden)
        nodes = {
            info.index for info in sim._infos
            if info.entity in spec.node_entities.values()
        }
        assert len(nodes) == len(spec.node_entities)
        for sweep in (sim._advancing_idx, sim._dynamic_idx, sim._nonwake_idx):
            assert (nodes <= set(sweep)) if swept else not (nodes & set(sweep))


def test_recovery_leaves_the_evaluation_instant_at_the_jumped_clock():
    """``on_recover`` jumps the clock to the envelope edge *at* the
    recovery instant; a stale evaluation instant would step it again
    from the crash time at the first query after the recovery."""
    spec = build_clock_system(
        pinger_topology(), pinger_process_factory(8, 10.0), EPS, 0.1, 1.0,
        lambda i: SkewedClockDriver(EPS, EPS),
    )
    node = spec.node_entities[0]
    state = node.initial_state()
    assert node.clock_value(state, 1.0) == pytest.approx(1.0 + EPS)
    node.on_recover(state, 5.0)
    assert state.clock == pytest.approx(5.0 - EPS)
    assert node.clock_value(state, 5.0) == pytest.approx(5.0 - EPS)
    assert node.clock_value(state, 5.5) == pytest.approx(5.5 + EPS)


def test_native_recovery_jumps_the_clock_into_the_envelope():
    """A node running a process designed for the clock model recovers
    as every clock node does: its clock jumps to the envelope's lower
    edge at the recovery instant, so it never reads a clock outside
    ``C_eps`` after a downtime longer than ``2 * eps``."""
    node = ClockNodeEntity(
        PassThroughMachine(PingerProcess(0, 1, 8, 100.0)),
        DriftingClockDriver(EPS, 1.01),
    )
    state = node.initial_state()
    node.advance(state, 0.0, 1.0)
    assert state.clock == pytest.approx(1.01)
    node.on_recover(state, 5.0)
    assert state.clock == pytest.approx(5.0 - EPS)
    assert node.clock_value(state, 5.0) == pytest.approx(5.0 - EPS)
    node.advance(state, 5.0, 6.0)
    # one second of drift from the jumped value
    assert state.clock == pytest.approx(5.0 - EPS + 1.01)


# -- the start corner, on ABL4's own system -----------------------------------
# Node 0 runs FastClockDriver: C1 pins clock = 0 at now = 0 while the
# driver's trajectory starts at beta = +eps = 0.3. The first READ arrives
# at now = 0, so the node's first clock deadline is the read delay:
# c + delta for L, 2*eps + c + delta for S (delta = 0.01).

START_CORNER = (
    "a clock deadline <= beta before the node's first step: the full-scan "
    "reference fires the action earlier than the incremental loop "
    "(docs/performance.md, Lazy node clocks; ROADMAP item 9)"
)


@pytest.mark.parametrize("algorithm,c", [
    ("S", 0.0),   # 0.61 > beta
    ("L", 0.3),   # 0.31 > beta
    pytest.param("L", 0.0, marks=pytest.mark.xfail(
        strict=True, reason=START_CORNER)),   # 0.01 <= beta: ABL4's rows
    pytest.param("L", 0.28, marks=pytest.mark.xfail(
        strict=True, reason=START_CORNER)),   # 0.29 <= beta
])
def test_both_cores_record_the_same_stream_on_abl4(algorithm, c):
    eps = 0.3
    for seed in range(12):
        streams = []
        for incremental in (True, False):
            spec = clock_register_system(
                n=3, d1=0.1, d2=1.0, c=c, eps=eps, algorithm=algorithm,
                workload=RegisterWorkload(
                    operations=6, read_fraction=0.6, seed=seed,
                    think_min=0.05, think_max=0.6,
                ),
                drivers=driver_factory("mixed", eps, seed=seed),
                delay_model=MaximalDelay(),
            )
            sim = Simulator(
                spec.entities, scheduler=RandomScheduler(seed=seed),
                hidden=spec.hidden, incremental=incremental,
            )
            streams.append(sim.run(80.0, recorder=Recorder()).recorder.events)
        assert streams[0] == streams[1], (algorithm, c, seed)
