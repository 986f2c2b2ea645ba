"""Conformance of the incremental engine core against the full scan.

``Simulator(..., incremental=True)`` (the default) runs the dirty-set /
routing-table / deadline-heap core; ``incremental=False`` re-derives
every entity's enabled set and deadline on every event, exactly as the
models' operational semantics read. The two must produce byte-identical
recorder event sequences on every seeded system in the corpus — any
divergence means an entity broke a scheduling promise declared on
:class:`repro.components.base.Entity` (``pure_enabled`` /
``static_deadline`` / ``wakes_at_deadline``).

Also the regression tests for the engine-loop bugs fixed alongside the
rework: ``stop_when`` after injection delivery, and ring-recorder event
totals.
"""

import pytest

from repro.automata.actions import (
    Action,
    ActionPattern,
    FiniteActionSet,
    PatternActionSet,
    PredicateActionSet,
)
from repro.automata.signature import Signature
from repro.chaos import (
    ClockPredicateMonitor,
    FaultPlan,
    MonitorTracer,
    apply_plan,
    conformance_corpus,
    crash,
    recover,
)
from repro.clocks.sources import DriftingClockSource
from repro.components.base import Entity
from repro.components.pinger import (
    EchoProcess,
    PingerProcess,
    pinger_process_factory,
    pinger_topology,
)
from repro.core.clock_transform import PassThroughMachine
from repro.core.pipeline import MMT, Clock, Design, Timed, lower
from repro.faults.models import BernoulliFaults
from repro.network.topology import Topology
from repro.registers.system import (
    clock_register_system,
    register_design,
    with_clients,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import UniformDelay
from repro.errors import SimulationLimitError
from repro.obs.trace import JsonlTracer, Tracer, read_trace
from repro.sim.engine import Simulator
from repro.sim.recorder import Recorder
from repro.sim.scheduler import (
    DeterministicScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)

from test_lazy_clocks import _chaos as chaos_pinger

HORIZON = 30.0


def _drifting(i):
    return DriftingClockSource(0.05, 1.004, 10.0)


def _pinger(lowering, pings=6, **faults):
    design = Design(
        pinger_topology(), pinger_process_factory(pings, 1.0), 0.2, 0.6
    )
    return lower(design, lowering, **faults)


def _pinger_timed():
    return _pinger(Timed())


def _pinger_clock():
    return _pinger(Clock(0.05, driver_factory("mixed", 0.05, seed=3)))


def _pinger_mmt():
    return _pinger(MMT(0.05, 0.1, _drifting))


def _pairs(lowering, n=32):
    """n/2 independent pinger/echo pairs, 6 pings each every 0.5.

    At every ping instant n/2 pingers are enabled together, so the
    scheduler picks among many simultaneous candidates and the routing
    table serves n keys.
    """
    topology = Topology(n, [
        edge for k in range(0, n, 2) for edge in ((k, k + 1), (k + 1, k))
    ])

    def make(i):
        if i % 2 == 0:
            return PingerProcess(i, i + 1, 6, 0.5)
        return EchoProcess(i, i - 1)

    return lower(Design(topology, make, 0.2, 0.6), lowering)


def _timed_register():
    design = register_design(Timed(), 3, 0.2, 1.0, 0.3, 0.0, "L")
    return with_clients(
        lower(design, Timed(), UniformDelay(seed=4)),
        RegisterWorkload(operations=5, seed=4),
    )


def _clock_register():
    return clock_register_system(
        n=3, d1=0.2, d2=1.0, c=0.3, eps=0.1,
        workload=RegisterWorkload(operations=5, seed=5),
        drivers=driver_factory("random", 0.1, seed=5),
        delay_model=UniformDelay(seed=5),
    )


def _baseline_register(operations=4, seed=6):
    native = Clock(
        0.1, driver_factory("mixed", 0.1, seed=6), machine=PassThroughMachine
    )
    design = register_design(native, 3, 0.2, 1.0, 0.3, 0.1, "slotted")
    return with_clients(
        lower(design, native, UniformDelay(seed=6)),
        RegisterWorkload(operations=operations, seed=seed),
    )


def _crashed_baseline_register():
    spec = _baseline_register(operations=10, seed=1)
    # node 1 is down for 0.3 > 2 * eps: its clock must jump back into
    # C_eps at the recovery, or its deadline maps to a passed real time
    return apply_plan(spec, FaultPlan.of([crash(1, 5.0), recover(1, 5.3)]))


def _crashed_pinger():
    spec = _pinger(Timed(), pings=8)
    # the echo (node 1) crashes for good: a crash with no recover
    return apply_plan(spec, FaultPlan.of([crash(1, 4.5)]))


def _lossy_pinger():
    return _pinger(
        Timed(), pings=8, fault_model=BernoulliFaults(seed=9, p_drop=0.3)
    )


CORPUS = [
    ("pinger-timed", _pinger_timed),
    ("pinger-clock", _pinger_clock),
    ("pinger-mmt", _pinger_mmt),
    ("pairs-timed", lambda: _pairs(Timed())),
    ("pairs-clock",
     lambda: _pairs(Clock(0.05, driver_factory("mixed", 0.05, seed=5)))),
    # every MMT node ticks until the horizon, so fewer pairs
    ("pairs-mmt", lambda: _pairs(MMT(0.05, 0.25, _drifting), n=16)),
    ("register-timed", _timed_register),
    ("register-clock", _clock_register),
    ("register-baseline", _baseline_register),
    ("register-baseline-crash", _crashed_baseline_register),
    ("crash", _crashed_pinger),
    ("lossy", _lossy_pinger),
]

SCHEDULERS = [
    ("deterministic", DeterministicScheduler),
    ("random", lambda: RandomScheduler(seed=7)),
    ("roundrobin", RoundRobinScheduler),
]


def _run(spec, incremental, scheduler, **kwargs):
    recorder = kwargs.pop("recorder", None)
    if recorder is None:  # an empty Recorder is falsy: test identity
        recorder = Recorder()
    sim = Simulator(
        spec.entities, scheduler=scheduler, hidden=spec.hidden,
        incremental=incremental,
    )
    result = sim.run(HORIZON, recorder=recorder, **kwargs)
    return recorder, result


class TestConformance:
    """incremental=True and incremental=False are trace-equivalent."""

    @pytest.mark.parametrize("label,build", CORPUS)
    @pytest.mark.parametrize("sched_label,make_scheduler", SCHEDULERS)
    def test_traces_identical(self, label, build, sched_label, make_scheduler):
        rec_inc, res_inc = _run(build(), True, make_scheduler())
        rec_full, res_full = _run(build(), False, make_scheduler())
        assert rec_inc.events == rec_full.events
        assert res_inc.steps == res_full.steps
        assert res_inc.now == res_full.now
        assert res_inc.stats == res_full.stats

    @pytest.mark.parametrize("incremental", [True, False])
    def test_recovered_native_node_stays_inside_the_envelope(self, incremental):
        monitors = MonitorTracer([ClockPredicateMonitor(eps=0.1)], None)
        _, result = _run(
            _crashed_baseline_register(), incremental,
            DeterministicScheduler(), tracer=monitors,
        )
        assert result.now == HORIZON
        assert monitors.violations == []

    def test_traces_identical_with_injections(self):
        injections = [
            (Action("NOP", (99,)), 0.5),
            (Action("NOP", (99,)), 3.25),
            (Action("NOP", (99,)), 3.25),
        ]
        runs = [
            _run(_pinger_timed(), incremental, DeterministicScheduler(),
                 initial_inputs=injections)
            for incremental in (True, False)
        ]
        assert runs[0][0].events == runs[1][0].events
        assert runs[0][1].stats["injections"] == 3

    @pytest.mark.parametrize("incremental", [True, False])
    def test_callers_capped_recorder_is_the_one_that_records(self, incremental):
        with pytest.raises(SimulationLimitError):
            _run(_pinger_timed(), incremental, DeterministicScheduler(),
                 recorder=Recorder(max_events=3))

    def test_max_steps_equivalent(self):
        spec = _pinger_timed()
        for incremental in (True, False):
            sim = Simulator(
                spec.entities, hidden=spec.hidden,
                max_steps=3, incremental=incremental,
            )
            with pytest.raises(SimulationLimitError):
                sim.run(HORIZON)


class TestStopWhenAfterInjection:
    """Regression: stop_when used to be checked only after fired actions,
    so an injection-only run could never early-stop."""

    def _injection_only_spec(self):
        # A system with no locally controlled actions at all: one echo
        # node that never gets pinged. Only injections generate events.
        return _pinger(Timed(), pings=0)

    @pytest.mark.parametrize("incremental", [True, False])
    def test_injection_only_run_stops(self, incremental):
        injections = [(Action("NOP", (99,)), float(t)) for t in (1, 2, 3, 4)]
        seen = []

        def stop(recorder, now):
            seen.append(now)
            return any(e.now >= 2.0 for e in recorder.events)

        spec = self._injection_only_spec()
        sim = Simulator(
            spec.entities, hidden=spec.hidden, incremental=incremental
        )
        result = sim.run(10.0, initial_inputs=injections, stop_when=stop)
        assert result.now == 2.0
        assert not result.completed()
        assert len(result.recorder) == 2  # injections at 1.0 and 2.0 only

    @pytest.mark.parametrize("incremental", [True, False])
    def test_stop_not_called_without_events(self, incremental):
        calls = []

        def stop(recorder, now):
            calls.append(now)
            return False

        spec = self._injection_only_spec()
        sim = Simulator(
            spec.entities, hidden=spec.hidden, incremental=incremental
        )
        result = sim.run(5.0, stop_when=stop)
        assert result.completed()
        assert calls == []  # no actions, no injections -> never consulted


class _CountingTracer(Tracer):
    def __init__(self):
        self.actions = 0
        self.injections = 0

    def action(self, now, owner, action, clock, visible):
        self.actions += 1

    def injection(self, now, action):
        self.injections += 1


class TestSinkContract:
    """Each core drives one sink: one call per fired action and per
    injection, the recorder first when a tracer is teed in."""

    INJECTIONS = [(Action("NOP", (99,)), 0.5), (Action("NOP", (99,)), 3.25)]

    @pytest.mark.parametrize("incremental", [True, False])
    def test_one_sink_call_per_step_and_injection(self, incremental):
        counting = _CountingTracer()
        recorder, result = _run(
            _pinger_timed(), incremental, DeterministicScheduler(),
            initial_inputs=self.INJECTIONS, tracer=counting,
        )
        assert counting.actions == result.steps > 0
        assert counting.injections == len(self.INJECTIONS)
        assert len(recorder) == result.steps + len(self.INJECTIONS)

    @pytest.mark.parametrize("incremental", [True, False])
    def test_overflow_raises_before_the_file_sees_the_event(
        self, incremental, tmp_path
    ):
        cap = 7
        path = tmp_path / "capped.jsonl"
        tracer = JsonlTracer(str(path))
        spec = _pinger_timed()
        sim = Simulator(spec.entities, hidden=spec.hidden, incremental=incremental)
        with pytest.raises(SimulationLimitError):
            sim.run(
                HORIZON, recorder=Recorder(max_events=cap), tracer=tracer,
                initial_inputs=self.INJECTIONS,
            )
        tracer.close()
        kinds = [r["k"] for r in read_trace(str(path))]
        assert "inject" in kinds
        assert sum(k in ("action", "inject") for k in kinds) == cap


class TestRingRecorderTotals:
    """Regression: summary()/gauges under-reported ring-mode totals."""

    def _ring_run(self):
        ring = Recorder(max_events=10, on_overflow="ring")
        spec = _pinger_timed()
        sim = Simulator(spec.entities, hidden=spec.hidden)
        result = sim.run(HORIZON, recorder=ring)
        return ring, result

    def test_summary_counts_dropped(self):
        ring, result = self._ring_run()
        assert ring.dropped > 0  # the premise: the ring actually wrapped
        summary = result.summary()
        assert summary["events"] == len(ring) + ring.dropped
        assert summary["events_retained"] == len(ring) == 10
        assert summary["events_dropped"] == ring.dropped

    def test_gauges_count_dropped(self):
        ring, result = self._ring_run()
        gauges = result.metrics["gauges"]
        total = float(len(ring) + ring.dropped)
        assert gauges["repro.recorder.events"] == total
        assert gauges["repro.recorder.events_total"] == total
        assert gauges["repro.recorder.events_retained"] == float(len(ring))
        assert gauges["repro.recorder.dropped"] == float(ring.dropped)

    def test_unbounded_recorder_unchanged(self):
        spec = _pinger_timed()
        sim = Simulator(spec.entities, hidden=spec.hidden)
        result = sim.run(HORIZON)
        summary = result.summary()
        assert summary["events"] == summary["events_retained"]
        assert summary["events_dropped"] == 0


class TestRoutingTable:
    """The routing prefilter must be a pure over-approximation."""

    def test_custom_accepts_still_probed(self):
        # An entity that overrides accepts() beyond its signature must
        # keep receiving every routed action (wildcard routing).
        received = []

        class Sniffer(Entity):
            def __init__(self):
                super().__init__("sniffer", Signature())

            def accepts(self, action):
                return True

            def initial_state(self):
                return None

            def apply_input(self, state, action, now):
                received.append(action.name)

            def enabled(self, state, now):
                return []

        spec = _pinger_timed()
        sim = Simulator(
            spec.entities + [Sniffer()], hidden=spec.hidden, incremental=True
        )
        sim.run(5.0)
        assert "SENDMSG" in received
        assert "RECVMSG" in received

    def test_index_over_approximates_acceptance_in_index_order(self):
        # for every action fired on the corpus, the prefilter must hold
        # every true recipient, in strictly ascending composition order
        specs = [build() for _, build in CORPUS] + [
            chaos_pinger(plan)(driver_factory("perfect", 0.05))
            for plan in conformance_corpus()
        ]
        for spec in specs:
            recorder, _ = _run(spec, True, DeterministicScheduler())
            sim = Simulator(spec.entities, hidden=spec.hidden)
            actions = {event.action for event in recorder.events}
            assert actions
            for action in actions:
                routed = [info.index for info in sim._route_targets(action)]
                assert routed == sorted(set(routed))
                accepting = {
                    i for i, e in enumerate(spec.entities) if e.accepts(action)
                }
                assert accepting <= set(routed), action

    @pytest.mark.parametrize("action,expected", [
        # a wildcard, a finite-set and a predicate entity between two
        # exact-key ones
        (Action("X", (1,)),
         ["exact-a", "wildcard", "finite", "predicate", "exact-b"]),
        (Action("X", ()), ["no-params", "wildcard", "predicate"]),
        (Action("X", ([1, 2],)), ["wildcard", "unhashable", "predicate"]),
    ], ids=["exact", "zero-param", "unhashable"])
    def test_delivery_in_composition_order(self, action, expected):
        def entities(log):
            def sink(name, *prefix):
                return _Sink(
                    name, log, PatternActionSet([ActionPattern("X", prefix)])
                )

            return [
                _Emitter(action),
                # the only way to declare a zero-parameter key
                _Sink("no-params", log, FiniteActionSet([Action("X", ())])),
                sink("exact-a", 1),
                sink("wildcard"),
                sink("unhashable", [1, 2]),
                # offered the unhashable action too (same name), and its
                # membership test hashes what it is offered
                _Sink("finite", log, FiniteActionSet([Action("X", (1,))])),
                _Sink("predicate", log, PredicateActionSet(
                    lambda a: a.name == "X"
                )),
                sink("other", 2),
                sink("exact-b", 1),
            ]

        logs, traces = {}, {}
        for incremental in (True, False):
            log = logs[incremental] = []
            sim = Simulator(entities(log), incremental=incremental)
            traces[incremental] = sim.run(1.0).recorder.events
        assert traces[True] == traces[False] != []
        assert logs[True] == logs[False] == expected

    def test_unseen_keys_are_filled_without_scanning_entities(self):
        class NoScan(list):
            def __iter__(self):
                raise AssertionError("_route_targets iterated every entity")

        spec = _pinger_timed()
        sim = Simulator(spec.entities + [
            _Sink("sniffer", [], PredicateActionSet(lambda a: True)),
        ], hidden=spec.hidden)
        sim._infos = NoScan(sim._infos)
        for seen, action in enumerate((
            Action("RECVMSG", (1, 0, "ping")),
            Action("SENDMSG", (0, 1, "ping")),
            Action("NOP", ()),
            Action("RECVMSG", ([1], 0, "ping")),
        )):
            assert len(sim._route_table) == seen  # each one is a new key
            targets = sim._route_targets(action)
            assert targets[-1].name == "sniffer"
            assert sim._route_targets(action) is targets  # memoized


class _Emitter(Entity):
    """Fires one output action at time 0."""

    def __init__(self, action):
        super().__init__(
            "emitter", Signature(outputs=PatternActionSet([ActionPattern("X")]))
        )
        self.action = action

    def initial_state(self):
        return {"fired": False}

    def enabled(self, state, now):
        return [] if state["fired"] else [self.action]

    def fire(self, state, action, now):
        state["fired"] = True


class _Sink(Entity):
    """Logs its name whenever an input reaches it."""

    def __init__(self, name, log, inputs):
        super().__init__(name, Signature(inputs=inputs))
        self.log = log

    def initial_state(self):
        return None

    def apply_input(self, state, action, now):
        self.log.append(self.name)

    def enabled(self, state, now):
        return []
