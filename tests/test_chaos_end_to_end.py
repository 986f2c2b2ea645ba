"""End-to-end chaos runs: the demo, attribution, shrinking, conformance."""

import pytest

from repro.chaos import (
    ChannelBoundMonitor,
    FaultPlan,
    apply_plan,
    conformance_check,
    conformance_corpus,
    crash,
    demo_builder,
    demo_monitors,
    demo_plan,
    drop_burst,
    heal,
    partition,
    recover,
    run_chaos,
    run_demo,
    shrink_chaos,
)
from repro.chaos.runner import DEMO_HORIZON
from repro.chaos.shrink import shrink_plan
from repro.errors import SpecificationError
from repro.obs.metrics import MetricsRegistry
from repro.registers.system import register_system
from repro.registers.workload import RegisterWorkload


class TestDemo:
    """The ISSUE's acceptance demo, as a regression test."""

    def test_clock_fault_causes_false_suspicion(self):
        outcome, _ = run_demo()
        assert outcome.violated
        kinds = {v.kind for v in outcome.violations}
        assert "clock_predicate" in kinds
        assert "heartbeat_accuracy" in kinds

    def test_first_violation_attributed_to_the_clock_fault(self):
        outcome, _ = run_demo()
        first = outcome.first_violation
        assert first.kind == "clock_predicate"
        assert first.event.kind == "clock_fault"
        assert first.event_index == 0

    def test_every_violation_attributed_to_the_real_fault(self):
        outcome, _ = run_demo()
        # the burst/crash/recover are red herrings after the last beat;
        # nothing should be pinned on them
        assert all(v.event.kind == "clock_fault" for v in outcome.violations)

    def test_shrinks_to_single_event_witness(self):
        outcome, shrunk = run_demo(shrink=True)
        assert outcome.violated
        assert len(shrunk.witness) == 1
        assert shrunk.witness.events[0].kind == "clock_fault"
        assert shrunk.original_size == 4
        assert shrunk.removed == 3

    def test_fault_free_run_is_clean(self):
        result = run_chaos(
            demo_builder, FaultPlan(name="empty"), DEMO_HORIZON,
            monitors_factory=demo_monitors,
        )
        assert not result.violated

    def test_conformance_across_engine_cores(self):
        assert conformance_check(
            demo_builder, demo_plan(), DEMO_HORIZON,
            monitors_factory=demo_monitors,
        )

    def test_deterministic(self):
        first, _ = run_demo()
        second, _ = run_demo()
        assert [v.describe() for v in first.violations] == [
            v.describe() for v in second.violations
        ]
        assert first.sim.steps == second.sim.steps

    def test_violations_counted_into_metrics(self):
        metrics = MetricsRegistry()
        outcome = run_chaos(
            demo_builder, demo_plan(), DEMO_HORIZON,
            monitors_factory=demo_monitors, metrics=metrics,
        )
        assert metrics.counter("repro.chaos.violations").value == len(
            outcome.violations
        )


class TestOtherFaultKinds:
    def test_crash_window_silences_beats_and_is_suspected(self):
        # sender down across beats 2..4 of 8: true positives, not
        # accuracy violations
        plan = FaultPlan.of([crash(0, 3.0), recover(0, 9.0)], name="crash")
        outcome = run_chaos(
            demo_builder, plan, DEMO_HORIZON, monitors_factory=demo_monitors,
        )
        assert not any(
            v.kind == "heartbeat_accuracy" for v in outcome.violations
        )
        suspects = [
            e for e in outcome.sim.recorder.events
            if e.action.name == "SUSPECT"
        ]
        assert suspects  # the detector did its job

    def test_partition_starves_the_monitor(self):
        plan = FaultPlan.of(
            [partition([[0], [1]], 3.0), heal(9.0)], name="partition"
        )
        outcome = run_chaos(
            demo_builder, plan, DEMO_HORIZON, monitors_factory=demo_monitors,
        )
        accuracy = [
            v for v in outcome.violations if v.kind == "heartbeat_accuracy"
        ]
        assert accuracy  # suspected a live (but unreachable) sender
        assert all(v.event.kind == "partition" for v in accuracy)

    def test_drop_burst_only_cuts_its_edge(self):
        plan = FaultPlan.of([drop_burst((0, 1), 3.0, 9.0)], name="burst")
        outcome = run_chaos(
            demo_builder, plan, DEMO_HORIZON, monitors_factory=demo_monitors,
        )
        accuracy = [
            v for v in outcome.violations if v.kind == "heartbeat_accuracy"
        ]
        assert accuracy
        assert all(v.event.kind == "drop_burst" for v in accuracy)

    def test_plan_targeting_unknown_node_rejected(self):
        plan = FaultPlan.of([crash(7, 1.0)])
        with pytest.raises(SpecificationError):
            apply_plan(demo_builder(), plan)


class TestArqChannelBound:
    """The simulator twin of the live drop-burst lateness test."""

    def test_drop_burst_lateness_from_first_attempt(self):
        # node 0 writes at t = 0; its DATA frame to node 1 is dropped
        # until the burst ends and a retransmission (every 0.5) lands
        d1, d2, burst_end = 0.1, 1.0, 1.2

        def build():
            return register_system(
                "clock", n=2, d1=d1, d2=d2, c=0.0, eps=0.1,
                workload=RegisterWorkload(
                    operations=1, read_fraction=0.0, seed=0
                ),
                driver="perfect", step_bound=None, p_drop=0.0, max_drops=3,
            )

        plan = FaultPlan.of([drop_burst((0, 1), 0.0, burst_end)], name="burst")
        outcome = run_chaos(
            build, plan, 10.0, monitors=[ChannelBoundMonitor(d1, d2)]
        )
        (violation,) = outcome.violations
        assert violation.kind == "channel_bound"
        assert violation.edge == (0, 1)
        assert violation.event.kind == "drop_burst"
        assert violation.event_index == 0
        # delivered after the burst by a copy that departed after it, yet
        # measured from the first attempt at t = 0
        assert violation.time >= burst_end
        assert f"delivery delay {violation.time:g} outside" in violation.detail


class TestConformanceCorpus:
    """Every apply_plan lowering path, trace-identical across both cores.

    The incremental core only re-probes entities it believes are dirty;
    a lowering path that changed an entity's behavior without marking it
    (a partition healing, a clock-fault window exiting, a drop burst
    ending) would diverge from the full-scan core here.
    """

    def test_corpus_covers_every_lowering_path(self):
        corpus = conformance_corpus()
        kinds = {e.kind for p in corpus for e in p.events}
        assert kinds == {
            "crash", "recover", "partition", "heal", "clock_fault",
            "drop_burst",
        }

    def test_corpus_windows_close_while_traffic_is_live(self):
        # the beat stream ends at count * period = 16; a window that
        # only closes after that would never exercise the exit boundary
        last_beat = 16.0
        for plan in conformance_corpus():
            if plan.name == "demo":
                continue  # its red herrings are post-traffic by design
            compiled = plan.compile()
            closes = [w.end for w in compiled.drop_windows]
            closes += [
                w.end
                for windows in compiled.clock_windows.values()
                for w in windows
            ]
            closes += [
                end
                for schedule in compiled.recovery.values()
                for _, end in schedule.windows
            ]
            assert closes, f"{plan.name}: no fault windows at all"
            assert all(end < last_beat for end in closes), plan.name

    @pytest.mark.parametrize(
        "plan", conformance_corpus(), ids=lambda p: p.name
    )
    def test_engine_cores_agree(self, plan):
        assert conformance_check(
            demo_builder, plan, DEMO_HORIZON,
            monitors_factory=demo_monitors,
        )

    def test_corpus_names_are_unique(self):
        names = [p.name for p in conformance_corpus()]
        assert len(names) == len(set(names))


class TestShrinker:
    def test_non_violating_plan_refuses_to_shrink(self):
        with pytest.raises(SpecificationError):
            shrink_chaos(
                demo_builder, FaultPlan.of([crash(0, 19.5)]), DEMO_HORIZON,
                demo_monitors,
            )

    def test_ddmin_with_synthetic_oracle(self):
        # events 1 and 3 are jointly necessary; ddmin must keep exactly
        # those two regardless of the seven decoys
        events = [crash(0, float(t)) for t in range(1, 9)]
        needed = {events[1], events[3]}

        def oracle(plan):
            return needed.issubset(set(plan.events))

        result = shrink_plan(FaultPlan.of(events), oracle)
        assert set(result.witness.events) == needed
        assert result.removed == 6

    def test_witness_is_one_minimal(self):
        outcome, shrunk = run_demo(shrink=True)
        del outcome
        # removing the single remaining event yields an empty candidate,
        # which ddmin never accepts — 1-minimality is structural here;
        # re-check the witness itself still violates
        rerun = run_chaos(
            demo_builder, shrunk.witness, DEMO_HORIZON,
            monitors_factory=demo_monitors,
        )
        assert rerun.violated
