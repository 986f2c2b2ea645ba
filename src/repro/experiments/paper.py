"""Experiment harnesses: one function per paper artifact.

Each ``exp_*`` function runs its sweep and returns a
:class:`~repro.analysis.report.Table` whose rows are the paper-vs-measured
comparison recorded in EXPERIMENTS.md, plus a dict of shapes ("who wins,
by roughly what factor, where the crossovers fall"). Every acceptance
condition of an experiment is a **boolean** shape; the table reproduced
iff all of them are ``True`` (:func:`repro.experiments.run_experiment`'s
``ok``). Non-boolean shapes are supporting figures the table does not
show.

``benchmarks/run_all.py`` regenerates every table (on N worker processes
with ``--workers N``) and ``tests/test_experiments.py`` holds the
committed ``benchmarks/results/`` to a fresh run, byte for byte — so an
experiment may read no wall clock.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.analysis.report import Table
from repro.automata.actions import ActionPattern, PatternActionSet
from repro.clocks.sources import OffsetClockSource
from repro.components.pinger import pinger_process_factory, pinger_topology
from repro.core.clock_transform import ClockNodeEntity
from repro.core.pipeline import (
    build_clock_system,
    build_mmt_system,
    build_timed_system,
    simulation1_delay_bounds,
    simulation2_shift_bound,
)
from repro.core.rate import smallest_k
from repro.registers.system import (
    baseline_register_system,
    clock_register_system,
    run_register_experiment,
    timed_register_system,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import (
    AlternatingExtremesDelay,
    MaximalDelay,
    MinimalDelay,
    UniformDelay,
)
from repro.sim.scheduler import RandomScheduler
from repro.traces.relations import equivalent_eps, max_time_displacement

PINGER_KAPPA = [PatternActionSet([ActionPattern("PING"), ActionPattern("GOTPONG")])]
DELTA = 0.01


# ---------------------------------------------------------------------------
# FIG1 — channel automaton conformance
# ---------------------------------------------------------------------------


def exp_fig1_channel() -> Tuple[Table, Dict]:
    """Figure 1: every message delivered exactly once within [d1, d2]."""
    table = Table(
        "FIG1: channel E_{ij,[d1,d2]} conformance (Figure 1)",
        ["d1", "d2", "delay model", "msgs", "min delay", "max delay", "in bounds"],
    )
    shapes = {"all_in_bounds": True, "all_delivered": True}
    configs = [(0.1, 0.1), (0.1, 1.0), (0.5, 2.0), (0.0, 0.3)]
    models = [
        ("uniform", lambda: UniformDelay(seed=7)),
        ("minimal", MinimalDelay),
        ("maximal", MaximalDelay),
        ("alternating", AlternatingExtremesDelay),
    ]
    for d1, d2 in configs:
        for label, make_model in models:
            spec = build_timed_system(
                pinger_topology(),
                pinger_process_factory(count=20, interval=max(2 * d2, 0.5)),
                d1,
                d2,
                make_model(),
            )
            result = spec.run(25 * max(2 * d2, 0.5))
            sends: Dict[object, float] = {}
            delays: List[float] = []
            for record in result.recorder.events:
                if record.action.name == "SENDMSG":
                    sends[record.action.params[2]] = record.now
                elif record.action.name == "RECVMSG":
                    delays.append(record.now - sends[record.action.params[2]])
            in_bounds = all(d1 - 1e-9 <= d <= d2 + 1e-9 for d in delays)
            shapes["all_in_bounds"] &= in_bounds
            shapes["all_delivered"] &= len(delays) == len(sends)
            table.add_row(
                d1, d2, label, len(delays),
                min(delays) if delays else 0.0,
                max(delays) if delays else 0.0,
                "yes" if in_bounds else "NO",
            )
    table.add_note("paper: nu is blocked past t + d2; delivery not before t + d1")
    return table, shapes


# ---------------------------------------------------------------------------
# FIG2 — send/receive buffers
# ---------------------------------------------------------------------------


def exp_fig2_buffers(d1: float = 0.2, d2: float = 1.0) -> Tuple[Table, Dict]:
    """Figure 2: buffering activates iff d1 < 2*eps; clock-time delays
    stay in [max(0, d1 - 2*eps), d2 + 2*eps] (Lemma 4.5)."""
    table = Table(
        "FIG2: Figure 2 buffers — clock-time delay bounds and buffering",
        [
            "eps", "2*eps", "buffering expected", "msgs held", "mean hold (clock)",
            "min clk delay", "max clk delay", "bound lo", "bound hi",
        ],
    )
    shapes = {"bounds_hold": True, "activation_matches": True}
    for eps in (0.01, 0.05, 0.1, 0.15, 0.3, 0.5):
        spec = build_clock_system(
            pinger_topology(),
            pinger_process_factory(count=15, interval=2.0),
            eps,
            d1,
            d2,
            drivers=driver_factory("mixed", eps, seed=3),
            delay_model=MinimalDelay(),
        )
        result = spec.run(40.0)
        lo, hi = simulation1_delay_bounds(d1, d2, eps)
        sends: Dict[object, float] = {}
        clock_delays: List[float] = []
        for record in result.recorder.events:
            if record.action.name == "ESENDMSG":
                message, stamp = record.action.params[2]
                sends[message] = stamp
            elif record.action.name == "RECVMSG" and record.clock is not None:
                clock_delays.append(record.clock - sends[record.action.params[2]])
        held = 0
        hold_total = 0.0
        for entity in spec.entities:
            if isinstance(entity, ClockNodeEntity):
                stats = entity.buffering_stats(result.final_states[entity.name])
                held += stats["messages_held"]
                hold_total += stats["total_hold_clock"]
        expected = d1 < 2 * eps
        observed = held > 0
        in_bounds = all(lo - 1e-9 <= d <= hi + 1e-9 for d in clock_delays)
        shapes["bounds_hold"] &= in_bounds
        # activation: buffering can only occur when d1 < 2*eps
        if observed and not expected:
            shapes["activation_matches"] = False
        table.add_row(
            eps, 2 * eps, "yes" if expected else "no", held,
            hold_total / held if held else 0.0,
            min(clock_delays) if clock_delays else 0.0,
            max(clock_delays) if clock_delays else 0.0,
            lo, hi,
        )
    table.add_note(
        "Section 7.2: when the minimum delay exceeds 2*eps, buffering is never needed"
    )
    return table, shapes


# ---------------------------------------------------------------------------
# FIG3 — algorithm S transition relation
# ---------------------------------------------------------------------------


def exp_fig3_algorithm_s() -> Tuple[Table, Dict]:
    """Figure 3: executions of S satisfy Q (superlinearizability)."""
    eps, d1p, d2p, c = 0.1, 0.2, 1.0, 0.3
    table = Table(
        "FIG3: algorithm S (Figure 3) executions solve Q (Lemma 6.2)",
        ["seed", "reads", "writes", "superlinearizable", "linearizable"],
    )
    shapes = {"all_super": True}
    for seed in range(6):
        workload = RegisterWorkload(operations=6, read_fraction=0.5, seed=seed)
        spec = timed_register_system(
            n=3, d1_prime=d1p, d2_prime=d2p, c=c, workload=workload,
            algorithm="S", eps=eps, delta=DELTA,
            delay_model=UniformDelay(seed=seed),
        )
        run = run_register_experiment(
            spec, 60.0, scheduler=RandomScheduler(seed=seed)
        )
        is_super = run.superlinearizable(eps)
        shapes["all_super"] &= is_super
        table.add_row(
            seed, len(run.reads), len(run.writes),
            "yes" if is_super else "NO",
            "yes" if run.linearizable() else "NO",
        )
    return table, shapes


# ---------------------------------------------------------------------------
# THM4.7 — Simulation 1
# ---------------------------------------------------------------------------


def exp_thm47(d1: float = 0.3, d2: float = 1.2) -> Tuple[Table, Dict]:
    """Theorem 4.7: t-trace(D_C) is =_eps to gamma, and gamma is in P."""
    table = Table(
        "THM4.7: Simulation 1 — D_C solves P_eps",
        [
            "eps", "driver", "events", "trace =_eps gamma",
            "gamma in design P", "max displacement", "<= eps",
        ],
    )
    shapes = {"all_equivalent": True, "all_in_p": True, "displacement_ok": True}
    for eps in (0.02, 0.1, 0.25):
        d1p, d2p = simulation1_delay_bounds(d1, d2, eps)
        for driver_kind in ("fast", "slow", "mixed", "random"):
            spec = build_clock_system(
                pinger_topology(),
                pinger_process_factory(count=6, interval=2.5),
                eps, d1, d2,
                drivers=driver_factory(driver_kind, eps, seed=11),
                delay_model=UniformDelay(seed=5),
            )
            result = spec.run(40.0, scheduler=RandomScheduler(seed=1))
            gamma = result.clock_trace()
            equivalent = equivalent_eps(result.trace, gamma, eps, PINGER_KAPPA)
            pings, in_p = {}, True
            for ev in gamma:
                if ev.action.name == "PING":
                    pings[ev.action.params[1]] = ev.time
                elif ev.action.name == "GOTPONG":
                    rtt = ev.time - pings[ev.action.params[1]]
                    in_p &= 2 * d1p - 1e-9 <= rtt <= 2 * d2p + 1e-9
            displacement = max_time_displacement(result.trace, gamma, PINGER_KAPPA)
            shapes["all_equivalent"] &= equivalent
            shapes["all_in_p"] &= in_p
            shapes["displacement_ok"] &= (
                displacement is not None and displacement <= eps + 1e-9
            )
            table.add_row(
                eps, driver_kind, len(result.recorder),
                "yes" if equivalent else "NO",
                "yes" if in_p else "NO",
                displacement if displacement is not None else -1.0,
                "yes" if displacement is not None and displacement <= eps + 1e-9 else "NO",
            )
    table.add_note("gamma: visible trace re-stamped with node clocks (Def 4.2)")
    return table, shapes


# ---------------------------------------------------------------------------
# THM5.1 — Simulation 2
# ---------------------------------------------------------------------------


def exp_thm51(eps: float = 0.05) -> Tuple[Table, Dict]:
    """Theorems 5.1/5.2: output shift <= k*l + 2*eps + 3*l."""
    from repro.components.mmt import LazyStepPolicy

    table = Table(
        "THM5.1: Simulation 2 — measured output shift vs bound k*l + 2*eps + 3*l",
        ["l (step bound)", "k (measured)", "shift bound", "max observed shift", "within"],
    )
    shapes = {"all_within": True}
    bounds = []
    for ell in (0.01, 0.05, 0.1, 0.2):
        spec = build_mmt_system(
            pinger_topology(),
            pinger_process_factory(count=6, interval=2.0),
            eps, d1=0.2, d2=1.0, step_bound=ell,
            sources=lambda i: OffsetClockSource(eps, eps if i == 0 else -eps),
            step_policy_factory=lambda i: LazyStepPolicy(),
            delay_model=UniformDelay(seed=2),
        )
        result = spec.run(25.0)
        # PING k is scheduled at clock 2k; its real emission may lag.
        shifts = []
        for record in result.recorder.events:
            if record.action.name == "PING":
                scheduled = 2.0 * record.action.params[1]
                shifts.append(record.now - (scheduled - eps))
        outputs = PatternActionSet(
            [ActionPattern("PING"), ActionPattern("GOTPONG"),
             ActionPattern("ESENDMSG", (0,))]
        )
        k = smallest_k(result.schedule, ell, outputs) or 4
        bound = simulation2_shift_bound(k, ell, eps)
        observed = max(shifts) if shifts else 0.0
        within = observed <= bound + 1e-9
        shapes["all_within"] &= within
        bounds.append(bound)
        table.add_row(ell, k, bound, observed, "yes" if within else "NO")
    shapes["bound_grows_with_l"] = bounds == sorted(bounds)
    table.add_note("lazy step policy: the adversary always waits the full l")
    return table, shapes


# ---------------------------------------------------------------------------
# LEM6.1 / LEM6.2 — algorithms L and S in the timed model
# ---------------------------------------------------------------------------


def exp_lem61(d1p: float = 0.2, d2p: float = 1.0) -> Tuple[Table, Dict]:
    """Lemma 6.1: L's read <= c + delta, write <= d2' - c."""
    table = Table(
        "LEM6.1: algorithm L latencies vs analytic bounds (timed model)",
        [
            "c", "read bound", "max read", "write bound", "max write",
            "within", "linearizable",
        ],
    )
    shapes = {"all_within": True, "all_linearizable": True}
    reads, writes = [], []
    for c in (0.0, 0.2, 0.4, 0.6, 0.8):
        workload = RegisterWorkload(operations=8, read_fraction=0.5, seed=4)
        spec = timed_register_system(
            n=3, d1_prime=d1p, d2_prime=d2p, c=c, workload=workload,
            algorithm="L", delta=DELTA, delay_model=UniformDelay(seed=4),
        )
        run = run_register_experiment(spec, 80.0, scheduler=RandomScheduler(seed=4))
        read_bound, write_bound = c + DELTA, d2p - c
        within = (
            run.max_read_latency() <= read_bound + 1e-9
            and run.max_write_latency() <= write_bound + 1e-9
        )
        linearizable = run.linearizable()
        shapes["all_within"] &= within
        shapes["all_linearizable"] &= linearizable
        reads.append(run.max_read_latency())
        writes.append(run.max_write_latency())
        table.add_row(
            c, read_bound, run.max_read_latency(), write_bound,
            run.max_write_latency(), "yes" if within else "NO",
            "yes" if linearizable else "NO",
        )
    # tradeoff shape: reads get slower, writes faster, as c grows
    shapes["reads_nondecreasing_in_c"] = reads == sorted(reads)
    shapes["writes_nonincreasing_in_c"] = writes == sorted(writes, reverse=True)
    table.add_note("c trades read latency against write latency (Section 6.1)")
    return table, shapes


def exp_lem62(d1p: float = 0.2, d2p: float = 1.0, c: float = 0.3) -> Tuple[Table, Dict]:
    """Lemma 6.2: S's read <= 2*eps + c + delta, write <= d2' - c; solves Q."""
    table = Table(
        "LEM6.2: algorithm S latencies and superlinearizability (timed model)",
        ["eps", "read bound", "max read", "write bound", "max write",
         "superlin", "within"],
    )
    shapes = {"all_within": True, "all_super": True}
    for eps in (0.0, 0.05, 0.1, 0.2):
        workload = RegisterWorkload(operations=8, read_fraction=0.5, seed=6)
        spec = timed_register_system(
            n=3, d1_prime=d1p, d2_prime=d2p, c=c, workload=workload,
            algorithm="S", eps=eps, delta=DELTA,
            delay_model=UniformDelay(seed=6),
        )
        run = run_register_experiment(spec, 80.0, scheduler=RandomScheduler(seed=6))
        read_bound, write_bound = 2 * eps + c + DELTA, d2p - c
        within = (
            run.max_read_latency() <= read_bound + 1e-9
            and run.max_write_latency() <= write_bound + 1e-9
        )
        is_super = run.superlinearizable(eps)
        shapes["all_within"] &= within
        shapes["all_super"] &= is_super
        table.add_row(
            eps, read_bound, run.max_read_latency(), write_bound,
            run.max_write_latency(), "yes" if is_super else "NO",
            "yes" if within else "NO",
        )
    return table, shapes


# ---------------------------------------------------------------------------
# THM6.5 — the transformed register in the clock model
# ---------------------------------------------------------------------------


def exp_thm65(d1: float = 0.2, d2: float = 1.0) -> Tuple[Table, Dict]:
    """Theorem 6.5: read <= 2*eps + delta + c, write <= d2 + 2*eps - c
    (clock time; +2*eps real-time stretch), plainly linearizable."""
    table = Table(
        "THM6.5: transformed S in the clock model",
        ["eps", "c", "driver", "read bound", "max read", "write bound",
         "max write", "linearizable"],
    )
    shapes = {"all_linearizable": True, "all_within": True}
    for eps in (0.05, 0.1, 0.2):
        for c in (0.1, 0.4):
            for driver_kind in ("mixed", "random"):
                workload = RegisterWorkload(operations=6, read_fraction=0.5, seed=8)
                spec = clock_register_system(
                    n=3, d1=d1, d2=d2, c=c, eps=eps, workload=workload,
                    drivers=driver_factory(driver_kind, eps, seed=8),
                    delta=DELTA, delay_model=UniformDelay(seed=8),
                )
                run = run_register_experiment(
                    spec, 80.0, scheduler=RandomScheduler(seed=8)
                )
                read_bound = (2 * eps + DELTA + c) + 2 * eps
                write_bound = (d2 + 2 * eps - c) + 2 * eps
                linearizable = run.linearizable()
                within = (
                    run.max_read_latency() <= read_bound + 1e-9
                    and run.max_write_latency() <= write_bound + 1e-9
                )
                shapes["all_linearizable"] &= linearizable
                shapes["all_within"] &= within
                table.add_row(
                    eps, c, driver_kind, read_bound, run.max_read_latency(),
                    write_bound, run.max_write_latency(),
                    "yes" if linearizable else "NO",
                )
    table.add_note(
        "bounds shown include the +2*eps real-time stretch of clock-time guarantees"
    )
    return table, shapes


# ---------------------------------------------------------------------------
# TAB6.3 — comparison against the [10]-style baseline
# ---------------------------------------------------------------------------


def exp_tab63(d1: float = 0.2, d2: float = 1.0) -> Tuple[Table, Dict]:
    """Section 6.3: ours (read c+u, write d2-c+u; combined d2+2u) vs
    [10]-style (read 4u, write d2+3u; combined d2+7u)."""
    table = Table(
        "TAB6.3: transformed S vs [10]-style time-sliced baseline",
        [
            "u=2*eps", "c", "ours read", "ours write", "ours comb",
            "base read", "base write", "base comb",
            "paper ours comb (d2+2u)", "paper base comb (d2+7u)", "ours wins",
        ],
    )
    shapes = {"ours_always_wins_combined": True, "gap_ratios": []}
    for eps in (0.05, 0.1, 0.15):
        u = 2 * eps
        c = u  # ours read = c + u = 2u: comfortably under the baseline's 4u
        workload = RegisterWorkload(operations=6, read_fraction=0.5, seed=9)
        ours_spec = clock_register_system(
            n=3, d1=d1, d2=d2, c=c, eps=eps, workload=workload,
            drivers=driver_factory("mixed", eps, seed=9),
            delta=DELTA, delay_model=UniformDelay(seed=9),
        )
        ours = run_register_experiment(
            ours_spec, 90.0, scheduler=RandomScheduler(seed=9)
        )
        workload_b = RegisterWorkload(operations=6, read_fraction=0.5, seed=9)
        base_spec = baseline_register_system(
            n=3, d1=d1, d2=d2, eps=eps, workload=workload_b,
            drivers=driver_factory("mixed", eps, seed=9),
            delay_model=UniformDelay(seed=9),
        )
        base = run_register_experiment(
            base_spec, 90.0, scheduler=RandomScheduler(seed=9)
        )
        ours_comb = ours.max_read_latency() + ours.max_write_latency()
        base_comb = base.max_read_latency() + base.max_write_latency()
        wins = ours_comb < base_comb
        shapes["ours_always_wins_combined"] &= wins
        shapes["gap_ratios"].append((base_comb - ours_comb) / u)
        table.add_row(
            u, c, ours.max_read_latency(), ours.max_write_latency(), ours_comb,
            base.max_read_latency(), base.max_write_latency(), base_comb,
            d2 + 2 * u, d2 + 7 * u, "yes" if wins else "NO",
        )
    # the paper's gap is 5u; the measured gap should be the same order
    # (workloads do not always realize worst cases simultaneously)
    shapes["gap_at_least_u"] = all(r >= 1.0 for r in shapes["gap_ratios"])
    table.add_note("paper predicts a combined-latency gap of 5u; both measured "
                   "systems are linearizable")
    return table, shapes


# ---------------------------------------------------------------------------
# ABL1 — delay placement ablation (Section 6.2 remark)
# ---------------------------------------------------------------------------


def exp_abl1(d1p: float = 0.2, d2p: float = 1.0, c: float = 0.3) -> Tuple[Table, Dict]:
    """Naive +2*eps on every op vs S's read-only delay."""
    table = Table(
        "ABL1: delay placement — S (read-only +2*eps) vs naive (+2*eps on all ops)",
        ["eps", "S write", "naive write", "write penalty", "S read", "naive read",
         "both superlin"],
    )
    shapes = {"penalty_tracks_two_eps": True, "all_super": True}
    for eps in (0.05, 0.1, 0.2):
        runs = {}
        for algorithm in ("S", "naive"):
            workload = RegisterWorkload(operations=8, read_fraction=0.5, seed=10)
            spec = timed_register_system(
                n=3, d1_prime=d1p, d2_prime=d2p, c=c, workload=workload,
                algorithm=algorithm, eps=eps, delta=DELTA,
                delay_model=UniformDelay(seed=10),
            )
            runs[algorithm] = run_register_experiment(
                spec, 80.0, scheduler=RandomScheduler(seed=10)
            )
        penalty = (
            runs["naive"].max_write_latency() - runs["S"].max_write_latency()
        )
        both_super = runs["S"].superlinearizable(eps) and runs[
            "naive"
        ].superlinearizable(eps)
        shapes["penalty_tracks_two_eps"] &= abs(penalty - 2 * eps) <= eps
        shapes["all_super"] &= both_super
        table.add_row(
            eps, runs["S"].max_write_latency(), runs["naive"].max_write_latency(),
            penalty, runs["S"].max_read_latency(), runs["naive"].max_read_latency(),
            "yes" if both_super else "NO",
        )
    table.add_note("judicious placement saves 2*eps on every write at no cost")
    return table, shapes


# ---------------------------------------------------------------------------
# ABL2 — buffering cost in practice (Section 7.2)
# ---------------------------------------------------------------------------


def exp_abl2(d2: float = 1.0) -> Tuple[Table, Dict]:
    """Fraction of messages buffered and mean hold time vs d1 / (2*eps)."""
    table = Table(
        "ABL2: buffering cost vs d1/(2*eps) (Section 7.2)",
        ["d1", "eps", "d1/(2*eps)", "msgs", "held", "frac held", "mean hold"],
    )
    shapes = {"no_holds_above_one": True, "holds_below_one": False}
    eps = 0.15
    for d1 in (0.0, 0.1, 0.2, 0.3, 0.45, 0.6):
        spec = build_clock_system(
            pinger_topology(),
            pinger_process_factory(count=15, interval=1.5),
            eps, d1, d2,
            drivers=driver_factory("mixed", eps, seed=12),
            delay_model=MinimalDelay(),
        )
        result = spec.run(30.0)
        held, hold_total, total = 0, 0.0, 0
        for entity in spec.entities:
            if isinstance(entity, ClockNodeEntity):
                stats = entity.buffering_stats(result.final_states[entity.name])
                held += stats["messages_held"]
                hold_total += stats["total_hold_clock"]
        total = result.recorder.count("ERECVMSG") or result.recorder.count("RECVMSG")
        ratio = d1 / (2 * eps) if eps else float("inf")
        if ratio >= 1.0 and held > 0:
            shapes["no_holds_above_one"] = False
        if ratio < 1.0 and held > 0:
            shapes["holds_below_one"] = True
        table.add_row(
            d1, eps, ratio, total, held,
            held / total if total else 0.0,
            hold_total / held if held else 0.0,
        )
    table.add_note("paper: buffering is never needed once d1 > 2*eps; below that "
                   "the hold time is at most 2*eps - d1")
    return table, shapes


ALL_EXPERIMENTS: Dict[str, Callable[[], Tuple[Table, Dict]]] = {
    "FIG1": exp_fig1_channel,
    "FIG2": exp_fig2_buffers,
    "FIG3": exp_fig3_algorithm_s,
    "THM4.7": exp_thm47,
    "THM5.1": exp_thm51,
    "LEM6.1": exp_lem61,
    "LEM6.2": exp_lem62,
    "THM6.5": exp_thm65,
    "TAB6.3": exp_tab63,
    "ABL1": exp_abl1,
    "ABL2": exp_abl2,
}


# ---------------------------------------------------------------------------
# ABL3 — TDMA guard crossover (Section 7.1 second technique)
# ---------------------------------------------------------------------------


def exp_abl3_tdma(eps: float = 0.1) -> Tuple[Table, Dict]:
    """Q_eps ⊆ P iff guard >= eps; overlap below the crossover is
    exactly 2*(eps - guard)."""
    from repro.sim.clock_drivers import FastClockDriver, SlowClockDriver
    from repro.tdma import (
        build_tdma_system,
        critical_intervals,
        max_overlap,
        min_gap,
        utilization,
    )

    def adversarial(i):
        return FastClockDriver(eps) if i % 2 == 0 else SlowClockDriver(eps)

    table = Table(
        f"ABL3: TDMA guard sweep (Q_eps ⊆ P iff guard >= eps; eps = {eps:g})",
        ["guard", "guard/eps", "max overlap", "predicted overlap",
         "min gap", "utilization", "mutual exclusion"],
    )
    shapes = {"crossover_at_eps": True, "overlap_matches_formula": True}
    busy_span = 9.0
    for guard in (0.0, 0.025, 0.05, 0.075, 0.1, 0.15, 0.2):
        spec = build_tdma_system(
            "clock", n=3, slot_width=1.0, guard=guard, sections=3,
            eps=eps, drivers=adversarial,
        )
        intervals = critical_intervals(spec.run(15.0).trace)
        overlap = max_overlap(intervals)
        predicted = max(2 * (eps - guard), 0.0)
        exclusion = overlap <= 1e-9
        if (guard >= eps) != exclusion:
            shapes["crossover_at_eps"] = False
        if guard < eps and abs(overlap - predicted) > 1e-6:
            shapes["overlap_matches_formula"] = False
        table.add_row(
            guard, guard / eps, overlap, predicted,
            min_gap(intervals), utilization(intervals, busy_span),
            "yes" if exclusion else "NO",
        )
    table.add_note("message-free mutual exclusion; the guard is the price "
                   "of the eps clock error")
    return table, shapes


# ---------------------------------------------------------------------------
# EXT1 — generalized blind-update objects (Section 6's closing remark)
# ---------------------------------------------------------------------------


def exp_ext1_objects(d1: float = 0.2, d2: float = 1.0) -> Tuple[Table, Dict]:
    """All blind-update object types stay linearizable in the clock model
    with the register's latency bounds."""
    from repro.objects import (
        CounterSpec, GrowSetSpec, LWWMapSpec, MaxRegisterSpec, PNCounterSpec,
    )

    eps, c = 0.1, 0.3
    table = Table(
        "EXT1: generalized objects in the clock model (Thm 6.5 bounds)",
        ["object", "queries", "updates", "max query", "query bound",
         "max update", "update bound", "linearizable"],
    )
    shapes = {"all_linearizable": True, "all_within": True}
    query_bound = (2 * eps + DELTA + c) + 2 * eps
    update_bound = (d2 + 2 * eps - c) + 2 * eps
    for spec in (CounterSpec(), PNCounterSpec(), MaxRegisterSpec(),
                 GrowSetSpec(), LWWMapSpec()):
        workload = RegisterWorkload(
            operations=6, read_fraction=0.5, think_min=0.3, think_max=1.5,
            seed=14,
        )
        system = clock_register_system(
            n=3, d1=d1, d2=d2, c=c, eps=eps, workload=workload,
            drivers=driver_factory("mixed", eps, seed=14),
            delay_model=UniformDelay(seed=14), spec=spec,
        )
        run = run_register_experiment(
            system, 90.0, scheduler=RandomScheduler(seed=14), spec=spec
        )
        linearizable = run.linearizable()
        within = (
            run.max_read_latency() <= query_bound + 1e-9
            and run.max_write_latency() <= update_bound + 1e-9
        )
        shapes["all_linearizable"] &= linearizable
        shapes["all_within"] &= within
        table.add_row(
            spec.name, len(run.reads), len(run.writes),
            run.max_read_latency(), query_bound,
            run.max_write_latency(), update_bound,
            "yes" if linearizable else "NO",
        )
    table.add_note("same machinery as the register: blind updates applied "
                   "at the same scheduled instant everywhere")
    return table, shapes


# ---------------------------------------------------------------------------
# EXT2 — fault tolerance (Section 7.3)
# ---------------------------------------------------------------------------


def exp_ext2_faults(d1: float = 0.2, d2: float = 1.0) -> Tuple[Table, Dict]:
    """The register over lossy/duplicating channels via the ARQ adapter:
    linearizable with the *effective* delay bounds d2 + B*R."""
    from repro.faults import effective_delay_bounds
    from repro.registers.system import (
        ARQ_RETRANSMIT_INTERVAL,
        lossy_clock_register_system,
        run_register_experiment,
    )
    from repro.registers.workload import RegisterWorkload

    eps, c, n = 0.1, 0.3, 3
    table = Table(
        "EXT2: register over lossy channels (ARQ, effective bounds d2 + B*R)",
        ["p_drop", "B", "dropped", "duplicated", "max write",
         "write bound", "linearizable"],
    )
    shapes = {"all_linearizable": True, "all_within": True, "loss_observed": True}
    for p_drop, max_drops in ((0.1, 2), (0.3, 3), (0.5, 4)):
        _, d2e = effective_delay_bounds(
            d1, d2, ARQ_RETRANSMIT_INTERVAL, max_drops
        )
        spec = lossy_clock_register_system(
            n, d1, d2, c, eps, p_drop=p_drop, max_drops=max_drops,
            workload=RegisterWorkload(operations=4, read_fraction=0.5, seed=17),
            driver="mixed", delta=DELTA,
        )
        run = run_register_experiment(
            spec, 130.0, scheduler=RandomScheduler(seed=17),
            max_steps=3_000_000,
        )
        dropped = sum(
            state.dropped for name, state in run.result.final_states.items()
            if name.startswith("lossychan")
        )
        duplicated = sum(
            state.duplicated for name, state in run.result.final_states.items()
            if name.startswith("lossychan")
        )
        write_bound = (d2e + 2 * eps - c) + 2 * eps
        linearizable = run.linearizable()
        within = run.max_write_latency() <= write_bound + 1e-9
        shapes["all_linearizable"] &= linearizable
        shapes["all_within"] &= within
        shapes["loss_observed"] &= dropped > 0
        table.add_row(
            p_drop, max_drops, dropped, duplicated,
            run.max_write_latency(), write_bound,
            "yes" if linearizable else "NO",
        )
    table.add_note("every theorem applies verbatim with the effective "
                   "bounds; the adapter itself is eps-time independent")
    return table, shapes


ALL_EXPERIMENTS["ABL3"] = exp_abl3_tdma
ALL_EXPERIMENTS["EXT1"] = exp_ext1_objects
ALL_EXPERIMENTS["EXT2"] = exp_ext2_faults


# ---------------------------------------------------------------------------
# EXT3 — multi-hop: flooding latency and leader-election simultaneity
# ---------------------------------------------------------------------------


def exp_ext3_multihop(d1: float = 0.1, d2: float = 1.0) -> Tuple[Table, Dict]:
    """Flood delivery within dist*d2' (clock stamps) and leader
    announcements within 2*eps of each other, across topologies."""
    from repro.automata.actions import Action
    from repro.broadcast import (
        build_flood_system,
        build_leader_system,
        deliveries,
        election_outcomes,
    )
    from repro.broadcast.flood import _distances, diameter
    from repro.network.topology import Topology

    eps = 0.1
    table = Table(
        "EXT3: multi-hop flooding + leader election (clock model)",
        ["topology", "diameter", "flood worst slack", "flood in bound",
         "leader agreed", "announce spread", "<= 2*eps"],
    )
    shapes = {"all_in_bound": True, "all_agree": True, "spread_ok": True}
    topologies = {
        "ring5": Topology.ring(5),
        "chain4": Topology.chain(4),
        "star5": Topology.star(5),
        "complete4": Topology.complete(4, self_loops=False),
    }
    for name, topology in sorted(topologies.items()):
        dia = diameter(topology)
        d2_design = d2 + 2 * eps
        spec = build_flood_system(
            "clock", topology, d1, d2, eps=eps,
            drivers=driver_factory("mixed", eps, seed=19),
            delay_model=UniformDelay(seed=19),
        )
        inject_at = 1.0
        result = spec.simulator().run(
            3.0 + dia * d2_design,
            initial_inputs=[(Action("BCAST", (0, ("m", 1))), inject_at)],
        )
        delivered = deliveries(result.clock_trace())
        dist = _distances(topology, 0)
        worst_slack = -1e9
        in_bound = len(delivered) == topology.n
        for (node, _), stamp in delivered.items():
            bound = inject_at + eps + dist[node] * d2_design
            worst_slack = max(worst_slack, stamp - bound)
            in_bound &= stamp <= bound + 1e-9
        shapes["all_in_bound"] &= in_bound

        spec = build_leader_system(
            "clock", topology, d1, d2, eps=eps,
            drivers=driver_factory("mixed", eps, seed=19),
            delay_model=UniformDelay(seed=19),
        )
        result = spec.run(dia * d2_design + 2.0)
        outcomes = election_outcomes(result.trace)
        agreed = (
            len(outcomes) == topology.n
            and {leader for leader, _ in outcomes.values()} == {0}
        )
        times = [t for _, t in outcomes.values()]
        spread = max(times) - min(times) if times else 1e9
        shapes["all_agree"] &= agreed
        shapes["spread_ok"] &= spread <= 2 * eps + 1e-9
        table.add_row(
            name, dia, worst_slack, "yes" if in_bound else "NO",
            "yes" if agreed else "NO", spread,
            "yes" if spread <= 2 * eps + 1e-9 else "NO",
        )
    table.add_note("announcements are simultaneous in the timed model; the "
                   "clock transformation spreads them by at most 2*eps")
    return table, shapes


ALL_EXPERIMENTS["EXT3"] = exp_ext3_multihop


# ---------------------------------------------------------------------------
# ABL4 — internal vs real-time specifications (Section 4.3 discussion)
# ---------------------------------------------------------------------------


def exp_abl4_internal_specs(d1: float = 0.1, d2: float = 1.0) -> Tuple[Table, Dict]:
    """Lamport/Neiger-Toueg internal specifications need no margin:
    transformed L(c=0) stays sequentially consistent (an internal spec)
    in the clock model but frequently violates linearizability (a
    real-time spec); algorithm S's 2*eps read margin restores it."""
    from repro.registers.system import INITIAL_VALUE
    from repro.sim.delay import MaximalDelay
    from repro.traces.sequential_consistency import is_sequentially_consistent

    eps = 0.3
    seeds = range(12)
    table = Table(
        "ABL4: internal (SC) vs real-time (linearizability) specifications",
        ["algorithm", "runs", "SC holds", "linearizable holds",
         "max read latency"],
    )
    shapes = {
        "sc_always": True,
        "l_violations_seen": False,
        "s_always_linearizable": True,
    }
    for algorithm, c in (("L", 0.0), ("S", 0.0)):
        sc_ok = lin_ok = 0
        worst_read = 0.0
        for seed in seeds:
            workload = RegisterWorkload(
                operations=6, read_fraction=0.6, seed=seed,
                think_min=0.05, think_max=0.6,
            )
            spec = clock_register_system(
                n=3, d1=d1, d2=d2, c=c, eps=eps, workload=workload,
                drivers=driver_factory("mixed", eps, seed=seed),
                delay_model=MaximalDelay(), algorithm=algorithm,
            )
            run = run_register_experiment(
                spec, 80.0, scheduler=RandomScheduler(seed=seed)
            )
            if is_sequentially_consistent(run.result.trace, INITIAL_VALUE):
                sc_ok += 1
            else:
                shapes["sc_always"] = False
            if run.linearizable():
                lin_ok += 1
            elif algorithm == "S":
                shapes["s_always_linearizable"] = False
            worst_read = max(worst_read, run.max_read_latency())
        if algorithm == "L" and lin_ok < len(list(seeds)):
            shapes["l_violations_seen"] = True
        table.add_row(
            f"{algorithm}(c=0)", len(list(seeds)),
            f"{sc_ok}/{len(list(seeds))}", f"{lin_ok}/{len(list(seeds))}",
            worst_read,
        )
    table.add_note("SC never references real time, so P_eps = P and the "
                   "bare transformation suffices (Lamport [5], "
                   "Neiger-Toueg [13]); linearizability needs S's 2*eps")
    return table, shapes


ALL_EXPERIMENTS["ABL4"] = exp_abl4_internal_specs


# ---------------------------------------------------------------------------
# EXT4 — the sync protocol inside the engine (Section 4.3 hybrid model)
# ---------------------------------------------------------------------------


def exp_ext4_sync_protocol(d1s: float = 0.01, d2s: float = 0.08) -> Tuple[Table, Dict]:
    """Clients on free-running drifting clocks, disciplined by a
    real-time server node: achieved software-clock error vs the
    analytic envelope, per drift rate and sync period."""
    from repro.clocks.protocol import build_sync_protocol_system, software_clock_errors
    from repro.clocks.sync import achievable_epsilon

    table = Table(
        "EXT4: in-engine Cristian sync vs analytic envelope "
        "(Section 4.3 hybrid model)",
        ["rho (ppm)", "period", "max software err", "analytic envelope",
         "within", "raw drift at horizon"],
    )
    shapes = {"all_within": True, "sync_beats_raw_drift": True}
    horizon = 120.0
    for rho, period in ((1.003, 5.0), (0.998, 5.0), (1.001, 10.0),
                        (1.005, 2.0)):
        spec = build_sync_protocol_system(
            1, d1s, d2s, period, [rho], delay_model=UniformDelay(seed=23)
        )
        result = spec.run(horizon)
        series = software_clock_errors(result)[1]
        steady = max(
            abs(err) for t, err in series if t > 2 * period + 1.0
        )
        envelope = achievable_epsilon(rho, period, d1s, d2s)
        raw = abs(rho - 1.0) * horizon
        within = steady <= envelope
        shapes["all_within"] &= within
        shapes["sync_beats_raw_drift"] &= steady < raw
        table.add_row(
            (rho - 1.0) * 1e6, period, steady, envelope,
            "yes" if within else "NO", raw,
        )
    table.add_note("the eps every transformation assumes, produced by a "
                   "protocol running in the very model they target")
    return table, shapes


ALL_EXPERIMENTS["EXT4"] = exp_ext4_sync_protocol
