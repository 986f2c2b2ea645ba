"""The load generator's report: verdicts, quantiles, Theorem 6.5 gate.

Three layers, in order of authority:

1. **Linearizability** — the recorded history is fed (as
   :class:`~repro.traces.linearizability.Operation` records) to the
   budgeted checker; the report carries the full
   :class:`~repro.traces.linearizability.LinearizationReport` including
   how many search nodes the verdict cost.
2. **Theorem 6.5 bounds** — per-kind p99 latencies against the paper's
   clock-time costs (read ``2*eps + delta + c``, write
   ``d2 + 2*eps - c``) stretched to real time by ``2*eps_measured`` —
   the *measured* worst clock skew substituted for the configured
   envelope — plus a configurable ``slack`` for client RTT and event-loop
   jitter, which the virtual-time simulator does not have.
3. **Premises** — the theorem assumes delivery within ``[d1, d2]``; the
   measured one-way wire delay must stay under ``d2`` or the latency
   verdict is judging an execution outside the model.

A run under a fault plan gets the same report with its ``plan`` set:
the gate runs in **degraded mode** (Simulation 1 widening at the
fault-adjusted ``eps``, plus a retry allowance), the violations the
simulator's monitors found on the cluster's observation stream, plus the
report's own linearizability verdict, carry their plan-event
attribution, and :meth:`LiveReport.to_payload` writes the
machine-readable ``repro-live-chaos-report``.

The report exports a version-2 metrics snapshot (counters, gauges,
latency quantile sketches under ``repro.live.*``) conforming to the
schema :mod:`repro.obs.schema` enforces in CI. The run's trace is not
the report's: it is the cluster's tracer stream (``--trace-out``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos.monitors import Violation, attribute_violations
from repro.chaos.plan import FaultPlan
from repro.core.pipeline import simulation1_delay_bounds
from repro.faults.retransmit import BackoffPolicy
from repro.live.params import LiveParams
from repro.obs.sketch import QuantileSketch
from repro.registers.algorithm_s import theorem_bounds
from repro.traces.linearizability import LinearizationReport, Operation

CHAOS_REPORT_FORMAT = "repro-live-chaos-report"
CHAOS_REPORT_VERSION = 1

DEFAULT_SLACK = 0.05
"""Default real-time allowance for client RTT and event-loop jitter."""


@dataclass(frozen=True)
class BoundCheck:
    """One measured quantity against one analytic limit."""

    name: str
    measured: float
    limit: float
    detail: str

    @property
    def ok(self) -> bool:
        return self.measured <= self.limit

    def render(self) -> str:
        """One aligned ``measured <= limit verdict`` line."""
        verdict = "ok" if self.ok else "VIOLATED"
        return (
            f"{self.name:<12} {self.measured:8.4f} <= {self.limit:8.4f}  "
            f"{verdict}  ({self.detail})"
        )


@dataclass
class LiveReport:
    """Everything ``python -m repro load`` reports about one run.

    The latency sketches are built from the *completed* client
    ``records`` (``ok``/``retried``): a timed-out write still appears in
    ``operations`` as a possibly-effective phantom (its window open to
    the run horizon, so the checker may linearize it last), but its
    non-latency must not pollute the p99 gate. A timeout is never free:
    without a plan to blame it on, one timed-out record makes the run
    not :attr:`ok`.

    With a fault ``plan`` (``repro chaos --live``, ``repro load
    --plan``) the report is in degraded mode:

    - the Theorem 6.5 gate substitutes the *fault-adjusted measured*
      ``eps`` (which under a ``clock_fault`` exceeds the configured
      envelope) into the Simulation 1 widening — ``d1' = max(d1 -
      2*eps, 0)``, ``d2' = d2 + 2*eps`` — and adds a retry allowance
      derived from the worst observed attempt count (each failed attempt
      costs at most ``op_timeout`` plus its backoff gap), with every
      widening term recorded in the check's detail and in
      :meth:`to_payload`;
    - :attr:`violations` holds the monitors' violations from the run's
      observation stream, plus a ``linearizability`` violation when the
      history does not linearize, each attributed to a plan event;
      :attr:`unattributed` must be zero for a healthy chaos run.
    """

    params: LiveParams
    operations: List[Operation]
    linearization: LinearizationReport
    node_stats: List[Dict[str, object]] = field(default_factory=list)
    slack: float = DEFAULT_SLACK
    records: List[Operation] = field(default_factory=list)
    plan: Optional[FaultPlan] = None
    violations: List[Violation] = field(default_factory=list)

    def __post_init__(self):
        self.read_sketch = QuantileSketch("repro.live.op.read_latency")
        self.write_sketch = QuantileSketch("repro.live.op.write_latency")
        for record in self.records:
            if record.completed:
                sketch = (
                    self.read_sketch if record.kind == "R"
                    else self.write_sketch
                )
                sketch.observe(record.latency)
        if self.plan is None:
            return
        found = list(self.violations)
        if not self.linearization.ok:
            found.append(Violation(
                monitor="linearizability",
                kind="linearizability",
                time=self.horizon,
                detail="no linearization of the recorded history exists",
            ))
        self.violations = attribute_violations(self.plan, found)

    # -- measurements --------------------------------------------------------

    @property
    def horizon(self) -> float:
        """The end of the checked history: its latest response (a
        timed-out write's window is open to the run's end, see
        :func:`~repro.live.load.build_operations`)."""
        return max((op.res_time for op in self.operations), default=0.0)

    @property
    def reads(self) -> List[Operation]:
        return [op for op in self.operations if op.kind == "R"]

    @property
    def writes(self) -> List[Operation]:
        return [op for op in self.operations if op.kind == "W"]

    @property
    def eps_measured(self) -> float:
        """Worst observed ``|real - clock|`` across the cluster.

        By construction of the drivers this is at most the configured
        ``eps``; substituting it tightens the real-time stretch term to
        what the clocks actually did. Falls back to the configured
        envelope when no node stats were collected.
        """
        skews = [s["max_skew"] for s in self.node_stats if "max_skew" in s]
        return max(skews) if skews else self.params.eps

    @property
    def wire_max(self) -> float:
        """Worst observed one-way update-message delay."""
        delays = [s["wire_max"] for s in self.node_stats if "wire_max" in s]
        return max(delays) if delays else 0.0

    # -- fault accounting ----------------------------------------------------

    @property
    def outcomes(self) -> Dict[str, int]:
        counts = {"ok": 0, "retried": 0, "timeout": 0}
        for record in self.records:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    @property
    def retries(self) -> int:
        """Client attempts beyond each operation's first."""
        return sum(record.attempts - 1 for record in self.records)

    @property
    def faults(self) -> Dict[str, int]:
        """Node-side fault counters summed across the cluster."""
        totals = {"crashes": 0, "recoveries": 0, "dropped": 0,
                  "retransmits": 0, "wire_errors": 0, "inputs_lost": 0}
        for stats in self.node_stats:
            for key in totals:
                totals[key] += int(stats.get(key, 0))
        return totals

    @property
    def unattributed(self) -> int:
        return sum(
            1 for v in self.violations if v.event_index is None
        )

    @property
    def eps_adjusted(self) -> float:
        """Fault-adjusted eps: what the clocks *did*, envelope included.

        Under a ``clock_fault`` the measured skew exceeds the configured
        envelope; the degraded gate must widen by what actually
        happened, never by less than the design envelope.
        """
        return max(self.eps_measured, self.params.eps)

    @property
    def widened_bounds(self) -> Dict[str, float]:
        """The Simulation 1 arithmetic at the fault-adjusted eps."""
        d1p, d2p = simulation1_delay_bounds(
            self.params.d1, self.params.d2, self.eps_adjusted
        )
        return {"d1_prime": d1p, "d2_prime": d2p}

    @property
    def retry_allowance(self) -> float:
        """Worst-case client-side stall the retry loop can add.

        ``A`` failed attempts cost at most ``A * op_timeout`` waiting
        plus the first ``A`` backoff gaps; ``A`` is the worst *observed*
        attempt count minus one, so a run that never retried gets a
        zero allowance and degrades gracefully to the fault-free gate.
        """
        worst = max(
            (r.attempts for r in self.records if r.completed), default=1
        )
        extra = worst - 1
        if extra <= 0:
            return 0.0
        p = self.params
        return extra * p.op_timeout + BackoffPolicy(
            seed=p.seed
        ).worst_case_gap_sum(p.retry_base, extra)

    # -- the Theorem 6.5 gate ------------------------------------------------

    def bound_checks(self) -> List[BoundCheck]:
        """The per-kind p99 latency gate, plus the delay premise check.

        Without a plan: the theorem's costs at the configured ``eps``,
        stretched by ``2*eps_measured``, against the premise ``d2``.
        With one: the degraded gate, at ``eps_adjusted`` and against
        ``d2'``.
        """
        p = self.params
        if self.plan is None:
            eps = p.eps
            stretch = 2.0 * self.eps_measured
            allowance = 0.0
            terms = f", +{stretch:g} stretch, +{self.slack:g} slack"
            premise = BoundCheck(
                "wire delay", self.wire_max, p.d2,
                "theorem premise: delivery within [d1, d2]",
            )
        else:
            eps = self.eps_adjusted
            stretch = 2.0 * eps
            allowance = self.retry_allowance
            d2p = self.widened_bounds["d2_prime"]
            terms = (
                f"; degraded: eps_adj={eps:g}, d2'={d2p:g}, "
                f"+{stretch:g} stretch, +{allowance:g} retry allowance, "
                f"+{self.slack:g} slack"
            )
            premise = BoundCheck(
                "wire delay", self.wire_max, d2p,
                "degraded premise: delivery within [d1', d2'] "
                f"(d2' = d2 + 2*eps_adj = {d2p:g})",
            )
        bounds = theorem_bounds("clock", eps, p.c, p.delta, p.d2)
        checks = []
        for name, sketch, cost, formula in (
            ("read p99", self.read_sketch, bounds["read_clock"],
             "2*eps+delta+c"),
            ("write p99", self.write_sketch, bounds["write_clock"],
             "d2+2*eps-c"),
        ):
            if sketch.count:
                checks.append(BoundCheck(
                    name, sketch.quantile(0.99),
                    cost + stretch + allowance + self.slack,
                    f"{formula} = {cost:g} clock{terms}",
                ))
        checks.append(premise)
        return checks

    @property
    def bounds_ok(self) -> bool:
        return all(check.ok for check in self.bound_checks())

    @property
    def ok(self) -> bool:
        """Linearizable, every violation attributed to its cause, and —
        without a plan — no operation timed out."""
        if self.plan is None and self.outcomes["timeout"]:
            return False
        return self.linearization.ok and self.unattributed == 0

    # -- rendering -----------------------------------------------------------

    def render(self, assert_bounds: bool = False) -> str:
        """The human-readable run summary ``python -m repro load`` prints."""
        p = self.params
        lin = self.linearization
        lines = [
            f"live run: n={p.n} d2={p.d2:g} eps={p.eps:g} c={p.c:g} "
            f"delta={p.delta:g} driver={p.driver} seed={p.seed}",
            f"operations     : {len(self.operations)} "
            f"({len(self.reads)} reads, {len(self.writes)} writes)",
            f"eps measured   : {self.eps_measured:.5f} "
            f"(envelope {p.eps:g})",
            f"linearizable   : {lin.ok} "
            f"({lin.visited} search nodes visited)",
        ]
        for kind, sketch in (("read", self.read_sketch),
                             ("write", self.write_sketch)):
            if not sketch.count:
                continue
            lines.append(
                f"{kind:<5} latency  : p50={sketch.quantile(0.5):.4f} "
                f"p99={sketch.quantile(0.99):.4f} "
                f"max={sketch.maximum:.4f} (n={sketch.count})"
            )
        outcomes = self.outcomes
        lines.append(
            f"outcomes       : ok={outcomes['ok']} "
            f"retried={outcomes['retried']} timeout={outcomes['timeout']} "
            f"(client retries: {self.retries})"
        )
        if self.plan is not None:
            lines.extend(self._render_faults())
        if assert_bounds:
            lines.append(
                "Theorem 6.5 gate (measured eps substituted):"
                if self.plan is None else
                "Theorem 6.5 degraded gate (Simulation 1 widened):"
            )
            for check in self.bound_checks():
                lines.append("  " + check.render())
        return "\n".join(lines)

    def _render_faults(self) -> List[str]:
        faults = self.faults
        widened = self.widened_bounds
        lines = [
            f"fault plan     : {self.plan.name} "
            f"({len(self.plan.events)} events)",
            f"faults applied : crashes={faults['crashes']} "
            f"recoveries={faults['recoveries']} dropped={faults['dropped']} "
            f"retransmits={faults['retransmits']} "
            f"wire_errors={faults['wire_errors']}",
            f"degraded bounds: eps_adj={self.eps_adjusted:.5f} "
            f"d1'={widened['d1_prime']:g} d2'={widened['d2_prime']:g} "
            f"(Simulation 1 widening)",
        ]
        if not self.violations:
            return lines + ["violations     : none"]
        lines.append(
            f"violations     : {len(self.violations)} "
            f"({self.unattributed} unattributed)"
        )
        return lines + ["  " + v.describe() for v in self.violations]

    # -- exports -------------------------------------------------------------

    def to_metrics(self, registry) -> None:
        """Publish the run into a v2 metrics registry."""
        registry.counter("repro.live.ops.completed").inc(
            sum(1 for record in self.records if record.completed)
        )
        registry.counter("repro.live.ops.reads").inc(len(self.reads))
        registry.counter("repro.live.ops.writes").inc(len(self.writes))
        registry.counter("repro.live.linearizability.visited").inc(
            self.linearization.visited
        )
        registry.gauge("repro.live.eps.measured").set(self.eps_measured)
        registry.gauge("repro.live.wire.max_delay").set(self.wire_max)
        registry.gauge("repro.live.linearizable").set(
            1.0 if self.linearization.ok else 0.0
        )
        # the gate's sketches: completed operations only
        registry.sketch(self.read_sketch.name).merge(self.read_sketch)
        registry.sketch(self.write_sketch.name).merge(self.write_sketch)
        if self.plan is None:
            return
        registry.counter("repro.chaos.violations").inc(len(self.violations))
        registry.counter("repro.live.chaos.retries").inc(self.retries)
        registry.counter("repro.live.chaos.violations").inc(
            len(self.violations)
        )
        registry.gauge("repro.live.chaos.unattributed").set(
            float(self.unattributed)
        )
        for key, value in self.outcomes.items():
            registry.counter(f"repro.live.chaos.outcome.{key}").inc(value)

    def to_payload(self) -> Dict[str, object]:
        """The machine-readable report ``python -m repro validate``
        checks in CI."""

        def _violation(v: Violation) -> Dict[str, object]:
            return {
                "monitor": v.monitor,
                "kind": v.kind,
                "time": v.time,
                "node": v.node,
                "edge": list(v.edge) if v.edge is not None else None,
                "detail": v.detail,
                "event_index": v.event_index,
                "event": v.event.describe() if v.event is not None else None,
            }

        return {
            "format": CHAOS_REPORT_FORMAT,
            "version": CHAOS_REPORT_VERSION,
            "params": self.params.to_dict(),
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "operations": len(self.operations),
            "outcomes": self.outcomes,
            "retries": self.retries,
            "linearizable": self.linearization.ok,
            "visited": self.linearization.visited,
            "eps_measured": self.eps_measured,
            "eps_adjusted": self.eps_adjusted,
            "widened_bounds": self.widened_bounds,
            "retry_allowance": self.retry_allowance,
            "bound_checks": [
                {
                    "name": c.name, "measured": c.measured,
                    "limit": c.limit, "ok": c.ok, "detail": c.detail,
                }
                for c in self.bound_checks()
            ],
            "bounds_ok": self.bounds_ok,
            "faults": self.faults,
            "violations": [_violation(v) for v in self.violations],
            "unattributed": self.unattributed,
            "ok": self.ok,
        }

    def write_payload(self, path: str) -> None:
        """Write :meth:`to_payload` to ``path`` as stable, indented JSON."""
        with open(path, "w") as handle:
            json.dump(self.to_payload(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def __repr__(self) -> str:
        return (
            f"<LiveReport {len(self.operations)} ops, "
            f"linearizable={self.linearization.ok}, "
            f"bounds_ok={self.bounds_ok}>"
        )
