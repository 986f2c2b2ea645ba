"""``repro.chaos``: declarative fault plans, online monitors, shrinking.

The robustness layer over the simulator: script a timeline of faults
(:mod:`~repro.chaos.plan`), lower it onto any built system
(:mod:`~repro.chaos.apply`), watch the paper's guarantees break in real
time (:mod:`~repro.chaos.monitors`), attribute the first violation to
the responsible plan event, and delta-debug the plan down to a smallest
witness (:mod:`~repro.chaos.shrink`). ``python -m repro chaos`` drives
the whole loop from the command line; :mod:`repro.campaign` sweeps
seeded random plans in parallel.
"""

from repro.chaos.apply import apply_plan
from repro.chaos.monitors import (
    ChannelBoundMonitor,
    ChaosMonitor,
    ClockPredicateMonitor,
    HeartbeatMonitor,
    MonitorTracer,
    TeeTracer,
    Violation,
)
from repro.chaos.plan import (
    FaultEvent,
    FaultPlan,
    clock_fault,
    crash,
    drop_burst,
    heal,
    partition,
    recover,
)
from repro.chaos.runner import (
    ChaosResult,
    causal_attribution,
    conformance_check,
    conformance_corpus,
    demo_builder,
    demo_monitors,
    demo_plan,
    run_chaos,
    run_demo,
    shrink_chaos,
    violation_oracle,
)
from repro.chaos.shrink import ShrinkResult, shrink_plan

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "crash",
    "recover",
    "partition",
    "heal",
    "clock_fault",
    "drop_burst",
    "apply_plan",
    "ChaosMonitor",
    "ClockPredicateMonitor",
    "ChannelBoundMonitor",
    "HeartbeatMonitor",
    "MonitorTracer",
    "TeeTracer",
    "Violation",
    "ChaosResult",
    "causal_attribution",
    "run_chaos",
    "run_demo",
    "shrink_chaos",
    "shrink_plan",
    "ShrinkResult",
    "violation_oracle",
    "conformance_check",
    "conformance_corpus",
    "demo_builder",
    "demo_plan",
    "demo_monitors",
]
