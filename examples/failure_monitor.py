"""Designing a timeout-based failure monitor with the paper's methodology.

The paper's introduction motivates time information for "detecting
process failures". This example exercises
:mod:`repro.detector` — a heartbeat sender and a deadline monitor —
through the whole story:

1. **Verify in the timed model** against the design bounds: zero false
   suspicions.
2. **Deploy on the clock model** with the Theorem 4.7 rule
   (``timeout = d2 + 2*eps``): still zero false suspicions, under the
   worst clock adversary (slow sender, fast monitor) and the slowest
   network.
3. **Deploy naively** (``timeout = d2``, ignoring clock error): false
   suspicions on every heartbeat.
4. **Crash the sender** (the Section 7.3 fault extension): the properly
   designed monitor *does* suspect — accuracy did not cost completeness.

Run::

    python examples/failure_monitor.py
"""

from repro.chaos import FaultPlan, apply_plan, crash
from repro.core.pipeline import Clock, Timed, simulation1_delay_bounds
from repro.detector import build_detector_system, detector_timeout
from repro.sim.clock_drivers import FastClockDriver, SlowClockDriver
from repro.sim.delay import MaximalDelay


def adversarial_drivers(eps):
    def make(i):
        # worst case: slow sender clock, fast monitor clock
        return SlowClockDriver(eps) if i == 0 else FastClockDriver(eps)

    return make


def count_suspicions(result):
    return sum(1 for e in result.trace if e.action.name == "SUSPECT")


def main():
    eps, d1, d2 = 0.15, 0.1, 1.0
    period, count = 2.0, 8

    print("1) timed-model verification (design bounds):")
    spec = build_detector_system(
        Timed(), period, detector_timeout(d2, eps), count,
        *simulation1_delay_bounds(d1, d2, eps), delay_model=MaximalDelay(),
    )
    suspicions = count_suspicions(spec.run(30.0))
    print(f"   false suspicions: {suspicions}")
    assert suspicions == 0

    print("2) clock-model deployment with timeout = d2 + 2*eps "
          f"= {detector_timeout(d2, eps):.2f}:")
    spec = build_detector_system(
        Clock(eps, adversarial_drivers(eps)), period,
        detector_timeout(d2, eps), count, d1, d2, delay_model=MaximalDelay(),
    )
    correct = count_suspicions(spec.run(30.0))
    print(f"   false suspicions: {correct}")

    print(f"3) naive clock-model deployment with timeout = d2 = {d2:.2f}:")
    spec = build_detector_system(
        Clock(eps, adversarial_drivers(eps)), period, d2, count, d1, d2,
        delay_model=MaximalDelay(),
    )
    naive = count_suspicions(spec.run(30.0))
    print(f"   false suspicions: {naive}")

    print("4) sender crashes at t = 7.0 (proper timeout):")
    spec = build_detector_system(
        Clock(eps, adversarial_drivers(eps)), period,
        detector_timeout(d2, eps), count, d1, d2, delay_model=MaximalDelay(),
    )
    # crash the sender (node 0) for good: a crash with no recover
    crashed_spec = apply_plan(spec, FaultPlan.of([crash(0, 7.0)]))
    result = crashed_spec.run(30.0)
    suspicions = [e for e in result.trace if e.action.name == "SUSPECT"]
    beats = [e for e in result.trace if e.action.name == "BEAT"]
    first = suspicions[0].time if suspicions else None
    print(f"   heartbeats before crash: {len(beats)}, "
          f"first suspicion at t = {first}")

    assert correct == 0, "the transformed design must not falsely suspect"
    assert naive > 0, "the naive deployment should exhibit false suspicions"
    assert suspicions, "a crashed sender must eventually be suspected"
    print("\naccurate under clock skew, complete under crashes — the "
          "2*eps widening of Theorem 4.7 is what separates the two "
          "deployments.")


if __name__ == "__main__":
    main()
