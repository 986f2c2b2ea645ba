"""Scheduling a shared resource with clocks alone (no messages).

The paper's introduction motivates time information "to schedule the
use of resources". This example coordinates three nodes around a shared
resource *without exchanging a single message*: node ``i`` owns time
slots ``i, i+3, i+6, ...``, entering ``guard`` after its slot opens and
leaving ``guard`` before it closes.

It is also the cleanest demonstration of Section 7.1's second design
technique. The real spec ``P`` ("critical sections never overlap") is a
real-time property, so solving ``P_eps`` is not good enough — an
``eps``-perturbation of a legal trace can overlap. The fix is to design
a *stronger* problem ``Q`` ("sections separated by ``2*guard``") with
``Q_eps ⊆ P``, which holds exactly when ``guard >= eps``.

Run::

    python examples/tdma_scheduler.py
"""

from repro import Clock, FastClockDriver, SlowClockDriver
from repro.tdma import (
    build_tdma_system,
    critical_intervals,
    max_overlap,
    min_gap,
    utilization,
)

EPS = 0.1          # clock accuracy of the deployment
SLOT = 1.0         # slot width
SECTIONS = 3       # rounds per node


def adversarial(i):
    # neighbors disagree by the full 2*eps: the worst case for overlap
    return FastClockDriver(EPS) if i % 2 == 0 else SlowClockDriver(EPS)


def run(guard):
    spec = build_tdma_system(
        Clock(EPS, adversarial), n=3, slot_width=SLOT, guard=guard,
        sections=SECTIONS,
    )
    return critical_intervals(spec.run(15.0).trace)


def main():
    print(f"three nodes, slot width {SLOT}, clocks within ±{EPS} "
          f"of real time, zero messages\n")
    print(f"{'guard':>7s} {'guard/eps':>10s} {'worst overlap':>14s} "
          f"{'min gap':>9s} {'utilization':>12s}  mutual exclusion")
    busy_span = SECTIONS * 3 * SLOT
    for guard in (0.0, 0.05, 0.1, 0.2):
        intervals = run(guard)
        overlap = max_overlap(intervals)
        ok = overlap <= 1e-9
        print(f"{guard:7.2f} {guard / EPS:10.1f} {overlap:14.3f} "
              f"{min_gap(intervals):9.3f} "
              f"{utilization(intervals, busy_span):12.3f}  "
              f"{'yes' if ok else 'VIOLATED'}")

    print("\nthe crossover sits exactly at guard = eps: below it the "
          "sections of fast- and slow-clocked neighbors overlap by "
          "2*(eps - guard); above it you trade utilization for margin.")
    assert max_overlap(run(EPS)) <= 1e-9
    assert max_overlap(run(EPS / 2)) > 0


if __name__ == "__main__":
    main()
