"""Per-node live clocks: ``ClockDriver`` envelopes on wall-clock time.

A :class:`LiveClock` reuses the simulator's clock drivers
(:mod:`repro.sim.clock_drivers`) unchanged: real time is
``time.monotonic()`` elapsed since a shared cluster epoch, and every
read steps the driver from the last observed ``(real, clock)`` pair to
the current one, clamped into the ``C_eps`` window — so a live node's
clock is a legal clock-model trajectory of the *same* adversary the
simulator runs, just sampled at the instants the event loop happens to
look.

One deliberate difference from the simulator: the driver is stepped
with an infinite cap. The sim engine holds a clock *at* a receive
buffer's stamp so delivery happens exactly then; a wall clock cannot be
held back, so the live node instead wakes at the mapped deadline and
delivers *late* by its scheduling jitter. That is safe for the Figure 2
property the buffer exists for — no message is received at a clock time
strictly less than its send stamp — and the jitter shows up honestly in
the measured latencies rather than being idealized away.
"""

from __future__ import annotations

import time
from typing import Tuple

from repro.constants import INFINITY
from repro.obs.metrics import NULL_SKETCH
from repro.sim.clock_drivers import ClockDriver


class LiveClock:
    """A node's local clock, driven inside ``C_eps`` over wall time.

    ``epoch`` is a ``time.monotonic()`` value that maps to model time 0;
    every node of a cluster (and its in-process load generator) shares
    one epoch, so their real-time axes agree.

    A chaos run replaces ``driver`` with a
    :class:`~repro.sim.clock_drivers.FaultyClockDriver` wrapper, which
    may leave the envelope. The clock does not judge that: its node
    reports every action with the ``(real, clock)`` pair of its last
    read, and the simulator's
    :class:`~repro.chaos.monitors.ClockPredicateMonitor` does.
    """

    def __init__(self, driver: ClockDriver, epoch: float):
        self.driver = driver
        self.epoch = epoch
        self._real = 0.0
        self._clock = 0.0
        self.max_skew = 0.0
        self.skew_sketch = NULL_SKETCH

    def real_now(self) -> float:
        """Wall-clock time elapsed since the cluster epoch."""
        return time.monotonic() - self.epoch

    def read(self) -> Tuple[float, float]:
        """The current ``(real, clock)`` pair; steps the driver forward."""
        real = self.real_now()
        if real > self._real:
            self._clock = self.driver.step(
                self._real, self._clock, real, INFINITY
            )
            self._real = real
            skew = abs(real - self._clock)
            if skew > self.max_skew:
                self.max_skew = skew
            self.skew_sketch.observe(skew)
        return self._real, self._clock

    def wall_delay(self, clock_target: float) -> float:
        """Seconds to sleep so this clock reaches ``clock_target``.

        Maps a clock-time deadline back to the real-time axis with the
        driver's own :meth:`~repro.sim.clock_drivers.ClockDriver.target_now`
        (a perfect clock wakes at the deadline itself, a slow clock up
        to ``eps`` later). Returns 0 for deadlines already reached.
        """
        if clock_target == INFINITY:
            return INFINITY
        real, clock = self.read()
        if clock_target <= clock:
            return 0.0
        target_real = self.driver.target_now(real, clock, clock_target)
        return max(0.0, target_real - real)

    def __repr__(self) -> str:
        return (
            f"<LiveClock real={self._real:.4f} clock={self._clock:.4f} "
            f"driver={self.driver!r}>"
        )
