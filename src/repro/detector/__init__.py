"""Timeout-based failure detection (the introduction's motivating use).

The paper's opening lists "detect process failures" among the uses of
time information. This subpackage provides the heartbeat/deadline
detector pair used by the examples and fault tests:

- :class:`~repro.detector.heartbeat.HeartbeatSender` — emits a
  heartbeat every ``period``;
- :class:`~repro.detector.heartbeat.DeadlineMonitor` — suspects the
  sender when heartbeat ``k`` misses ``k*period + timeout``.

Designed in the timed model with ``timeout = d2'``, the monitor is
*accurate* (no false suspicions); combined with crash-stop failures
(a ``crash`` event with no ``recover``, :mod:`repro.chaos`) it is also
*complete* (a crashed sender is suspected within one period +
timeout). The Theorem 4.7 design rule ``timeout = d2 + 2*eps`` carries
both properties to the clock model.
"""

from repro.detector.heartbeat import (
    DeadlineMonitor,
    HeartbeatSender,
    build_detector_system,
    detector_timeout,
)

__all__ = [
    "HeartbeatSender",
    "DeadlineMonitor",
    "build_detector_system",
    "detector_timeout",
]
