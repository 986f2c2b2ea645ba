"""Fault tolerance: faulty channels and faulty nodes (Section 7.3).

The paper closes with: "we do not consider failures. However, it
appears that the results will extend to cases involving faulty nodes
and also faulty message channels. See [17] ..." — this subpackage
implements that extension path:

- :mod:`repro.faults.models` — channel fault models (Bernoulli and
  burst loss, duplication), with an explicit bound on consecutive
  losses of the same message so worst-case delivery stays bounded;
- :mod:`repro.faults.lossy_channel` — a Figure 1 channel that drops
  and duplicates per a fault model;
- :mod:`repro.faults.retransmit` — a reliable-messaging adapter in the
  style of [1] (Afek et al., *Reliable Communication over an Unreliable
  Channel*): sequence numbers, periodic retransmission, receiver-side
  deduplication and acknowledgments, wrapped around any
  :class:`~repro.components.base.Process`. With at most ``B``
  consecutive losses and retransmit interval ``R``, the composite
  behaves like a reliable channel with delay bounds
  ``[d1, d2 + B*R]`` — so every theorem applies with the *effective*
  bounds (:func:`~repro.faults.retransmit.effective_delay_bounds`);
- :mod:`repro.faults.recovery` — node failures with stable-storage
  snapshot/restore (the chaos layer's ``crash``/``recover`` events). A
  ``crash`` event with no ``recover`` is a crash-stop failure, so
  detectors (e.g. ``examples/failure_monitor.py``) can be tested for
  *true* positives, not just the absence of false ones;
- :mod:`repro.faults.partition` — time-varying channel faults: network
  partitions and scripted per-edge drop bursts, composable over any
  stationary fault model.
"""

from repro.faults.lossy_channel import LossyChannelEntity
from repro.faults.models import (
    BernoulliFaults,
    BurstFaults,
    FaultModel,
    NoFaults,
    ScriptedFaults,
)
from repro.faults.partition import (
    EdgeDropWindow,
    PartitionWindow,
    TimelineFaultModel,
)
from repro.faults.recovery import RecoverableEntity, RecoverySchedule
from repro.faults.retransmit import (
    BackoffPolicy,
    ReliableAdapter,
    effective_delay_bounds,
)

__all__ = [
    "FaultModel",
    "NoFaults",
    "BernoulliFaults",
    "BurstFaults",
    "ScriptedFaults",
    "TimelineFaultModel",
    "PartitionWindow",
    "EdgeDropWindow",
    "LossyChannelEntity",
    "ReliableAdapter",
    "BackoffPolicy",
    "effective_delay_bounds",
    "RecoverableEntity",
    "RecoverySchedule",
]
