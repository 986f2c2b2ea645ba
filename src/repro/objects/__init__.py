"""Generalized shared-memory objects (Section 6's closing remark).

The paper notes: "We generalize our results to other shared memory
objects in the full paper." The register algorithm's engine room — every
replica applies each update at the *same* scheduled instant
``send + d2' + delta``, totally ordered by ``(instant, sender)`` — works
unchanged for any object whose updates are **blind** (their effect does
not depend on a return value): counters, max-registers, grow-only sets,
PN-counters, last-writer-wins maps, ...

This subpackage provides:

- :mod:`repro.objects.specs` — sequential object specifications
  (the correctness oracle): register, counter, max-register, G-set,
  PN-counter, LWW-map;
- :mod:`repro.objects.history` — generic operation extraction and a
  spec-driven linearizability / eps-superlinearizability checker;
- :mod:`repro.objects.algorithm` — the generalized Figure 3 automaton:
  the register process itself
  (:class:`~repro.registers.algorithm_l.RegisterProcess`) under the
  object vocabulary, its value hooks bound to a spec;
- :mod:`repro.objects.system` — clients and one-call system builders
  for the timed and clock models.

Latency bounds carry over verbatim from Lemma 6.2 / Theorem 6.5:
queries cost ``2*eps + c + delta``, updates ``d2' - c``.
"""

from repro.objects.algorithm import BlindUpdateObjectProcess
from repro.objects.history import (
    ObjOperation,
    extract_object_operations,
    find_object_linearization,
    is_object_linearizable,
    is_object_superlinearizable,
)
from repro.objects.specs import (
    CounterSpec,
    GrowSetSpec,
    LWWMapSpec,
    MaxRegisterSpec,
    PNCounterSpec,
    RegisterSpec,
    SequentialSpec,
)
from repro.objects.system import (
    ObjectRun,
    ObjectWorkload,
    clock_object_system,
    run_object_experiment,
    timed_object_system,
)

__all__ = [
    "SequentialSpec",
    "RegisterSpec",
    "CounterSpec",
    "MaxRegisterSpec",
    "GrowSetSpec",
    "PNCounterSpec",
    "LWWMapSpec",
    "ObjOperation",
    "extract_object_operations",
    "find_object_linearization",
    "is_object_linearizable",
    "is_object_superlinearizable",
    "BlindUpdateObjectProcess",
    "ObjectWorkload",
    "ObjectRun",
    "timed_object_system",
    "clock_object_system",
    "run_object_experiment",
]
