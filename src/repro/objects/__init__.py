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
- :mod:`repro.objects.algorithm` — the generalized Figure 3 automaton:
  the register process itself
  (:class:`~repro.registers.algorithm_l.RegisterProcess`) under the
  object vocabulary, its value hooks bound to a spec;
- :mod:`repro.objects.system` — the payload generator of each built-in
  spec, what a client asks of the object.

An object runs on the register's harness: the register builders
(:func:`~repro.registers.system.timed_register_system`,
:func:`~repro.registers.system.clock_register_system`,
:func:`~repro.registers.system.register_system`) take the object's spec
as ``spec=``, one :class:`~repro.registers.workload.ClientEntity` drives
each node in the object vocabulary, and
:func:`~repro.registers.system.run_register_experiment` returns a
:class:`~repro.registers.system.RegisterRun` checked against the spec.
Its history is the register's too: one
:class:`~repro.traces.linearizability.Operation` per operation (a query
is an ``"R"``, an update a ``"W"``), extracted from any trace by
:func:`~repro.traces.linearizability.extract_operations` and checked by
:func:`~repro.traces.linearizability.analyze_linearizability` with
``spec=``.

Latency bounds carry over verbatim from Lemma 6.2 / Theorem 6.5:
queries cost ``2*eps + c + delta``, updates ``d2' - c``.
"""

from repro.objects.algorithm import BlindUpdateObjectProcess
from repro.objects.specs import (
    CounterSpec,
    GrowSetSpec,
    LWWMapSpec,
    MaxRegisterSpec,
    PNCounterSpec,
    RegisterSpec,
    SequentialSpec,
)

__all__ = [
    "SequentialSpec",
    "RegisterSpec",
    "CounterSpec",
    "MaxRegisterSpec",
    "GrowSetSpec",
    "PNCounterSpec",
    "LWWMapSpec",
    "BlindUpdateObjectProcess",
]
