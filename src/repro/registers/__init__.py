"""Linearizable read-write registers (Section 6).

- :mod:`repro.registers.algorithm_l` — algorithm **L** (Section 6.1,
  after Mavronicolas [10] / Attiya-Welch [2]): linearizable in the timed
  model; read ``c + delta``, write ``d2' - c``. Home of
  ``RegisterProcess``, the one Figure 3 transition relation that L, S
  and the blind-update objects of :mod:`repro.objects` all run.
- :mod:`repro.registers.algorithm_s` — algorithm **S** (Figure 3):
  eps-superlinearizable in the timed model (read ``2*eps + c + delta``),
  hence plainly linearizable after the clock transformation
  (Theorem 6.5).
- :mod:`repro.registers.baseline` — a reconstruction of the [10]-style
  *native* clock-model register (time slicing; read ``4u``, write
  ``d2 + 3u`` with ``u = 2*eps``), the Section 6.3 comparison point.
- :mod:`repro.registers.spec` — the problems ``P`` (linearizability)
  and ``Q`` (eps-superlinearizability).
- :mod:`repro.registers.workload` — the one closed-loop client, for
  the register and every blind-update object, and its workload.
- :mod:`repro.registers.opstream` — engine-agnostic seeded op
  schedules, replayed identically by sim and live clients.
- :mod:`repro.registers.system` — one-call builders for register
  systems in all three models (and object systems in the timed and
  clock models), and the run type of both.
"""

from repro.registers.algorithm_l import AlgorithmLProcess, RegisterProcess
from repro.registers.algorithm_s import AlgorithmSProcess
from repro.registers.baseline import SlottedRegisterProcess
from repro.registers.spec import (
    linearizable_register_problem,
    superlinearizable_register_problem,
)
from repro.registers.system import (
    RegisterRun,
    baseline_register_system,
    clock_register_system,
    mmt_register_system,
    timed_register_system,
)
from repro.registers.opstream import OpSchedule, PlannedOp
from repro.registers.workload import ClientEntity, RegisterWorkload

__all__ = [
    "OpSchedule",
    "PlannedOp",
    "RegisterProcess",
    "AlgorithmLProcess",
    "AlgorithmSProcess",
    "SlottedRegisterProcess",
    "linearizable_register_problem",
    "superlinearizable_register_problem",
    "ClientEntity",
    "RegisterWorkload",
    "RegisterRun",
    "timed_register_system",
    "clock_register_system",
    "baseline_register_system",
    "mmt_register_system",
]
