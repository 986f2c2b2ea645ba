"""The paper's primary contribution: the two simulations.

- :mod:`repro.core.clock_transform` — Simulation 1 (Section 4): the
  transformation ``C(A_i, eps)`` (Definition 4.1) plus the send and
  receive buffers of Figure 2, packaged as a clock-model node.
- :mod:`repro.core.buffers` — the buffer automata themselves.
- :mod:`repro.core.mmt_transform` — Simulation 2 (Section 5): the
  transformation ``M(A^c, l)`` (Definition 5.1): delayed simulation with
  a pending-output buffer, driven by ``TICK`` inputs.
- :mod:`repro.core.rate` — the output-rate ``(k, l)`` restriction of
  Lemma 4.3 / Section 5.3, checked on recorded executions.
- :mod:`repro.core.pipeline` — system builders assembling ``D_T``,
  ``D_C``, and ``D_M`` per Theorems 4.7, 5.1, and 5.2.
"""

from repro.core.buffers import ReceiveBuffer, SendBuffer
from repro.core.clock_transform import (
    ClockMachine,
    ClockNodeEntity,
    PassThroughMachine,
)
from repro.core.mmt_transform import DelayedSimulation
from repro.core.pipeline import (
    SystemSpec,
    build_clock_system,
    build_mmt_system,
    build_native_clock_system,
    build_timed_system,
    simulation1_delay_bounds,
    simulation2_shift_bound,
)
from repro.core.rate import check_output_rate, max_outputs_in_window

__all__ = [
    "SendBuffer",
    "ReceiveBuffer",
    "ClockMachine",
    "ClockNodeEntity",
    "PassThroughMachine",
    "DelayedSimulation",
    "SystemSpec",
    "build_timed_system",
    "build_clock_system",
    "build_native_clock_system",
    "build_mmt_system",
    "simulation1_delay_bounds",
    "simulation2_shift_bound",
    "check_output_rate",
    "max_outputs_in_window",
]
