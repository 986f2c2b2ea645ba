"""The generalized Figure 3 automaton for blind-update objects.

:class:`BlindUpdateObjectProcess` *is* the register process
(:class:`~repro.registers.algorithm_l.RegisterProcess`, with algorithm
S's ``2*eps`` read delay) over a :class:`SequentialSpec`: the same state
record, guards and transitions under the vocabulary ``ASK`` / ``DO`` /
``REPLY`` / ``DONE`` / ``APPLY``, with the two value hooks bound to the
spec instead of "overwrite" and "read back":

- on ``DO_i(u)``: broadcast ``(u, t)`` with ``t = now + d2'`` to every
  replica (including ``i``); respond ``DONE_i`` after ``d2' - c``;
- on receiving ``(u, t)``: schedule the update's application at
  ``t + delta``; updates scheduled at the same instant **all** apply, in
  sender order (the total order is ``(instant, sender)``, so replicas
  agree — a counter counts both increments, a register keeps the
  largest sender's write);
- on ``ASK_i(q)``: wait ``c + 2*eps + delta``, evaluate ``q`` on the
  local replica, respond ``REPLY_i(value)``.

All replicas apply each update at the same real time, so local replicas
are always mutually consistent; the S-style ``2*eps`` query delay makes
executions eps-superlinearizable, hence plainly linearizable after the
clock transformation — Lemma 6.2 / Theorem 6.5 verbatim, with the same
latency bounds (query ``2*eps + c + delta``, update ``d2' - c``).
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.objects.specs import Query, SequentialSpec, Update
from repro.registers.algorithm_l import RegisterProcess


class BlindUpdateObjectProcess(RegisterProcess):
    """The generalized S automaton over a :class:`SequentialSpec`."""

    READ, WRITE, RETURN, ACK, UPDATE = "ASK", "DO", "REPLY", "DONE", "APPLY"

    def __init__(
        self,
        node: int,
        peers: Sequence[int],
        spec: SequentialSpec,
        d2_prime: float,
        c: float,
        eps: float = 0.0,
        delta: float = 0.01,
    ):
        if eps < 0:
            raise ValueError("eps must be non-negative")
        super().__init__(
            node,
            peers,
            d2_prime,
            c,
            delta=delta,
            read_extra=2.0 * eps,
            initial_value=spec.initial(),
            name=f"{spec.name}({node})",
        )
        self.spec = spec
        self.eps = eps

    def apply_update(self, value: Hashable, update: Update) -> Hashable:
        return self.spec.apply_update(value, update)

    def evaluate(self, value: Hashable, query: Query) -> Any:
        return self.spec.evaluate(value, query)

    @property
    def query_bound(self) -> float:
        """Analytic query time: ``c + 2*eps + delta``."""
        return self.read_bound

    @property
    def update_bound(self) -> float:
        """Analytic update time: ``d2' - c``."""
        return self.write_bound
