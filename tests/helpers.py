"""Shared test processes, builders and register history records.

The pinger/echo pair moved into the installed package as
:mod:`repro.components.pinger` so benchmarks and campaign workers can
import it without ``sys.path`` manipulation; this module re-exports the
public names so existing ``from helpers import ...`` test imports keep
working unchanged.
"""

from __future__ import annotations

from repro.components.pinger import (  # noqa: F401
    EchoProcess,
    EchoState,
    INFINITY,
    PingerProcess,
    PingerState,
    pinger_process_factory,
    pinger_topology,
)
from repro.core.pipeline import lower
from repro.registers.system import register_design, with_clients
from repro.traces.linearizability import Operation


def register_spec(
    lowering, n, d1, d2, c, workload, eps=0.0, algorithm="S", delta=0.01,
    delay_model=None, spec=None,
):
    """The register (or object ``spec``) design on ``n`` nodes, lowered
    by ``lowering`` onto a ``[d1, d2]`` network, with one client per
    node."""
    design = register_design(
        lowering, n, d1, d2, c, eps, algorithm, delta, spec=spec
    )
    return with_clients(lower(design, lowering, delay_model), workload, spec=spec)


def register_op(op_id, node, kind, value, inv, res):
    """A register :class:`Operation`: ``value`` is what an ``"R"``
    returned or what a ``"W"`` wrote."""
    arg, response = (None, value) if kind == "R" else (value, None)
    return Operation(op_id, node, kind, arg, response, inv, res)


__all__ = [
    "EchoProcess",
    "EchoState",
    "INFINITY",
    "PingerProcess",
    "PingerState",
    "pinger_process_factory",
    "pinger_topology",
    "register_op",
    "register_spec",
]
