"""Payload generators: what a client asks of each built-in object.

An object runs on the register's harness
(:mod:`repro.registers.workload` and :mod:`repro.registers.system`):
the builders take the object's spec, build
:class:`~repro.objects.algorithm.BlindUpdateObjectProcess` nodes and
attach clients in its ``ASK`` / ``DO`` vocabulary, and the clients draw
each invocation's argument from :func:`default_payloads`.
"""

from __future__ import annotations

from repro.objects.specs import SequentialSpec
from repro.registers.workload import PayloadGenerator


def default_payloads(spec: SequentialSpec) -> PayloadGenerator:
    """A sensible random payload generator per built-in spec."""

    def register(rng, node, seq, is_update):
        if is_update:
            return ("write", ("v", node, seq))
        return ("read",)

    def counter(rng, node, seq, is_update):
        if is_update:
            return (rng.choice(["add", "add", "sub"]), rng.randint(1, 5)) \
                if spec.name == "pn-counter" else ("add", rng.randint(1, 5))
        return ("read",)

    def max_register(rng, node, seq, is_update):
        if is_update:
            return ("writemax", rng.randint(0, 100))
        return ("read",)

    def g_set(rng, node, seq, is_update):
        if is_update:
            return ("add", (node, seq))
        if rng.random() < 0.5:
            return ("size",)
        return ("contains", (rng.randrange(3), rng.randrange(max(seq, 1))))

    def lww_map(rng, node, seq, is_update):
        key = rng.choice(["a", "b", "c"])
        if is_update:
            if rng.random() < 0.2:
                return ("remove", key)
            return ("put", key, ("v", node, seq))
        if rng.random() < 0.3:
            return ("size",)
        return ("get", key)

    table = {
        "register": register,
        "counter": counter,
        "pn-counter": counter,
        "max-register": max_register,
        "g-set": g_set,
        "lww-map": lww_map,
    }
    if spec.name not in table:
        raise ValueError(
            f"no default payload generator for spec {spec.name!r}; "
            f"give its clients one with ClientEntity(..., payloads=)"
        )
    return table[spec.name]
