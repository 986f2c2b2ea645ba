"""Sequential object specifications.

A :class:`SequentialSpec` is the correctness oracle for a shared object:
an initial state, a transition function for *blind updates* (operations
whose effect does not read the state's response), and an evaluation
function for *queries*. Linearizability of a concurrent history is then
defined against sequential replays of this spec
(:func:`~repro.traces.linearizability.analyze_linearizability` with
``spec=``).

States must be **hashable values** (tuples, frozensets, numbers) — the
checker memoizes on them — and update application must be a pure
function.

The blind-update restriction is what lets the Section 6 technique apply
unchanged: since updates carry all the information needed to apply them,
every replica can apply the same update at the same scheduled instant
without coordination. Operations like ``compare-and-swap`` or queue
``dequeue`` are *not* blind (their effect depends on the current state
being returned to the caller) and are out of scope, exactly as in the
paper's register treatment.
"""

from __future__ import annotations

from typing import Any, Hashable, Tuple

from repro.errors import SpecificationError

Update = Tuple  # ("name", args...)
Query = Tuple   # ("name", args...)


class SequentialSpec:
    """A sequential specification of a blind-update object."""

    name = "object"

    def initial(self) -> Hashable:
        """The initial object state (hashable)."""
        raise NotImplementedError

    def apply_update(self, state: Hashable, update: Update) -> Hashable:
        """The state after a blind update (pure)."""
        raise NotImplementedError

    def evaluate(self, state: Hashable, query: Query) -> Any:
        """The response of a query on a state (pure)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class RegisterSpec(SequentialSpec):
    """The read/write register, as a sanity anchor for the generalization.

    Updates: ``("write", v)``. Queries: ``("read",)``.
    """

    name = "register"

    def __init__(self, initial_value: Hashable = None):
        self._initial = initial_value

    def initial(self) -> Hashable:
        return self._initial

    def apply_update(self, state, update):
        kind, value = update
        if kind != "write":
            raise SpecificationError(f"register has no update {kind!r}")
        return value

    def evaluate(self, state, query):
        if query[0] != "read":
            raise SpecificationError(f"register has no query {query[0]!r}")
        return state


class CounterSpec(SequentialSpec):
    """An integer counter. Updates: ``("add", k)``. Queries: ``("read",)``."""

    name = "counter"

    def initial(self) -> Hashable:
        return 0

    def apply_update(self, state, update):
        kind, amount = update
        if kind != "add":
            raise SpecificationError(f"counter has no update {kind!r}")
        return state + amount

    def evaluate(self, state, query):
        if query[0] != "read":
            raise SpecificationError(f"counter has no query {query[0]!r}")
        return state


class MaxRegisterSpec(SequentialSpec):
    """A max-register. Updates: ``("writemax", v)``. Queries: ``("read",)``."""

    name = "max-register"

    def __init__(self, floor: float = 0.0):
        self._floor = floor

    def initial(self) -> Hashable:
        return self._floor

    def apply_update(self, state, update):
        kind, value = update
        if kind != "writemax":
            raise SpecificationError(f"max-register has no update {kind!r}")
        return max(state, value)

    def evaluate(self, state, query):
        if query[0] != "read":
            raise SpecificationError(f"max-register has no query {query[0]!r}")
        return state


class GrowSetSpec(SequentialSpec):
    """A grow-only set.

    Updates: ``("add", x)``. Queries: ``("contains", x)`` and
    ``("size",)``.
    """

    name = "g-set"

    def initial(self) -> Hashable:
        return frozenset()

    def apply_update(self, state, update):
        kind, element = update
        if kind != "add":
            raise SpecificationError(f"g-set has no update {kind!r}")
        return state | {element}

    def evaluate(self, state, query):
        if query[0] == "contains":
            return query[1] in state
        if query[0] == "size":
            return len(state)
        raise SpecificationError(f"g-set has no query {query[0]!r}")


class PNCounterSpec(SequentialSpec):
    """A counter supporting increments and decrements.

    Updates: ``("add", k)`` and ``("sub", k)``. Queries: ``("read",)``.
    """

    name = "pn-counter"

    def initial(self) -> Hashable:
        return 0

    def apply_update(self, state, update):
        kind, amount = update
        if kind == "add":
            return state + amount
        if kind == "sub":
            return state - amount
        raise SpecificationError(f"pn-counter has no update {kind!r}")

    def evaluate(self, state, query):
        if query[0] != "read":
            raise SpecificationError(f"pn-counter has no query {query[0]!r}")
        return state


class LWWMapSpec(SequentialSpec):
    """A map whose puts overwrite (last writer wins via the total order).

    Updates: ``("put", key, value)`` and ``("remove", key)``. Queries:
    ``("get", key)`` (``None`` when absent) and ``("size",)``.

    State is a sorted tuple of ``(key, value)`` pairs so it stays
    hashable.
    """

    name = "lww-map"

    def initial(self) -> Hashable:
        return ()

    def apply_update(self, state, update):
        entries = dict(state)
        if update[0] == "put":
            _, key, value = update
            entries[key] = value
        elif update[0] == "remove":
            _, key = update
            entries.pop(key, None)
        else:
            raise SpecificationError(f"lww-map has no update {update[0]!r}")
        return tuple(sorted(entries.items()))

    def evaluate(self, state, query):
        if query[0] == "get":
            return dict(state).get(query[1])
        if query[0] == "size":
            return len(state)
        raise SpecificationError(f"lww-map has no query {query[0]!r}")
