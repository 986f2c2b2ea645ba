"""Entity-state snapshots: the stable storage of the crash-recovery model.

The chaos layer's crash-recovery model (:mod:`repro.faults.recovery`)
persists a node's state to "stable storage" at the crash instant and
restores it on recovery. :func:`encode_state` snapshots a state with a
tagged structural encoding — scalars, tuples, lists, dicts, deques,
sets, dataclasses, plain objects — so :func:`decode_state` always yields
a *decoupled* deep copy: no aliasing survives a crash, exactly like real
serialization to disk, without requiring states to be JSON-text
serializable (class objects are carried by reference, in memory only).

Recorded executions are persisted elsewhere: a ``--trace-out`` file
(:class:`repro.obs.trace.JsonlTracer`) reloads into a
:class:`~repro.sim.recorder.Recorder` with
``Recorder.from_trace(read_trace(path))``.
"""

from __future__ import annotations

import collections
import dataclasses
import random
from typing import Any

from repro.errors import ReproError


def _instrument_types():
    from repro.obs.metrics import Counter, Gauge, Histogram, _NullInstrument
    from repro.obs.sketch import QuantileSketch

    return (Counter, Gauge, Histogram, QuantileSketch, _NullInstrument)


def encode_state(value: Any) -> Any:
    """Snapshot an arbitrary entity state into a decoupled structure."""
    if isinstance(value, _instrument_types()):
        # Metrics instruments are observers of the run, not node state:
        # a reboot must keep reporting into the same live series, so
        # they ride through the snapshot by reference.
        return {"r": value}
    if isinstance(value, tuple):
        return {"t": [encode_state(v) for v in value]}
    if isinstance(value, list):
        return {"l": [encode_state(v) for v in value]}
    if isinstance(value, dict):
        return {"m": [(encode_state(k), encode_state(v)) for k, v in value.items()]}
    if isinstance(value, collections.deque):
        return {"dq": [encode_state(v) for v in value]}
    if isinstance(value, (set, frozenset)):
        tag = "fz" if isinstance(value, frozenset) else "s"
        return {tag: [encode_state(v) for v in value]}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, random.Random):
        # object.__new__(Random) re-seeds from system entropy — silently
        # nondeterministic; refuse loudly instead.
        raise ReproError(
            "cannot snapshot random.Random state; keep RNGs on the entity, "
            "not in its state object"
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        derived = getattr(type(value), "_SNAPSHOT_DERIVED", ())
        fields = {
            f.name: encode_state(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in derived
        }
        return {"o": type(value), "f": fields}
    if hasattr(value, "__dict__") and not callable(value):
        derived = getattr(type(value), "_SNAPSHOT_DERIVED", ())
        fields = {
            k: encode_state(v)
            for k, v in vars(value).items()
            if k not in derived
        }
        return {"o": type(value), "f": fields}
    raise ReproError(
        f"cannot snapshot state of type {type(value).__name__}: {value!r}"
    )


def decode_state(snapshot: Any) -> Any:
    """Rebuild a fresh state object from an :func:`encode_state` snapshot."""
    if isinstance(snapshot, dict):
        if "r" in snapshot:
            return snapshot["r"]
        if "t" in snapshot:
            return tuple(decode_state(v) for v in snapshot["t"])
        if "l" in snapshot:
            return [decode_state(v) for v in snapshot["l"]]
        if "m" in snapshot:
            return {decode_state(k): decode_state(v) for k, v in snapshot["m"]}
        if "dq" in snapshot:
            return collections.deque(decode_state(v) for v in snapshot["dq"])
        if "s" in snapshot:
            return {decode_state(v) for v in snapshot["s"]}
        if "fz" in snapshot:
            return frozenset(decode_state(v) for v in snapshot["fz"])
        if "o" in snapshot:
            cls = snapshot["o"]
            instance = object.__new__(cls)
            for name, encoded in snapshot["f"].items():
                setattr(instance, name, decode_state(encoded))
            # Derived caches (``_SNAPSHOT_DERIVED``) are deliberately not
            # persisted; the restored object rebuilds them here so a
            # stable-storage image can never carry a stale accelerator
            # structure back into a live run.
            post_restore = getattr(instance, "__post_restore__", None)
            if post_restore is not None:
                post_restore()
            return instance
        raise ReproError(f"malformed state snapshot: {snapshot!r}")
    return snapshot
