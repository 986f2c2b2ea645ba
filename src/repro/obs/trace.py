"""Structured trace export: JSONL span/event records from the hot loop.

The engine emits one record per significant event — action fired, time
advanced (the deadline wait of the ``nu`` semantics), environment
injection, timelock diagnostic, run start/end — through a
:class:`Tracer`. The base :class:`Tracer` *is* the null tracer (every
hook is a no-op), so a sink overrides only the hooks it needs and the
engine calls hooks unconditionally instead of scattered ``if`` checks.
The simulator drives one sink per run: its
:class:`~repro.sim.recorder.Recorder`, alone or teed (:class:`TeeTracer`,
recorder first) with an attached tracer such as :class:`JsonlTracer`.

This module owns the one on-disk format of an execution. Action
payloads use a small tagged encoding (:func:`encode_action` /
:func:`decode_action`) that round-trips the tuple/list distinction JSON
loses, and a trace file reloads into a
:class:`~repro.sim.recorder.Recorder` — the simulator's own in-memory
record, itself a :class:`Tracer` sink — with
``Recorder.from_trace(read_trace(path))``.

Format version 2 adds two record kinds on top of version 1:

- ``span`` — a causal span phase transition (message lifecycle or
  operation round trip), correlated online by
  :class:`repro.obs.causal.SpanBook` and emitted interleaved with the
  ``action`` records that produced it;
- ``meta`` — run metadata (entity names, workload parameters) written
  once near the start so analysis tools are self-contained.

:func:`read_trace` accepts both versions; the causal reconstructor
re-derives spans from the ``action`` stream, so version-1 files analyze
identically. A file may carry exactly one header — a second header-like
line means two traces were concatenated, which is rejected rather than
silently misread (the versions and span ids would collide).
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, Optional

from repro.automata.actions import Action
from repro.errors import ReproError

TRACE_FORMAT = "repro-obs-trace"
TRACE_VERSION = 2
SUPPORTED_TRACE_VERSIONS = (1, 2)


def _encode_value(value):
    if isinstance(value, tuple):
        return {"t": [_encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"l": [_encode_value(v) for v in value]}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ReproError(f"cannot serialize value of type {type(value).__name__}")


def _decode_value(value):
    if isinstance(value, dict):
        if "t" in value:
            return tuple(_decode_value(v) for v in value["t"])
        if "l" in value:
            return [_decode_value(v) for v in value["l"]]
        raise ReproError(f"malformed encoded value: {value!r}")
    return value


def encode_action(action: Action) -> dict:
    """The tagged JSON encoding of one action's name and parameters."""
    return {"name": action.name, "params": _encode_value(action.params)}


def decode_action(payload: dict) -> Action:
    """Inverse of :func:`encode_action`."""
    return Action(payload["name"], _decode_value(payload["params"]))


class Tracer:
    """The null tracer: every hook is a no-op.

    Subclasses override the hooks they care about. ``enabled`` lets
    non-hot-path callers (e.g. the CLI) skip expensive setup work; hot
    paths never check it.
    """

    enabled = False

    def run_start(self, horizon: float) -> None:
        """Called once before the engine loop begins."""
        pass

    def action(
        self,
        now: float,
        owner: str,
        action: Action,
        clock: Optional[float],
        visible: bool,
    ) -> None:
        """Called for every fired locally controlled action."""
        pass

    def injection(self, now: float, action: Action) -> None:
        """Called when an environment action is injected."""
        pass

    def advance(self, old_now: float, new_now: float, blocker: Optional[str]) -> None:
        """Called when time advances; ``blocker`` set the deadline."""
        pass

    def timelock(self, now: float, blocker: Optional[str]) -> None:
        """Called just before a :class:`TimelockError` is raised."""
        pass

    def run_end(self, now: float, steps: int) -> None:
        """Called once after the engine loop finishes."""
        pass

    def meta(self, payload: Dict[str, object]) -> None:
        """Called with run metadata (entity names, workload params)."""
        pass

    def close(self) -> None:
        """Flush and release any output resources."""
        pass

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


NULL_TRACER = Tracer()


class TeeTracer(Tracer):
    """Fans every hook out to several tracers, in the order given.

    The simulator tees its :class:`~repro.sim.recorder.Recorder` first,
    so a recorder overflow raises before a later tracer (a trace file,
    the chaos monitors) sees the overflowing action.
    """

    enabled = True

    def __init__(self, *tracers: Tracer):
        self.tracers = [t for t in tracers if t is not None]

    def run_start(self, horizon):
        for t in self.tracers:
            t.run_start(horizon)

    def action(self, now, owner, action, clock, visible):
        for t in self.tracers:
            t.action(now, owner, action, clock, visible)

    def injection(self, now, action):
        for t in self.tracers:
            t.injection(now, action)

    def advance(self, old_now, new_now, blocker):
        for t in self.tracers:
            t.advance(old_now, new_now, blocker)

    def timelock(self, now, blocker):
        for t in self.tracers:
            t.timelock(now, blocker)

    def run_end(self, now, steps):
        for t in self.tracers:
            t.run_end(now, steps)

    def meta(self, payload):
        for t in self.tracers:
            t.meta(payload)

    def close(self):
        for t in self.tracers:
            t.close()


class JsonlTracer(Tracer):
    """Writes one JSON object per event to a stream or file path.

    The first line is a format header; every following line carries a
    ``k`` discriminator (``run_start``, ``action``, ``inject``,
    ``advance``, ``timelock``, ``run_end``, ``span``, ``meta``).
    Deterministic for seeded runs: no wall-clock fields.

    With ``spans=True`` (the default) every fired action is also fed
    through a :class:`repro.obs.causal.SpanBook`, and the span records
    it produces are written right after the action that caused them —
    the "causal span" layer of the version-2 format. Span correlation
    only costs on this (already I/O-bound) enabled path; the disabled
    null tracer is untouched.
    """

    enabled = True

    def __init__(self, target, spans: bool = True):
        if spans:
            from repro.obs.causal import SpanBook

            self._book: Optional["SpanBook"] = SpanBook()
        else:
            self._book = None
        if isinstance(target, str):
            self._stream: IO[str] = open(target, "w")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self._write({"format": TRACE_FORMAT, "version": TRACE_VERSION})

    def _write(self, payload: Dict[str, object]) -> None:
        self._stream.write(json.dumps(payload, sort_keys=True))
        self._stream.write("\n")

    # -- hooks -------------------------------------------------------------

    def run_start(self, horizon: float) -> None:
        self._write({"k": "run_start", "horizon": horizon})

    def action(self, now, owner, action, clock, visible) -> None:
        self._write(
            {
                "k": "action",
                "now": now,
                "owner": owner,
                "a": encode_action(action),
                "clock": clock,
                "vis": visible,
            }
        )
        if self._book is not None:
            for record in self._book.observe(now, action.name, action.params, clock):
                self._write(record)

    def injection(self, now, action) -> None:
        self._write(
            {"k": "inject", "now": now, "a": encode_action(action)}
        )

    def advance(self, old_now, new_now, blocker) -> None:
        self._write(
            {"k": "advance", "from": old_now, "to": new_now, "blocker": blocker}
        )

    def timelock(self, now, blocker) -> None:
        self._write({"k": "timelock", "now": now, "blocker": blocker})

    def run_end(self, now, steps) -> None:
        self._write({"k": "run_end", "now": now, "steps": steps})

    def meta(self, payload) -> None:
        self._write({"k": "meta", "m": payload})

    @property
    def span_book(self):
        """The online :class:`~repro.obs.causal.SpanBook` (or ``None``)."""
        return self._book

    def close(self) -> None:
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()

    def __repr__(self) -> str:
        return f"<JsonlTracer stream={self._stream!r}>"


TRACE_KINDS_V1 = (
    "run_start", "action", "inject", "advance", "timelock", "run_end",
)
TRACE_KINDS = TRACE_KINDS_V1 + ("span", "meta")

KINDS_BY_VERSION = {1: TRACE_KINDS_V1, 2: TRACE_KINDS}
"""Record kinds each trace format version may carry."""


def read_trace(path: str) -> List[Dict[str, object]]:
    """Load a trace file written by :class:`JsonlTracer`.

    Accepts any supported format version, validates the header and that
    each record kind is legal *for that version* (a version-1 file
    containing ``span`` records, or a second header mid-file from a
    concatenated pair of traces, is rejected as mixed-version), decodes
    embedded actions back into
    :class:`~repro.automata.actions.Action` objects (under the ``action``
    key, alongside the raw payload), and returns the record dicts in
    file order.
    """
    records: List[Dict[str, object]] = []
    with open(path) as handle:
        header_line = handle.readline()
        if not header_line:
            raise ReproError("empty trace file")
        header = json.loads(header_line)
        if header.get("format") != TRACE_FORMAT:
            raise ReproError(f"not a repro obs trace file: {header!r}")
        version = header.get("version")
        if version not in SUPPORTED_TRACE_VERSIONS:
            raise ReproError(f"unsupported trace version {version!r}")
        kinds = KINDS_BY_VERSION[version]
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "format" in record and "k" not in record:
                raise ReproError(
                    f"mixed-version trace: a second header appears at "
                    f"line {lineno} (found {record!r}); each trace file "
                    f"must carry exactly one header"
                )
            kind = record.get("k")
            if kind not in kinds:
                if kind in TRACE_KINDS:
                    raise ReproError(
                        f"mixed-version trace: version-{version} file "
                        f"carries a {kind!r} record (line {lineno}), "
                        f"introduced in a later format version"
                    )
                raise ReproError(f"unknown trace record kind: {record!r}")
            if "a" in record:
                record["action"] = decode_action(record["a"])
            records.append(record)
    return records
