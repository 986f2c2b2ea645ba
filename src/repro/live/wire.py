"""Wire protocol of the live register service: JSON lines over TCP.

One frame per line, one JSON object per frame, discriminated by ``t``:

========== =============================================== ============
``t``      fields                                          direction
========== =============================================== ============
``hello``  ``src``                                         peer -> peer
``msg``    ``src``, ``m`` (``[value, t]``), ``stamp``,     peer -> peer
           ``sr`` (sender's real time, for wire-delay
           measurement within one shared-epoch process,
           read once per broadcast: a write's frames to
           every peer are one frame, encoded once);
           under a fault plan ``m`` is the simulator's
           ARQ adapter frame, ``["DATA", seq, [value, t]]``
           or ``["ACK", seq]``, and a ``DATA`` frame also
           carries ``s0`` (real time of its *first*
           transmission attempt, so the channel monitor
           can judge end-to-end lateness)
``read``   — (optional ``cid``, ``op``)                    client -> node
``write``  ``value`` (optional ``cid``, ``op``)            client -> node
``return`` ``value``                                       node -> client
``ack``    —                                               node -> client
``stats``  — (request) / measurement fields (reply)        client <-> node
``error``  ``reason``                                      node -> client
========== =============================================== ============

The optional invocation fields are the multi-connection protocol: a
``cid`` names the issuing client (per-*client* alternation — one node
serializes concurrent clients into the single-op Figure 3 automaton),
and ``op`` is the client's schedule index, which lets the node recognize
a *retry* of an operation it already executed and replay the cached
response instead of executing twice (at-most-once semantics across
client reconnects and node crash recovery). Clients that send neither —
the default single-connection load generator — produce byte-identical
traffic to the pre-chaos protocol, as do fault-free peer links (ARQ
frames and ``s0`` appear only when a fault plan armed the ARQ layer).

The ``stamp`` on a ``msg`` frame is the Figure 2 send-buffer tag: the
sender's *clock* time at emission. The receiving node enqueues the frame
into its ``R_{ji,eps}`` buffer, which holds it until the local clock
reaches the stamp — the buffers themselves are the simulator's
:mod:`repro.core.buffers`, reused unchanged as wire middleware.

JSON has no tuple type, but register values are tuples
(``("v", node, seq)``) whose *equality* the linearizability checker
depends on; :func:`tuplify` restores them recursively on decode so a
value survives the wire round-trip identically.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.errors import LiveServiceError

MAX_FRAME_BYTES = 1 << 16


def tuplify(value):
    """Recursively convert JSON lists back into tuples.

    Register values travel as tuples and are compared by equality in
    the linearizability checker; a JSON round-trip would silently turn
    ``("v", 0, 1)`` into ``["v", 0, 1]`` and break every read-validation
    comparison. Dicts keep their type (values converted).
    """
    if isinstance(value, list):
        return tuple(map(tuplify, value))
    if isinstance(value, dict):
        return {key: tuplify(item) for key, item in value.items()}
    return value


#: ``json.dumps`` with ``separators`` builds an encoder per call; this
#: one is built once and writes the same bytes.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_frame(frame: Dict[str, object]) -> bytes:
    """One frame as a newline-terminated JSON line."""
    return (_ENCODER.encode(frame) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> Dict[str, object]:
    """Parse one received line; payload lists come back as tuples."""
    if len(line) > MAX_FRAME_BYTES:
        raise LiveServiceError(f"oversized frame ({len(line)} bytes)")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LiveServiceError(f"malformed frame: {exc}")
    if not isinstance(payload, dict) or "t" not in payload:
        raise LiveServiceError(f"frame is not a tagged object: {payload!r}")
    for key, value in payload.items():
        if isinstance(value, (list, dict)):
            payload[key] = tuplify(value)
    return payload
