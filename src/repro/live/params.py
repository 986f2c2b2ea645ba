"""Parameters of a live register cluster, and the service manifest.

The live service runs in *wall-clock seconds*: ``d1``/``d2``/``eps`` and
friends are real durations, not virtual-time units. The defaults are
sized so a loopback cluster completes hundreds of operations in a few
seconds while keeping the Theorem 6.5 terms (``2*eps``, ``delta``, the
``[0, d2' - 2*eps]`` range for ``c``) comfortably larger than typical
scheduler jitter.

A *manifest* is the JSON file ``python -m repro serve`` writes so an
out-of-process ``python -m repro load --connect`` can find the node
addresses and run against the exact parameters the service was built
with.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.core.pipeline import simulation1_delay_bounds
from repro.errors import LiveServiceError

MANIFEST_FORMAT = "repro-live-manifest"
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class LiveParams:
    """Protocol and clock parameters of one live cluster (Theorem 6.5).

    The three fault-tolerance knobs size the client's patience and the
    peer mesh's retransmission cadence for chaos runs:

    - ``op_timeout`` — per-operation client timeout (seconds); a node
      that dies mid-operation surfaces as a timed-out
      :class:`~repro.traces.linearizability.Operation`, never a hang;
    - ``retry_max`` — client attempts per operation (1 = no retry);
    - ``retry_base`` — base gap of the client's seeded
      :class:`~repro.faults.retransmit.BackoffPolicy`, and the peer
      ``ReliableAdapter``'s interval under a fault plan (it retries
      until acked).
    """

    n: int = 3
    d1: float = 0.0
    d2: float = 0.05
    eps: float = 0.01
    c: float = 0.02
    delta: float = 0.005
    driver: str = "mixed"
    seed: int = 0
    op_timeout: float = 1.0
    retry_max: int = 1
    retry_base: float = 0.05

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one node")
        if not 0 <= self.d1 <= self.d2:
            raise ValueError(f"invalid delay bounds [{self.d1:g}, {self.d2:g}]")
        if self.eps < 0:
            raise ValueError("eps must be non-negative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.op_timeout <= 0:
            raise ValueError("op_timeout must be positive")
        if self.retry_max < 1:
            raise ValueError("retry_max must be at least 1")
        if self.retry_base <= 0:
            raise ValueError("retry_base must be positive")

    @property
    def d2_prime(self) -> float:
        """The design-model upper delay bound ``d2' = d2 + 2*eps``."""
        return simulation1_delay_bounds(self.d1, self.d2, self.eps)[1]

    def to_dict(self) -> dict:
        """The manifest/trace-meta representation (plain JSON types)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "LiveParams":
        return cls(**payload)


def write_manifest(path: str, params: LiveParams, addresses) -> None:
    """Write the service manifest for out-of-process load generators."""
    payload = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "params": params.to_dict(),
        "addresses": [[host, port] for host, port in addresses],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_manifest(path: str):
    """Load a manifest; returns ``(params, addresses)``."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise LiveServiceError(f"cannot read manifest {path}: {exc}")
    if payload.get("format") != MANIFEST_FORMAT:
        raise LiveServiceError(
            f"{path}: not a live-service manifest "
            f"(format {payload.get('format')!r})"
        )
    if payload.get("version") != MANIFEST_VERSION:
        raise LiveServiceError(
            f"{path}: unsupported manifest version {payload.get('version')!r}"
        )
    try:
        params = LiveParams.from_dict(payload["params"])
        addresses = [(host, int(port)) for host, port in payload["addresses"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise LiveServiceError(f"{path}: malformed manifest: {exc}")
    if len(addresses) != params.n:
        raise LiveServiceError(
            f"{path}: manifest lists {len(addresses)} addresses "
            f"for n={params.n}"
        )
    return params, addresses
