"""Load clients: replay an ``OpSchedule`` against a live node.

A :class:`LiveLoadClient` is the live twin of the simulator's
:class:`~repro.registers.workload.ClientEntity` in replay mode: both
walk the same :class:`~repro.registers.opstream.OpSchedule`, issuing one
operation at a time (the alternation condition) with the planned think
time after each response. Each operation is recorded as a
:class:`~repro.traces.linearizability.Operation` whose ``op_id`` is its
schedule index. Invocation and response instants are taken on
the load generator's own clock — one shared epoch across all clients,
so the recorded history is a consistent real-time order, which is
exactly what the linearizability definition quantifies over.

**Fault tolerance.** In its default configuration (no timeout, no retry
policy) the client is byte-compatible with the pre-chaos protocol: it
sends untagged ``read``/``write`` frames and raises on any connection
failure. Chaos runs arm three extra layers:

- a per-operation timeout (``op_timeout``), so a node that dies
  mid-operation produces a timed-out record instead of a hung
  ``readline`` — the record's ``outcome`` is ``"timeout"`` and its
  ``res_time`` is the instant the client gave up;
- seeded retry with the chaos layer's
  :class:`~repro.faults.retransmit.BackoffPolicy` (``max_attempts`` per
  op); retried invocations carry a ``cid`` and the schedule index
  ``op``, so the node can replay a cached response instead of executing
  a write twice (``outcome`` is ``"retried"`` on a retried success);
- automatic reconnection: any failed attempt tears the connection down
  and the next attempt re-dials, riding out node crash/recovery.

A timed-out *write* may still take effect later (the node executes it
but the response is lost); the load generator handles that by treating
timed-out writes as possibly-effective when building the
linearizability history.
"""

from __future__ import annotations

import asyncio
import time
from typing import List, Optional, Tuple

from repro.errors import LiveServiceError
from repro.faults.retransmit import BackoffPolicy
from repro.live.wire import decode_frame, encode_frame
from repro.registers.opstream import OpSchedule
from repro.traces.linearizability import Operation


class LiveLoadClient:
    """One closed-loop client driving one node over a TCP connection."""

    def __init__(
        self,
        node: int,
        schedule: OpSchedule,
        address: Tuple[str, int],
        epoch: float,
        cid: Optional[str] = None,
        op_timeout: Optional[float] = None,
        retry: Optional[BackoffPolicy] = None,
        max_attempts: int = 1,
        retry_base: float = 0.05,
    ):
        if schedule.node != node:
            raise ValueError(
                f"schedule is for node {schedule.node}, client is node {node}"
            )
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.node = node
        self.schedule = schedule
        self.address = address
        self.epoch = epoch
        self.cid = cid
        self.op_timeout = op_timeout
        self.retry = retry
        self.max_attempts = max_attempts
        self.retry_base = retry_base
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    def _now(self) -> float:
        return time.monotonic() - self.epoch

    @property
    def _fault_tolerant(self) -> bool:
        return self.op_timeout is not None or self.max_attempts > 1

    async def _connect(self) -> None:
        if self._writer is not None and not self._writer.is_closing():
            return
        self._reader, self._writer = await asyncio.open_connection(
            *self.address
        )

    def _disconnect(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
            except RuntimeError:
                pass
        self._reader = None
        self._writer = None

    def _request(self, op) -> dict:
        if op.kind == "R":
            request = {"t": "read"}
        else:
            request = {"t": "write", "value": list(op.value)}
        if self.cid is not None:
            request["cid"] = self.cid
            request["op"] = op.index
        return request

    async def _attempt(self, op) -> object:
        """One request/response round trip; returns the response's value
        (``None`` for an ack).

        Raises ``LiveServiceError``/``OSError``/``TimeoutError`` on any
        failure; the caller decides whether to retry.
        """
        await self._connect()
        self._writer.write(encode_frame(self._request(op)))
        read = self._reader.readline()
        if self.op_timeout is not None:
            line = await asyncio.wait_for(read, self.op_timeout)
        else:
            line = await read
        if not line:
            raise LiveServiceError(
                f"client {self.node}: connection closed mid-operation "
                f"(op #{op.index})"
            )
        frame = decode_frame(line)
        expected = "return" if op.kind == "R" else "ack"
        if frame["t"] != expected:
            raise LiveServiceError(
                f"client {self.node}: expected {expected}, got "
                f"{frame['t']!r}"
            )
        return frame["value"] if op.kind == "R" else None

    async def run(self) -> List[Operation]:
        """Replay the schedule; returns the timed operation records."""
        records: List[Operation] = []
        try:
            if self.schedule.start_delay > 0:
                await asyncio.sleep(self.schedule.start_delay)
            for op in self.schedule.ops:
                records.append(await self._run_op(op))
                if op.think_after > 0:
                    await asyncio.sleep(op.think_after)
        finally:
            self._disconnect()
        return records

    async def _run_op(self, op) -> Operation:
        arg = None if op.kind == "R" else op.value
        inv = self._now()
        for attempt in range(self.max_attempts):
            if attempt > 0:
                gap = self.retry_base
                if self.retry is not None:
                    gap = self.retry.gap(
                        self.retry_base, attempt,
                        dst=self.node, seq=op.index,
                    )
                await asyncio.sleep(gap)
            try:
                response = await self._attempt(op)
            except (
                asyncio.TimeoutError,
                ConnectionError,
                OSError,
                LiveServiceError,
            ):
                self._disconnect()
                if not self._fault_tolerant:
                    raise
                continue
            outcome = "ok" if attempt == 0 else "retried"
            return Operation(
                op.index, self.node, op.kind, arg, response, inv, self._now(),
                outcome, attempt + 1,
            )
        # every attempt failed: a timed-out record, not a crashed run
        return Operation(
            op.index, self.node, op.kind, arg, None, inv, self._now(),
            "timeout", self.max_attempts,
        )
