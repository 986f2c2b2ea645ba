"""Cluster lifecycle: start ``n`` nodes, wire the mesh, serve stats.

A :class:`LiveCluster` owns one :class:`~repro.live.node.LiveRegisterNode`
per processor, all sharing a single epoch (so their real-time axes — and
hence the ``C_eps`` envelopes — agree) and a
:func:`~repro.sim.clock_drivers.driver_factory` assignment of clock
adversaries by node index, exactly as the simulator assigns them. The
nodes also share one tracer, so a cluster emits one observation stream
on one real-time axis, as a simulator run does.

Startup is two-phase, mirroring the paper's composition: first every
node binds its server socket (ephemeral ports, so parallel test runs
never collide), then every node dials every other — no message can
arrive before the full mesh exists.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Tuple

from repro.errors import LiveServiceError
from repro.live.node import LiveRegisterNode
from repro.live.params import LiveParams, write_manifest
from repro.live.wire import decode_frame, encode_frame
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.sim.clock_drivers import driver_factory


class LiveCluster:
    """``n`` live register nodes on loopback, sharing one epoch."""

    def __init__(
        self,
        params: LiveParams,
        host: str = "127.0.0.1",
        metrics=NULL_METRICS,
        tracer=NULL_TRACER,
    ):
        self.params = params
        self.host = host
        self.epoch = time.monotonic()
        make_driver = driver_factory(params.driver, params.eps, seed=params.seed)
        self.nodes: List[LiveRegisterNode] = [
            LiveRegisterNode(
                i, params, make_driver(i), self.epoch, host=host,
                metrics=metrics, tracer=tracer,
            )
            for i in range(params.n)
        ]

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        return [(node.host, node.port) for node in self.nodes]

    async def start(self) -> List[Tuple[str, int]]:
        """Bind all servers, then connect the full peer mesh."""
        for node in self.nodes:
            await node.start()
        addresses = self.addresses
        for node in self.nodes:
            await node.connect_peers(addresses)
        return addresses

    async def stop(self) -> None:
        """Stop every node (timers, peer links, server sockets)."""
        for node in self.nodes:
            await node.stop()

    def write_manifest(self, path: str) -> None:
        """Write this cluster's service manifest for external loaders."""
        write_manifest(path, self.params, self.addresses)

    def stats(self) -> List[Dict[str, object]]:
        """Node-side measurements, read directly (in-process clusters)."""
        return [node.stats() for node in self.nodes]

    def __repr__(self) -> str:
        return f"<LiveCluster n={self.params.n} @ {self.host}>"


async def fetch_stats(
    addresses: List[Tuple[str, int]], timeout: float = 5.0
) -> List[Dict[str, object]]:
    """The stats RPC: ask every node for its measurements over the wire.

    Works for out-of-process services (``load --connect``) as well as
    in-process ones, so the report's measured-``eps`` substitution does
    not depend on how the cluster was started.
    """

    async def one(host: str, port: int) -> Dict[str, object]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(encode_frame({"t": "stats"}))
            line = await asyncio.wait_for(reader.readline(), timeout)
        finally:
            writer.close()
        if not line:
            raise LiveServiceError(f"{host}:{port}: no stats reply")
        frame = decode_frame(line)
        if frame.get("t") != "stats":
            raise LiveServiceError(
                f"{host}:{port}: unexpected stats reply {frame.get('t')!r}"
            )
        return frame

    return list(await asyncio.gather(
        *(one(host, port) for host, port in addresses)
    ))
