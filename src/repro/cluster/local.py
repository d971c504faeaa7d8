"""An in-process two-node cluster on real sockets: the one bootstrap.

Every harness that wants a live cluster inside one event loop — the
wire tests, the partition runs of the fault sweep, the availability
benchmarks — needs the same dance, because a :class:`NodeStore`
persists its boot map at construction and a port is only known once its
server listens: boot every node on port 0 under an epoch-0 map, rebuild
the map from the resolved ports at epoch 1, install it everywhere, start
the shippers it asks for, and wait until the standbys are seeded.
:func:`local_cluster` is that dance, once, with teardown in a
``finally`` so a harness that raises leaks no listener.
"""

from __future__ import annotations

import asyncio
import os
import time
from contextlib import asynccontextmanager
from itertools import permutations
from typing import AsyncIterator, Callable, List, Optional, Tuple

from ..core.config import LSMConfig
from ..faults.net import NetFaultPlan, NetProxy
from .map import ClusterMap, NodeInfo
from .node import ClusterNode
from .store import NodeStore

NODE_IDS = ("a", "b")
NUM_SHARDS = 4

#: Map shapes :func:`local_cluster` builds. ``even``: shards round-robin
#: over both nodes, no replicas. ``replicated``: the same, each shard's
#: standby on the other node. ``standby``: the designated topology —
#: ``a`` owns every shard and ``b`` is a pure standby, so a symmetric
#: cut cannot produce two same-epoch owners.
SHAPES = ("even", "replicated", "standby")

#: What :func:`local_cluster` yields: the servers and the stores (one
#: per node, ``a`` first) and the live map.
LocalCluster = Tuple[List[ClusterNode], List[NodeStore], ClusterMap]


async def wait_until(
    condition: Callable[[], object], message: str, deadline_s: float = 10.0
) -> None:
    """Poll ``condition`` every 20 ms; :class:`TimeoutError` carrying
    ``message`` once ``deadline_s`` passed without it holding."""
    start = time.monotonic()
    while not condition():
        if time.monotonic() - start > deadline_s:
            raise TimeoutError(message)
        await asyncio.sleep(0.02)


def _shaped_map(shape: str, ports: List[int], live: bool) -> ClusterMap:
    """The boot map (epoch 0, no replicas: nothing ships towards port
    0) or the live one (epoch 1, with the shape's replicas)."""
    if shape not in SHAPES:
        raise ValueError(f"shape must be one of {SHAPES}, got {shape!r}")
    nodes = [
        NodeInfo(node_id, "127.0.0.1", port)
        for node_id, port in zip(NODE_IDS, ports)
    ]
    if shape == "standby":
        replicas = ["b"] * NUM_SHARDS if live else None
        return ClusterMap(
            ["a"] * NUM_SHARDS, nodes, epoch=int(live), replicas=replicas
        )
    return ClusterMap.even(
        NUM_SHARDS, nodes, epoch=int(live), replicated=live and shape != "even"
    )


@asynccontextmanager
async def local_cluster(
    root: str | os.PathLike[str],
    *,
    shape: str = "even",
    config: Optional[LSMConfig] = None,
    net_plan: Optional[NetFaultPlan] = None,
    **node_options: object,
) -> AsyncIterator[LocalCluster]:
    """Run nodes ``a`` and ``b`` on ``127.0.0.1`` under ``root/<id>``,
    :data:`NUM_SHARDS` shards between them.

    Args:
        shape: One of :data:`SHAPES`.
        config: Per-shard engine configuration, shared by both nodes.
        net_plan: A :class:`~repro.faults.net.NetFaultPlan`; when given,
            each directed node-to-node link dials through its own
            :class:`~repro.faults.net.NetProxy` driven by the plan (the
            relay's address is in the dialling ``server.dial_overrides``).
        node_options: Forwarded to each node's :class:`ClusterNode`
            (heartbeat and lease timing, ``self_fence``, …).

    Yields a :data:`LocalCluster` once every standby the live map asks
    for is promotable and every shipper is streaming (at once for
    ``even``). On exit — normal or not — every server (one appended to
    the yielded list included: a restarted node, a joiner) and proxy is
    stopped and every store killed, whatever state the caller left them
    in.
    """
    boot = _shaped_map(shape, [0, 0], live=False)
    stores: List[NodeStore] = []
    servers: List[ClusterNode] = []
    proxies: List[NetProxy] = []
    try:
        for node_id in NODE_IDS:
            wal_dir = os.path.join(root, node_id)
            stores.append(NodeStore(node_id, boot, config, wal_dir=wal_dir))
            servers.append(
                ClusterNode(stores[-1], host="127.0.0.1", port=0, **node_options)
            )
            await servers[-1].start()
        by_id = dict(zip(NODE_IDS, servers))
        if net_plan is not None:
            for src, dst in permutations(NODE_IDS, 2):
                proxy = NetProxy(
                    "127.0.0.1", by_id[dst].port, src=src, dst=dst, plan=net_plan
                )
                await proxy.start()
                proxies.append(proxy)
                by_id[src].dial_overrides[dst] = ("127.0.0.1", proxy.port)
        ports = [server.port for server in servers]
        live = _shaped_map(shape, ports, live=True)
        for store in stores:
            store.adopt_map(live)
        for server in servers:
            server._reconcile_replication()
        await wait_until(
            lambda: all(
                store.promotable_shards() == live.replicas_of(store.node_id)
                for store in stores
            )
            and all(
                shipper.streaming
                for server in servers
                for shipper in server._shippers.values()
            ),
            "local cluster never finished seeding its standbys",
            15.0,
        )
        yield servers, stores, live
    finally:
        await asyncio.gather(
            *(server.stop() for server in servers), return_exceptions=True
        )
        await asyncio.gather(
            *(proxy.stop() for proxy in proxies), return_exceptions=True
        )
        for store in stores:
            store.kill()
