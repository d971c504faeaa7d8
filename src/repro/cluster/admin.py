"""The cluster's control plane: join, rebalance, status.

Three coroutines over a :class:`~repro.cluster.ClusterClient` — the one
pooled, timeout-bounded, breaker-protected path to every member — so a
shell command, a test and a benchmark run the same steps. What a map
*is* after a membership change is decided by
:meth:`~repro.cluster.ClusterMap.with_members` (the one successor; it
carries replica placement), how a map crosses the wire by
:func:`~repro.cluster.client.fetch_map` / ``push_map``. ``repro.cli``
keeps argument parsing and table rendering.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from .client import ClusterClient, push_map
from .map import ClusterMap, NodeInfo


async def publish(
    client: ClusterClient, new_map: ClusterMap, skip: Sequence[str] = ()
) -> None:
    """Push ``new_map`` to every node it names except ``skip`` (a node
    not running yet). The client adopts it first: its directory is how
    the new members are reached."""
    client.map = new_map
    for node_id in new_map.nodes:
        if node_id not in skip:
            await push_map(await client.node(node_id), new_map)


async def migrate(
    client: ClusterClient, shard: int, dest_id: str
) -> Dict[str, object]:
    """Live-migrate ``shard`` to ``dest_id``: ``MIGRATE`` to its owner,
    then re-fetch the owner's post-flip map; returns the owner's stats."""
    owner = client.map.owner(shard)
    reply = await (await client.node(owner.node_id)).command(
        ["MIGRATE", str(shard), dest_id]
    )
    await client.refresh(owner.host, owner.port)
    return json.loads(reply[1])


async def join(
    client: ClusterClient,
    node_id: str,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> ClusterMap:
    """The map for ``node_id`` to boot from, making it a member first.

    A node already in the directory (a restart) gets the current map and
    nothing is published. A new one needs the ``host`` / ``port`` the
    others will reach it at: the membership successor is published to
    every current member. Shards arrive later, by :func:`rebalance`.
    """
    current = client.map
    if node_id not in current.nodes:
        if host is None or port is None:
            raise ConfigError(
                f"joining a new node {node_id!r} needs the host and port "
                "the other members will reach it at"
            )
        grown = [*current.nodes.values(), NodeInfo(node_id, host, port)]
        await publish(client, current.with_members(grown), skip=(node_id,))
    return client.map


async def rebalance(
    client: ClusterClient,
    desired: Sequence[NodeInfo] = (),
    *,
    dry_run: bool = False,
) -> Tuple[List[Tuple[int, str, str]], List[Dict[str, object]]]:
    """Move shards until ``desired`` (default: the current members) is
    evenly loaded; returns ``(plan, stats)``.

    ``plan`` is :meth:`~repro.cluster.ClusterMap.plan_moves` as ``(shard,
    from, to)`` rows; ``stats`` one ``MIGRATE`` answer per move made —
    none on a dry run. Joining nodes must be in the directory before
    ``MIGRATE`` can target them, so they are published first (and must
    be running: they receive the map too).
    """
    current = client.map
    members = list(desired) or sorted(
        current.nodes.values(), key=lambda node: node.node_id
    )
    plan = [
        (shard, current.owner_id(shard), dest)
        for shard, dest in current.plan_moves(members)
    ]
    if dry_run or not plan:
        return plan, []
    joining = [node for node in members if node.node_id not in current.nodes]
    if joining:
        await publish(
            client, current.with_members([*current.nodes.values(), *joining])
        )
    return plan, [await migrate(client, shard, dest) for shard, _, dest in plan]


async def status(
    client: ClusterClient, timeout_s: float
) -> Tuple[ClusterMap, List[tuple], List[tuple]]:
    """Poll every member's ``HEALTH``; returns the map the report is
    relative to, then ``(node, address, shards, replica-of, health,
    epoch, heartbeat)`` per member and ``(shard, primary, replica,
    state, lag-records, lag-bytes, missed)`` per replicated shard, as
    its primary reports it.

    Members are asked concurrently, each bounded by ``timeout_s`` and
    the whole poll by ``timeout_s`` once more, so a hung node costs one
    timeout in total, not one per node ahead of it in the roster.
    """
    cluster_map = client.map
    members = sorted(cluster_map.nodes)
    healths: Dict[str, dict] = {}
    errors = dict.fromkeys(members, "status poll timed out")

    async def ask(node_id: str) -> dict:
        return await (await client.node(node_id)).health()

    async def probe(node_id: str) -> None:
        try:
            healths[node_id] = await asyncio.wait_for(ask(node_id), timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            errors[node_id] = str(exc) or type(exc).__name__

    try:
        await asyncio.wait_for(
            asyncio.gather(*(probe(node_id) for node_id in members)), timeout_s
        )
    except asyncio.TimeoutError:
        pass
    node_rows = []
    for node_id in members:
        # Liveness as the freshest heartbeat age any *peer* reports: a
        # node can answer HEALTH yet be partitioned from the ring.
        ages = [
            health["peers"][node_id]
            for peer_id, health in healths.items()
            if peer_id != node_id and node_id in health.get("peers", {})
        ]
        if node_id in healths:
            state = healths[node_id].get("state", "?")
            epoch = healths[node_id].get("epoch", "?")
        else:
            state, epoch = f"unreachable ({errors[node_id]})", "-"
        node_rows.append(
            (
                node_id,
                cluster_map.nodes[node_id].address,
                ",".join(map(str, cluster_map.shards_of(node_id))),
                ",".join(map(str, cluster_map.replicas_of(node_id))) or "-",
                state,
                epoch,
                f"{min(ages):.1f}s ago" if ages else "-",
            )
        )
    shard_rows = []
    for shard, replica_id in enumerate(cluster_map.replicas):
        if replica_id is not None:
            owner_id = cluster_map.owner_id(shard)
            ship = healths.get(owner_id, {}).get("replication", {})
            ship = ship.get(str(shard), {})
            shard_rows.append(
                (shard, owner_id, replica_id)
                + tuple(
                    ship.get(field, "?")
                    for field in (
                        "state", "lag_records", "lag_bytes", "missed_records"
                    )
                )
            )
    return cluster_map, node_rows, shard_rows
