"""Tests for the control plane: :mod:`repro.cluster.admin` over a
:class:`ClusterClient` against :func:`repro.cluster.local_cluster`."""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterNode,
    NodeInfo,
    NodeStore,
    admin,
    local_cluster,
    wait_until,
)
from repro.core.config import LSMConfig
from repro.errors import ConfigError

#: Detection-and-promotion in well under a second (as the failover suite).
FAST = {"heartbeat_interval_s": 0.1, "lease_timeout_s": 0.6}


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


async def _join_and_start(tmp_path, servers, stores, client, node_id="c"):
    """What ``cluster serve --join`` does: join at a known address, save
    the map handed back, recover from it, serve (appended to the
    cluster's lists, so stopped and killed with it)."""
    port = _free_port()
    joined = await admin.join(client, node_id, "127.0.0.1", port)
    node_dir = tmp_path / node_id
    node_dir.mkdir()
    joined.save(str(node_dir))
    store = NodeStore.recover(node_id, LSMConfig(), str(node_dir))
    stores.append(store)
    server = ClusterNode(store, **FAST)
    servers.append(server)
    await server.start()
    assert server.port == port


class TestJoin:
    def test_known_node_gets_the_map_and_nothing_is_published(self, tmp_path):
        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                async with await ClusterClient.connect(
                    "127.0.0.1", servers[0].port
                ) as client:
                    assert await admin.join(client, "b") == live
                assert [store.map.epoch for store in stores] == [live.epoch] * 2

        asyncio.run(scenario())

    def test_new_node_is_published_to_every_member(self, tmp_path):
        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **FAST
            ) as (servers, stores, live):
                async with await ClusterClient.connect(
                    "127.0.0.1", servers[1].port
                ) as client:
                    with pytest.raises(ConfigError, match="host and port"):
                        await admin.join(client, "c")
                    joined = await admin.join(client, "c", "127.0.0.1", 7613)
                    assert client.map == joined
                assert joined.epoch == live.epoch + 1
                assert joined.nodes["c"] == NodeInfo("c", "127.0.0.1", 7613)
                assert joined.assignments == live.assignments
                assert joined.replicas == live.replicas
                for store in stores:
                    assert store.map == joined

        asyncio.run(scenario())


class TestRebalance:
    def test_dry_run_returns_the_plan_and_moves_nothing(self, tmp_path):
        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                desired = [*live.nodes.values(), NodeInfo("c", "127.0.0.1", 7613)]
                async with await ClusterClient.connect(
                    "127.0.0.1", servers[0].port
                ) as client:
                    plan, stats = await admin.rebalance(
                        client, desired, dry_run=True
                    )
                    assert plan == [
                        (shard, live.owner_id(shard), dest)
                        for shard, dest in live.plan_moves(desired)
                    ]
                    assert plan and stats == []
                    # already balanced over the current members
                    assert await admin.rebalance(client) == ([], [])
                for store in stores:
                    assert store.map == live

        asyncio.run(scenario())

    def test_rebalance_onto_a_joined_node(self, tmp_path):
        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **FAST
            ) as (servers, stores, live):
                keys = [f"rk{index:03d}" for index in range(60)]
                async with await ClusterClient.connect(
                    "127.0.0.1", servers[0].port
                ) as client:
                    for key in keys:
                        await client.put(key, f"v-{key}")
                    await _join_and_start(tmp_path, servers, stores, client)
                    desired = list(client.map.nodes.values())
                    plan, stats = await admin.rebalance(client, desired)
                    final = client.map
                assert [(s["shard"], s["from"], s["to"]) for s in stats] == plan
                assert all(dest == "c" for _, _, dest in plan)
                loads = [len(final.shards_of(node)) for node in "abc"]
                assert max(loads) - min(loads) <= 1
                assert final.epoch == live.epoch + 1 + len(plan)
                for store in stores:
                    assert store.owned_shards() == final.shards_of(store.node_id)
                # placement carried: a slot clears only where the shard
                # moved onto its own replica node
                for shard, replica in enumerate(live.replicas):
                    moved_onto_replica = final.owner_id(shard) == replica
                    assert final.replica_id(shard) == (
                        None if moved_onto_replica else replica
                    )
                assert None not in final.replicas  # c replicated nothing
                await wait_until(
                    lambda: all(
                        shipper.streaming
                        for server in servers
                        for shipper in server._shippers.values()
                    )
                    and sum(len(server._shippers) for server in servers)
                    == live.num_shards,
                    "the moved shard's new primary never streamed to its standby",
                )
                async with await ClusterClient.connect(
                    "127.0.0.1", servers[1].port
                ) as fresh:
                    assert fresh.map == final
                    for key in keys:
                        assert await fresh.get(key) == f"v-{key}"

        asyncio.run(scenario())


class TestStatus:
    def test_a_stopped_member_reads_unreachable_within_the_timeout(
        self, tmp_path
    ):
        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **FAST
            ) as (servers, stores, live):
                async with await ClusterClient.connect(
                    "127.0.0.1", servers[0].port, timeout_s=1.0
                ) as client:
                    await servers[1].stop()
                    started = time.monotonic()
                    used, node_rows, shard_rows = await admin.status(
                        client, 1.0
                    )
                    assert used == live
                    assert time.monotonic() - started < 1.0
                row_a, row_b = node_rows
                assert row_a[:4] == (
                    "a", live.nodes["a"].address, "0,2", "1,3"
                )
                assert row_a[4] == "healthy" and row_a[5] >= live.epoch
                assert row_b[:4] == (
                    "b", live.nodes["b"].address, "1,3", "0,2"
                )
                assert row_b[4].startswith("unreachable (")
                assert row_b[5] == "-"
                # the survivor's shippers report; the dead primary's
                # shards have nobody to
                assert [row[:3] for row in shard_rows] == [
                    (0, "a", "b"), (1, "b", "a"), (2, "a", "b"), (3, "b", "a")
                ]
                for row in shard_rows:
                    if row[1] == "a":
                        assert row[3] in ("streaming", "retrying", "seeding")
                        assert "?" not in row[4:]
                    else:
                        assert row[3:] == ("?", "?", "?", "?")

        asyncio.run(scenario())
