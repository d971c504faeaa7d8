"""Tests for cross-node replication, failure detection, and failover.

Local tests drive the :class:`NodeStore` replication primitives and
:func:`replicate_local` directly; wire tests follow the cluster-suite
conventions (``asyncio.run`` inside synchronous tests, the cluster from
:func:`repro.cluster.local_cluster`) and use short heartbeat intervals /
lease timeouts so detection-and-promotion finishes in test time.
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import AsyncExitStack
from typing import List, Optional, Tuple

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterMap,
    ClusterNode,
    NodeInfo,
    NodeStore,
    local_cluster,
    migrate_shard,
    replicate_local,
    wait_until,
)
from repro.cluster.store import MIGRATION, REPLICA
from repro.core.config import LSMConfig
from repro.errors import ConfigError, ShardMovedError
from repro.faults import inject_worker_death
from repro.server.client import KVClient, MovedError
from repro.shard import hash_shard_index, keys_for_shard

NUM_SHARDS = 4
#: Wire tests: detection-and-promotion in well under a second.
FAST = {"heartbeat_interval_s": 0.1, "lease_timeout_s": 0.6}


def _nodes(*specs: Tuple[str, int]) -> List[NodeInfo]:
    return [NodeInfo(node_id, "127.0.0.1", port) for node_id, port in specs]


def _replicated_stores(tmp_path, config: Optional[LSMConfig] = None):
    """Two NodeStores sharing a replicated even map (a: 0,2 / b: 1,3)."""
    cluster_map = ClusterMap.even(
        NUM_SHARDS, _nodes(("a", 7411), ("b", 7412)), replicated=True
    )
    stores = {
        node_id: NodeStore(
            node_id,
            cluster_map,
            config or LSMConfig(),
            wal_dir=str(tmp_path / node_id),
        )
        for node_id in ("a", "b")
    }
    return cluster_map, stores


def _track_open_trees(store: NodeStore, shard: int):
    """A probe for "how many trees are open on ``shard``'s directory".

    Records every tree ``store`` opens over the directory from now on
    (tracked in a table or not — a tree a table forgot is exactly the
    zombie this guards against) and returns a callable asserting that at
    most one of them, and of the tables' entries (inbound ∪ serving), is
    open.
    """
    opened = []
    real_open = store._forest._open_tree

    def recording_open(index, committed=None):
        tree = real_open(index, committed)
        if index == shard:
            opened.append(tree)
        return tree

    store._forest._open_tree = recording_open

    def check() -> None:
        tracked = int(shard in store._inbound) + int(shard in store.trees)
        live = [tree for tree in opened if not tree._closed]
        assert tracked <= 1, f"{tracked} tables hold shard {shard}"
        assert len(live) <= 1, f"{len(live)} trees open on one directory"

    return check


# ---------------------------------------------------------------------------
# ClusterMap replica placement
# ---------------------------------------------------------------------------


class TestReplicaMap:
    def test_even_replicated_places_replica_on_next_node(self):
        cluster_map = ClusterMap.even(
            NUM_SHARDS, _nodes(("a", 1), ("b", 2)), replicated=True
        )
        assert cluster_map.replicas_of("a") == [1, 3]
        assert cluster_map.replicas_of("b") == [0, 2]
        for shard in range(NUM_SHARDS):
            assert cluster_map.replica_id(shard) != cluster_map.owner_id(
                shard
            )

    def test_even_replicated_needs_two_nodes(self):
        with pytest.raises(ConfigError):
            ClusterMap.even(NUM_SHARDS, _nodes(("a", 1)), replicated=True)

    def test_replicas_survive_json_roundtrip(self):
        cluster_map = ClusterMap.even(
            NUM_SHARDS, _nodes(("a", 1), ("b", 2)), replicated=True
        )
        restored = ClusterMap.from_json(cluster_map.to_json())
        assert restored.replicas == cluster_map.replicas
        # Maps written before replication existed load replica-free.
        payload = cluster_map.to_dict()
        del payload["replicas"]
        legacy = ClusterMap.from_dict(payload)
        assert legacy.replica_id(0) is None

    def test_with_failover_swaps_roles_and_bumps_epoch(self):
        cluster_map = ClusterMap.even(
            NUM_SHARDS, _nodes(("a", 1), ("b", 2)), replicated=True
        )
        flipped = cluster_map.with_failover([0, 2], "b")
        assert flipped.epoch == cluster_map.epoch + 1
        assert flipped.owner_id(0) == "b"
        assert flipped.owner_id(2) == "b"
        # the dead primary becomes the (stale) replica, ready for rejoin
        assert flipped.replica_id(0) == "a"
        assert flipped.replica_id(2) == "a"
        # untouched shards keep their assignment
        assert flipped.owner_id(1) == "b"
        assert flipped.replica_id(1) == "a"

    def test_with_failover_rejects_non_replica(self):
        cluster_map = ClusterMap.even(
            NUM_SHARDS, _nodes(("a", 1), ("b", 2)), replicated=True
        )
        with pytest.raises(ConfigError):
            cluster_map.with_failover([1], "b")  # b is 1's owner already
        unreplicated = ClusterMap.even(
            NUM_SHARDS, _nodes(("a", 1), ("b", 2))
        )
        with pytest.raises(ConfigError):
            unreplicated.with_failover([0], "b")


# ---------------------------------------------------------------------------
# NodeStore replication primitives (in-process)
# ---------------------------------------------------------------------------


class TestNodeStoreReplication:
    def test_replicate_ship_and_promote(self, tmp_path):
        cluster_map, stores = _replicated_stores(tmp_path)
        a, b = stores["a"], stores["b"]
        try:
            s0 = keys_for_shard(0, 4, NUM_SHARDS, "fk")
            a.put(s0[0], "seed-0")
            a.put(s0[1], "seed-1")
            replicate_local(a, b, 0)
            assert b.replica_shards() == [0]
            assert b.promotable_shards() == [0]
            # live traffic rides the ship hook: overwrite, fresh, delete
            a.put(s0[0], "shipped")
            a.put(s0[2], "fresh")
            a.delete(s0[1])
            a.kill()
            flipped = b.map.with_failover([0], "b")
            b.promote_shards([0], flipped)
            assert b.map.epoch == cluster_map.epoch + 1
            assert 0 in b.owned_shards()
            assert b.get(s0[0]) == "shipped"
            assert b.get(s0[2]) == "fresh"
            assert b.get(s0[1]) is None  # the shipped delete held
        finally:
            a.kill()
            b.kill()

    def test_promote_requires_fresh_replica(self, tmp_path):
        _, stores = _replicated_stores(tmp_path)
        a, b = stores["a"], stores["b"]
        try:
            flipped = b.map.with_failover([0], "b")
            with pytest.raises(ConfigError):
                b.promote_shards([0], flipped)  # never seeded
        finally:
            a.kill()
            b.kill()

    def test_adopt_map_demotes_and_fences_old_primary(self, tmp_path):
        _, stores = _replicated_stores(tmp_path)
        a, b = stores["a"], stores["b"]
        try:
            s0 = keys_for_shard(0, 1, NUM_SHARDS, "fk")
            a.put(s0[0], "v1")
            replicate_local(a, b, 0)
            flipped = b.map.with_failover([0], "b")
            b.promote_shards([0], flipped)
            # the old primary learns the newer map and demotes itself
            assert a.adopt_map(b.map) is True
            assert a.map.epoch == b.map.epoch
            assert 0 not in a.owned_shards()
            with pytest.raises(ShardMovedError):
                a.put(s0[0], "stale-write")
            # re-adopting the same epoch is a no-op
            assert a.adopt_map(b.map) is False
        finally:
            a.kill()
            b.kill()

    def test_rejoin_reseeds_and_fails_back(self, tmp_path):
        """Round trip: a dies, b promotes, a rejoins as replica, then a
        second failover moves the shard home again."""
        _, stores = _replicated_stores(tmp_path)
        a, b = stores["a"], stores["b"]
        s0 = keys_for_shard(0, 3, NUM_SHARDS, "fk")
        try:
            a.put(s0[0], "v1")
            replicate_local(a, b, 0)
            a.put(s0[1], "v2")
            a.kill()
            b.promote_shards([0], b.map.with_failover([0], "b"))
            b.put(s0[2], "post-failover")
            # rejoin: recover from disk, observe the newer epoch, demote
            a = NodeStore.recover("a", LSMConfig(), str(tmp_path / "a"))
            assert a.map.epoch < b.map.epoch  # stale map from before
            assert a.adopt_map(b.map) is True
            # a restart wipes seeding freshness: not promotable yet
            assert a.promotable_shards() == []
            replicate_local(b, a, 0)
            assert a.promotable_shards() == [0]
            # fail back: b "dies", a promotes the shard home
            b.kill()
            a.promote_shards([0], a.map.with_failover([0], "a"))
            assert a.get(s0[0]) == "v1"
            assert a.get(s0[1]) == "v2"
            assert a.get(s0[2]) == "post-failover"
        finally:
            a.kill()
            b.kill()

    def test_adopt_map_finishes_every_demotion(self, tmp_path):
        """A demotion must not stop halfway: shard 0's tree has dead
        workers, so its close re-raises their failure — that once left
        shard 1 serving on the old primary, unfenced, after its standby
        had been promoted and written to."""
        bg = LSMConfig(
            background_mode=True, flush_threads=1, compaction_threads=1
        )
        nodes = _nodes(("a", 7411), ("b", 7412))
        cluster_map = ClusterMap(
            ["a"] * NUM_SHARDS, nodes, epoch=1, replicas=["b"] * NUM_SHARDS
        )
        a, b = (
            NodeStore(node, cluster_map, bg, wal_dir=str(tmp_path / node))
            for node in ("a", "b")
        )
        try:
            key = keys_for_shard(1, 1, NUM_SHARDS, "fk")[0]
            a.put(key, "v")
            for shard in (0, 1):
                replicate_local(a, b, shard)
            inject_worker_death(a.trees[0], "test: dead worker")
            flipped = b.map.with_failover([0, 1], "b")
            b.promote_shards([0, 1], flipped)
            assert a.adopt_map(flipped) is True
            assert a.owned_shards() == [2, 3]
            assert a.replica_shards() == []
            b.put(key, "new-on-b")
            with pytest.raises(ShardMovedError):
                a.get(key)
            with pytest.raises(ShardMovedError):
                a.put(key, "stale-write")
            assert b.get(key) == "new-on-b"
        finally:
            a.kill()
            b.kill()

    def test_health_reports_replica_state(self, tmp_path):
        _, stores = _replicated_stores(tmp_path)
        a, b = stores["a"], stores["b"]
        try:
            a.put(keys_for_shard(0, 1, NUM_SHARDS, "fk")[0], "v")
            replicate_local(a, b, 0)
            health = b.check_health()
            assert health["replica_shards"] == [0]
            assert health["replica_fresh"] == [0]
        finally:
            a.kill()
            b.kill()


class TestOneInboundSlot:
    """A shard directory never has two open trees: the newest begin owns
    the shard's one inbound slot, whatever its role, and the stream it
    superseded is refused from then on."""

    def test_migration_onto_the_replica_node_loses_nothing(self, tmp_path):
        """In a two-node replicated cluster every MIGRATE targets the
        shard's own replica node. The sequence the wire produces there —
        MIG.BEGIN supersedes the standby, the live shipper's REPL.SHIP
        is refused, its retry REPL.SYNCs — once left two trees open on
        one directory (one table each), the later wipe under the earlier
        tree, and every acked key gone after a restart."""
        config = LSMConfig()
        _, stores = _replicated_stores(tmp_path, config)
        a, b = stores["a"], stores["b"]
        keys = keys_for_shard(0, 51, NUM_SHARDS, "fk")
        preload, post = keys[:50], keys[50]
        one_tree = _track_open_trees(b, 0)
        try:
            for key in preload:
                a.put(key, "pre")
            detach = replicate_local(a, b, 0)
            one_tree()
            # MIGRATE 0 b begins: the standby is superseded
            b.inbound_begin(0, MIGRATION)
            one_tree()
            health = b.check_health()
            assert health["receiving_shards"] == [0]
            assert health["replica_shards"] == []
            # what the live shipper's next REPL.SHIP / REPL.SEEDED gets
            with pytest.raises(ConfigError):
                b.replica_apply(0, [("put", preload[0], "late")])
            with pytest.raises(ConfigError):
                b.replica_mark_seeded(0)
            one_tree()
            # ... and its retry: a fresh REPL.SYNC now owns the slot
            b.inbound_begin(0, REPLICA, a.map)
            one_tree()
            health = b.check_health()
            assert health["receiving_shards"] == []
            assert health["replica_shards"] == [0]
            assert health["replica_fresh"] == []
            # the migration is the superseded stream: refused, not
            # interleaved, and it cannot seal what it no longer fills
            with pytest.raises(ConfigError):
                b.migration_apply(0, [("put", preload[0], "late")])
            with pytest.raises(ConfigError):
                b.migration_seal(0, a.map.with_assignment(0, "b"))
            one_tree()
            assert 0 not in b.owned_shards()
            # the retried MIGRATE runs to completion
            detach()
            migrate_shard(a, b, 0, chunk=7)
            one_tree()
            health = b.check_health()
            assert 0 in health["owned_shards"]
            assert health["receiving_shards"] == []
            assert health["replica_shards"] == []
            b.put(post, "post-flip")
            b.kill()
            b = NodeStore.recover("b", config, str(tmp_path / "b"))
            assert [b.get(key) for key in preload] == ["pre"] * 50
            assert b.get(post) == "post-flip"
        finally:
            a.kill()
            b.kill()


# ---------------------------------------------------------------------------
# wire: heartbeats, automatic promotion, rejoin
# ---------------------------------------------------------------------------


class TestWireFailover:
    def test_auto_failover_keeps_dead_nodes_shards_writable(self, tmp_path):
        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **FAST
            ) as (servers, stores, live):
                client = await ClusterClient.connect(
                    "127.0.0.1", servers[1].port, retry_s=8.0
                )
                async with client:
                    keys = {
                        shard: keys_for_shard(shard, 2, NUM_SHARDS, "fk")
                        for shard in range(NUM_SHARDS)
                    }
                    for shard, shard_keys in keys.items():
                        await client.put(shard_keys[0], f"pre-{shard}")
                    # node a dies without ceremony
                    await servers[0].stop()
                    stores[0].kill()
                    killed = time.monotonic()
                    # every shard stays writable: a's shards ride the
                    # failover retry onto b's promoted standbys
                    for shard, shard_keys in keys.items():
                        await client.put(shard_keys[1], f"post-{shard}")
                    promoted = time.monotonic() - killed
                    assert stores[1].map.epoch == live.epoch + 1
                    assert sorted(stores[1].owned_shards()) == [0, 1, 2, 3]
                    assert servers[1].promotions
                    assert servers[1].promotions[0]["from"] == "a"
                    # pre-failover writes survived via the shipped copy
                    for shard, shard_keys in keys.items():
                        assert await client.get(shard_keys[0]) == (
                            f"pre-{shard}"
                        )
                        assert await client.get(shard_keys[1]) == (
                            f"post-{shard}"
                        )
                    assert client.failover_retries >= 1
                    # generous wire-test bound; the bench asserts the
                    # 2-lease-interval target properly
                    assert promoted < 8.0

        asyncio.run(scenario())

    def test_round_trip_rejoin_and_fail_back(self, tmp_path):
        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **FAST
            ) as (servers, stores, live):
                s0 = keys_for_shard(0, 3, NUM_SHARDS, "fk")
                port_a = servers[0].port
                # write through the wire: the engine op runs on the
                # executor, so the loop stays free to ship the commit
                # group to the replica synchronously
                raw_a = await KVClient.connect("127.0.0.1", port_a)
                try:
                    await raw_a.put(s0[0], "v1")
                finally:
                    await raw_a.close()
                # --- failover 1: a dies, b promotes its shards ---------
                await servers[0].stop()
                stores[0].kill()
                await wait_until(
                    lambda: sorted(stores[1].owned_shards()) == [0, 1, 2, 3],
                    "b never promoted a's shards",
                )
                raw_b = await KVClient.connect("127.0.0.1", servers[1].port)
                try:
                    await raw_b.put(s0[1], "v2-on-b")
                finally:
                    await raw_b.close()
                # --- rejoin: old primary restarts on its old address ---
                rejoined = NodeStore.recover(
                    "a", LSMConfig(), str(tmp_path / "a")
                )
                server_a2 = ClusterNode(
                    rejoined,
                    host="127.0.0.1",
                    port=port_a,
                    heartbeat_interval_s=0.1,
                    lease_timeout_s=0.6,
                )
                await server_a2.start()
                servers.append(server_a2)
                # heartbeat gossip teaches a the newer epoch; b's
                # shippers reseed it as a warm replica of its old shards
                await wait_until(
                    lambda: rejoined.map.epoch == stores[1].map.epoch
                    and rejoined.owned_shards() == [],
                    "rejoined node never demoted to the newer map",
                )
                # b replicates *all* its shards (now all four) onto a,
                # so the reseed leaves a warm for everything
                await wait_until(
                    lambda: rejoined.promotable_shards() == [0, 1, 2, 3],
                    "rejoined node never re-seeded as a replica",
                )
                # a write through the demoted node is refused (MOVED)
                raw = await KVClient.connect("127.0.0.1", port_a)
                try:
                    with pytest.raises(MovedError):
                        await raw.put(s0[0], "stale-write")
                finally:
                    await raw.close()
                # --- failover 2: b dies, a takes everything back -------
                await servers[1].stop()
                stores[1].kill()
                await wait_until(
                    lambda: sorted(rejoined.owned_shards()) == [0, 1, 2, 3],
                    "a never promoted b's shards after the second kill",
                )
                assert rejoined.get(s0[0]) == "v1"
                assert rejoined.get(s0[1]) == "v2-on-b"
                rejoined.put(s0[2], "v3-home-again")
                assert rejoined.get(s0[2]) == "v3-home-again"

        asyncio.run(scenario())

    def test_mutual_sync_writes_do_not_starve_the_peers_applies(
        self, tmp_path
    ):
        """Each node's commit thread waits for the *peer's* apply of its
        shipped group. With the applies on the same bounded pool as the
        commits, two nodes writing at once fill both pools with waiters
        and every apply queues behind them until the ship times out, the
        stream degrades and writes are acked un-replicated. Inbound
        applies have threads of their own, so a pool of one suffices."""

        async def scenario():
            async with AsyncExitStack() as stack:
                servers, stores, live = await stack.enter_async_context(
                    local_cluster(
                        tmp_path,
                        shape="replicated",
                        heartbeat_interval_s=0.1,
                        lease_timeout_s=30.0,
                        executor_threads=1,
                        repl_timeout_s=2.0,
                    )
                )
                clients = [
                    await stack.enter_async_context(
                        await KVClient.connect("127.0.0.1", server.port)
                    )
                    for server in servers
                ]
                # One key on a shard each node owns (a: 0, b: 1).
                keys = [
                    keys_for_shard(shard, 1, NUM_SHARDS, "fk")[0]
                    for shard in (0, 1)
                ]
                for round_no in range(20):
                    started = time.monotonic()
                    await asyncio.gather(
                        *(
                            client.put(key, f"round-{round_no}")
                            for client, key in zip(clients, keys)
                        )
                    )
                    elapsed = time.monotonic() - started
                    assert elapsed < 1.0, (round_no, elapsed)
                for server in servers:
                    for summary in server.health()["replication"].values():
                        assert summary["state"] == "streaming"
                        assert summary["missed_records"] == 0
                # Acked means replicated: the standbys hold the writes.
                for store, key in zip(reversed(stores), keys):
                    shard = hash_shard_index(key, NUM_SHARDS)
                    assert store._inbound[shard].tree.get(key) == "round-19"

        asyncio.run(scenario())

    def test_health_exposes_peers_and_replication_lag(self, tmp_path):
        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **FAST
            ) as (servers, stores, live):
                await wait_until(
                    lambda: "a" in servers[1].health().get("peers", {}),
                    "b never heard a heartbeat from a",
                )
                health = servers[1].health()
                assert health["peers"]["a"] >= 0.0
                replication = health["replication"]
                assert sorted(replication) == ["1", "3"]
                for summary in replication.values():
                    assert summary["target"] == "a"
                    assert summary["state"] == "streaming"
                    assert summary["lag_records"] == 0
                # The wire carries the node's payload, not the server's.
                async with await KVClient.connect(
                    "127.0.0.1", servers[1].port
                ) as client:
                    payloads = [
                        await client.health(),
                        (await client.info())["health"],
                    ]
                node_keys = {
                    "peers", "replication", "lease_timeout_s",
                    "promotions", "self_fence",
                }
                for payload in payloads:
                    assert node_keys <= set(payload)

        asyncio.run(scenario())


class TestTimingArithmetic:
    """The four windows derived from heartbeat and lease, and the two
    decisions that read them — driven at their boundaries by passing
    ``now`` and setting the contact clocks by hand: nothing sleeps."""

    #: A heartbeat loop that never comes round during the test.
    SLOW = {"heartbeat_interval_s": 10.0, "lease_timeout_s": 50.0}

    def test_derived_windows(self, tmp_path):
        _, stores = _replicated_stores(tmp_path)
        try:
            def windows(**timing):
                node = ClusterNode(stores["a"], port=0, **timing)
                return (
                    node.lease_timeout_s,
                    node.fence_timeout_s,
                    node.promotion_slack_s,
                    node.ping_budget_s,
                    node.ship_backoff_cap_s,
                )

            # lease defaults to four heartbeats; fence = lease − 2·hb
            assert windows() == (4.0, 2.0, 2.05, 2.0, 8.0)
            assert windows(**self.SLOW) == (50.0, 30.0, 20.05, 25.0, 100.0)
            # a lease within two heartbeats: fence falls back to half
            assert windows(heartbeat_interval_s=1.0, lease_timeout_s=2.0)[1] == 1.0
            assert windows(heartbeat_interval_s=1.0, lease_timeout_s=1.5)[1] == 0.75
            # the ping budget has a floor
            assert windows(heartbeat_interval_s=0.01, lease_timeout_s=0.06)[3] == 0.05
            with pytest.raises(TypeError):
                ClusterNode(stores["a"], port=0, fence_timeout_s=60.0)
        finally:
            for store in stores.values():
                store.kill()

    def test_fence_at_the_fence_window_not_before(self, tmp_path):
        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", self_fence=True, **self.SLOW
            ) as (servers, stores, live):
                node, store = servers[0], stores[0]
                assert node.fence_timeout_s == 30.0
                assert node._standby_armed == {0, 2}
                now = 1000.0
                node._last_seen["b"] = now - 29.5  # fence − ε
                await node._update_fences(now)
                assert node.fence_events == []
                assert store.repl_fenced_shards() == []
                node._last_seen["b"] = now - 30.0  # fence
                await node._update_fences(now)
                assert node.fence_events == [
                    (0, "fence", live.epoch), (2, "fence", live.epoch)
                ]
                assert store.repl_fenced_shards() == [0, 2]
                # contact inside the window again, stream up: lifted
                node._last_seen["b"] = now - 29.5
                await node._update_fences(now)
                assert store.repl_fenced_shards() == []
                assert [event[1] for event in node.fence_events[2:]] == [
                    "unfence", "unfence"
                ]

        asyncio.run(scenario())

    def test_promotion_at_the_lease_not_before(self, tmp_path):
        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **self.SLOW
            ) as (servers, stores, live):
                node, store = servers[1], stores[1]
                now = 1000.0

                def seen(silence: float, **stream_age: float) -> None:
                    """a was last heard ``silence`` ago; each named
                    shard's stream went quiet ``age`` before that."""
                    node._last_seen["a"] = now - silence
                    for shard, age in stream_age.items():
                        node._ship_seen[int(shard[1:])] = now - silence - age

                seen(49.5, s0=0.0, s2=0.0)  # lease − ε
                await node._check_leases(now)
                assert node.promotions == []
                assert store.map.epoch == live.epoch
                # at the lease: promote — but not the standby whose
                # stream died more than the slack before its primary
                seen(50.0, s0=node.promotion_slack_s + 0.01, s2=0.0)
                await node._check_leases(now)
                assert [p["shards"] for p in node.promotions] == [[2]]
                assert store.owned_shards() == [1, 2, 3]
                # past the lease, a stream quiet for just under the slack
                seen(50.5, s0=node.promotion_slack_s - 0.01)
                await node._check_leases(now)
                assert [p["shards"] for p in node.promotions] == [[2], [0]]
                assert store.owned_shards() == [0, 1, 2, 3]
                assert store.map.epoch == live.epoch + 2

        asyncio.run(scenario())


class TestMembershipChange:
    def test_join_map_does_not_de_replicate(self, tmp_path):
        """Publishing the membership successor for a third node, the way
        ``cluster serve --join`` / ``cluster rebalance`` do (``CLUSTER
        <map>`` to every member), must leave replica placement alone.

        Fails at the parent of the PR that added it: the successor both
        commands hand-built omitted ``replicas=``, so every node answered
        ``OK installed``, ``replicas`` went to all ``None``, both nodes
        closed their standbys and stopped their shippers — every later
        acked write lived on one node. The only line that differs from
        the parent run is how ``grown`` is obtained.
        """

        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", **FAST
            ) as (servers, stores, live):
                before = [
                    (store.replica_shards(), store.promotable_shards())
                    for store in stores
                ]
                grown = live.with_members(
                    [*live.nodes.values(), NodeInfo("c", "127.0.0.1", 7613)]
                )
                for server in servers:
                    member = await KVClient.connect("127.0.0.1", server.port)
                    try:
                        reply = await member.command(
                            ["CLUSTER", grown.to_json()]
                        )
                    finally:
                        await member.close()
                    assert reply == ["OK", "installed"]
                for store, was in zip(stores, before):
                    assert store.map.epoch == live.epoch + 1
                    assert "c" in store.map.nodes
                    assert store.map.replicas == live.replicas
                    assert (
                        store.replica_shards(),
                        store.promotable_shards(),
                    ) == was
                shippers = [
                    shipper
                    for server in servers
                    for shipper in server._shippers.values()
                ]
                assert len(shippers) == NUM_SHARDS
                assert all(shipper.streaming for shipper in shippers)
                # an acked write still lands on the standby: promote it
                # and read the key back from b's copy alone
                shard = stores[0].owned_shards()[0]
                key = keys_for_shard(shard, 1, NUM_SHARDS, "mk")[0]
                async with ClusterClient(stores[0].map) as client:
                    await client.put(key, "after-join")
                await servers[0].stop()
                stores[1].promote_shards(
                    [shard], stores[1].map.with_failover([shard], "b")
                )
                assert stores[1].get(key) == "after-join"

        asyncio.run(scenario())


class TestWireMigrationOntoReplica:
    def test_migrate_onto_replica_node_under_shipper_retries(self, tmp_path):
        """MIGRATE a replicated shard onto its own replica node, held
        mid-seed until the shard's shipper has failed (its standby was
        superseded) and come round its retry loop: the retry must not
        REPL.SYNC — wipe — the destination under the migration."""
        config = LSMConfig()
        moving = 0
        keys = keys_for_shard(moving, 201, NUM_SHARDS, "fk")
        preload, post = keys[:200], keys[200]

        async def scenario():
            async with local_cluster(
                tmp_path, shape="replicated", config=config, **FAST
            ) as (servers, stores, live):
                assert live.owner_id(moving) == "a"
                assert live.replica_id(moving) == "b"
                raw_a = await KVClient.connect("127.0.0.1", servers[0].port)
                try:
                    for start in range(0, len(preload), 50):
                        await raw_a.batch(
                            [
                                ("put", key, "pre")
                                for key in preload[start:start + 50]
                            ]
                        )
                    # gate the destination's applies: ordering, not sleeps
                    gate = threading.Event()
                    real_apply = stores[1].migration_apply

                    def gated_apply(shard, ops):
                        assert gate.wait(8.0), "gate never released"
                        real_apply(shard, ops)

                    stores[1].migration_apply = gated_apply
                    # what the shard's shipper goes through, in order
                    shipper = servers[0]._shippers[moving]
                    rounds: List[str] = []
                    real_release = shipper._release_all
                    real_session = shipper._session

                    def release_all(state):
                        rounds.append(state)
                        real_release(state)

                    def session():
                        rounds.append("session")
                        real_session()

                    shipper._release_all = release_all
                    shipper._session = session
                    migrate = asyncio.create_task(
                        raw_a.command(["MIGRATE", str(moving), "b"])
                    )
                    await wait_until(
                        lambda: "retrying" in rounds
                        and len(rounds) > rounds.index("retrying") + 1,
                        "the shipper never failed and came round again",
                    )
                    # it backed off instead of opening a session
                    assert "session" not in rounds, rounds
                    assert not migrate.done()
                    gate.set()
                    reply = await migrate
                    assert reply[0] == "OK", reply
                    # reconciled on the way out, not a heartbeat later:
                    # the source ships nothing for a shard it released
                    assert moving not in servers[0]._shippers
                    assert str(moving) not in servers[0].health()[
                        "replication"
                    ]
                finally:
                    await raw_a.close()
                raw_b = await KVClient.connect("127.0.0.1", servers[1].port)
                try:
                    health = await raw_b.health()
                    assert moving in health["owned_shards"]
                    assert moving not in health["replica_shards"]
                    assert moving not in health["receiving_shards"]
                    await raw_b.put(post, "post-flip")
                finally:
                    await raw_b.close()
            stores[0].kill()
            stores[1].kill()
            recovered = NodeStore.recover("b", config, str(tmp_path / "b"))
            try:
                assert moving in recovered.owned_shards()
                lost = [key for key in preload if recovered.get(key) != "pre"]
                assert not lost, f"{len(lost)} of {len(preload)} keys lost"
                assert recovered.get(post) == "post-flip"
            finally:
                recovered.kill()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# client robustness satellites
# ---------------------------------------------------------------------------


class TestClientRobustness:
    def test_circuit_breaker_fast_fails_repeat_connects(
        self, tmp_path, monkeypatch
    ):
        # stays open for the test (the cap bounds the first window too)
        monkeypatch.setattr("repro.server.client.BACKOFF_BASE_S", 30.0)
        monkeypatch.setattr("repro.server.client.BACKOFF_MAX_S", 30.0)

        async def scenario():
            # unreplicated map: owner loss surfaces as ConnectionError
            async with local_cluster(tmp_path) as (servers, stores, live):
                client = await ClusterClient.connect(
                    "127.0.0.1", servers[0].port
                )
                async with client:
                    key_b = keys_for_shard(
                        live.shards_of("b")[0], 1, NUM_SHARDS, "fk"
                    )[0]
                    await client.put(key_b, "v")
                    await servers[1].stop()  # node b dies, no replica
                    stores[1].kill()
                    # close the pooled connection: the next op must
                    # redial it, fail, and trip the breaker
                    await (await client.node("b")).close()
                    with pytest.raises((ConnectionError, OSError)):
                        await client.put(key_b, "v2")
                    start = time.monotonic()
                    with pytest.raises((ConnectionError, OSError)):
                        await client.put(key_b, "v3")
                    assert time.monotonic() - start < 0.5
                    assert client.breaker_rejections >= 1

        asyncio.run(scenario())

    def test_map_fetch_timeout_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.cluster.client.MAP_TIMEOUT_S", 0.3)

        async def scenario():
            async def silent(reader, writer):
                await reader.read()  # never answer

            server = await asyncio.start_server(silent, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                start = time.monotonic()
                with pytest.raises(asyncio.TimeoutError):
                    await ClusterClient.connect("127.0.0.1", port)
                assert time.monotonic() - start < 2.0
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())
