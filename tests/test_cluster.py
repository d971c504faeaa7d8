"""Tests for the cluster layer: map, node store, migration, wire, client.

Wire tests follow the server-suite conventions: ``asyncio.run`` inside
synchronous tests, every node bound to port 0 on localhost — the
cluster comes from :func:`repro.cluster.local_cluster`, which installs
the real-port successor map (epoch 1) and tears everything down on exit.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from contextlib import AsyncExitStack
from typing import List, Optional, Tuple

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterError,
    ClusterMap,
    ClusterNode,
    NodeInfo,
    NodeStore,
    local_cluster,
    migrate_shard,
    promote_local,
    replicate_local,
)
from repro.cluster.shipper import StreamConnection, _WirePeer
from repro.core.config import LSMConfig
from repro.errors import (
    ClosedError,
    ConfigError,
    ShardFencedError,
    ShardMovedError,
    SnapshotExpiredError,
)
from repro.faults import NetFaultPlan, inject_worker_death
from repro.server.client import KVClient, MovedError, ServerError
from repro.shard import hash_shard_index, keys_for_shard


def _nodes(*specs: Tuple[str, int]) -> List[NodeInfo]:
    return [NodeInfo(node_id, "127.0.0.1", port) for node_id, port in specs]


# ---------------------------------------------------------------------------
# ClusterMap
# ---------------------------------------------------------------------------


class TestClusterMap:
    def test_even_round_robins_shards(self):
        cmap = ClusterMap.even(5, _nodes(("a", 1), ("b", 2)))
        assert cmap.assignments == ("a", "b", "a", "b", "a")
        assert cmap.shards_of("a") == [0, 2, 4]
        assert cmap.epoch == 0

    def test_shard_index_matches_sharded_store_placement(self):
        cmap = ClusterMap.even(8, _nodes(("a", 1)))
        for key in ("alpha", "beta", "gamma", ""):
            if key:
                assert cmap.shard_index(key) == hash_shard_index(key, 8)

    def test_range_routing_uses_boundaries(self):
        cmap = ClusterMap.even(
            3, _nodes(("a", 1)), boundaries=["g", "p"]
        )
        assert cmap.shard_index("apple") == 0
        assert cmap.shard_index("melon") == 1
        assert cmap.shard_index("zebra") == 2

    def test_with_assignment_bumps_epoch_and_moves_shard(self):
        cmap = ClusterMap.even(4, _nodes(("a", 1), ("b", 2)))
        moved = cmap.with_assignment(0, "b")
        assert moved.epoch == 1
        assert moved.owner_id(0) == "b"
        assert cmap.owner_id(0) == "a"  # original untouched

    def test_with_assignment_unknown_node_needs_address(self):
        cmap = ClusterMap.even(2, _nodes(("a", 1)))
        with pytest.raises(ConfigError):
            cmap.with_assignment(0, "ghost")
        joined = cmap.with_assignment(0, "c", host="127.0.0.1", port=9)
        assert joined.nodes["c"].port == 9

    def test_assignments_must_name_known_nodes(self):
        with pytest.raises(ConfigError):
            ClusterMap(["a", "ghost"], _nodes(("a", 1)))

    def test_plan_moves_balances_a_join(self):
        cmap = ClusterMap.even(6, _nodes(("a", 1), ("b", 2)))
        moves = cmap.plan_moves(_nodes(("a", 1), ("b", 2), ("c", 3)))
        assert len(moves) == 2
        assert all(dest == "c" for _, dest in moves)
        for shard, dest in moves:
            cmap = cmap.with_assignment(shard, dest, host="h", port=3)
        loads = [len(cmap.shards_of(n)) for n in ("a", "b", "c")]
        assert max(loads) - min(loads) <= 1

    def test_plan_moves_evacuates_a_leaver(self):
        cmap = ClusterMap.even(4, _nodes(("a", 1), ("b", 2)))
        moves = cmap.plan_moves(_nodes(("a", 1)))
        assert sorted(shard for shard, _ in moves) == cmap.shards_of("b")
        assert all(dest == "a" for _, dest in moves)

    def test_plan_moves_balanced_cluster_is_a_noop(self):
        cmap = ClusterMap.even(4, _nodes(("a", 1), ("b", 2)))
        assert cmap.plan_moves(_nodes(("a", 1), ("b", 2))) == []

    def test_json_roundtrip(self):
        cmap = ClusterMap.even(
            3, _nodes(("a", 1), ("b", 2)), boundaries=["g", "p"]
        ).with_assignment(1, "a")
        assert ClusterMap.from_json(cmap.to_json()) == cmap

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            ClusterMap.from_json("not json")
        with pytest.raises(ConfigError):
            ClusterMap.from_json("{}")

    def test_from_dict_rejects_shard_count_mismatch(self):
        doc = ClusterMap.even(2, _nodes(("a", 1))).to_dict()
        doc["num_shards"] = 3
        with pytest.raises(ConfigError):
            ClusterMap.from_dict(doc)

    def test_save_load_roundtrip(self, tmp_path):
        cmap = ClusterMap.even(4, _nodes(("a", 1), ("b", 2)))
        cmap.save(str(tmp_path))
        assert ClusterMap.load(str(tmp_path)) == cmap

    def test_save_refuses_epoch_regression(self, tmp_path):
        cmap = ClusterMap.even(2, _nodes(("a", 1), ("b", 2)))
        newer = cmap.with_assignment(0, "b")
        newer.save(str(tmp_path))
        with pytest.raises(ConfigError):
            cmap.save(str(tmp_path))

    def test_save_refuses_same_epoch_different_map(self, tmp_path):
        ClusterMap.even(2, _nodes(("a", 1), ("b", 2))).save(str(tmp_path))
        rival = ClusterMap(
            ["b", "a"], _nodes(("a", 1), ("b", 2)), epoch=0
        )
        with pytest.raises(ConfigError):
            rival.save(str(tmp_path))

    def test_save_identical_map_is_a_noop(self, tmp_path):
        cmap = ClusterMap.even(2, _nodes(("a", 1)))
        cmap.save(str(tmp_path))
        cmap.save(str(tmp_path))  # no raise, no rewrite
        assert ClusterMap.load(str(tmp_path)) == cmap

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(ConfigError):
            ClusterMap.load(str(tmp_path / "nope"))


# ---------------------------------------------------------------------------
# NodeStore (in-process)
# ---------------------------------------------------------------------------

NUM_SHARDS = 4


def _two_node_stores(tmp_path, config: Optional[LSMConfig] = None):
    cmap = ClusterMap.even(
        NUM_SHARDS, _nodes(("a", 7611), ("b", 7612))
    )
    config = config or LSMConfig()
    store_a = NodeStore(
        "a", cmap, config, wal_dir=str(tmp_path / "a")
    )
    store_b = NodeStore(
        "b", cmap, config, wal_dir=str(tmp_path / "b")
    )
    return store_a, store_b


class TestNodeStore:
    def test_serves_owned_shards_only(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            key0 = keys_for_shard(0, 1, NUM_SHARDS, "tk")[0]
            key1 = keys_for_shard(1, 1, NUM_SHARDS, "tk")[0]
            store_a.put(key0, "v0")
            assert store_a.get(key0) == "v0"
            with pytest.raises(ShardMovedError) as excinfo:
                store_a.put(key1, "nope")
            assert excinfo.value.node_id == "b"
            assert excinfo.value.port == 7612
            assert excinfo.value.epoch == 0
            with pytest.raises(ShardMovedError):
                store_b.get(key0)
        finally:
            store_a.close()
            store_b.close()

    def test_num_shards_is_global_for_committer_fanout(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            assert store_a.num_shards == NUM_SHARDS
            assert store_a.owned_shards() == [0, 2]
            assert store_b.owned_shards() == [1, 3]
        finally:
            store_a.close()
            store_b.close()

    def test_batch_split_across_owned_shards(self, tmp_path):
        store_a, _unused = _two_node_stores(tmp_path)
        try:
            keys = keys_for_shard(0, 2, NUM_SHARDS, "tk") + keys_for_shard(
                2, 2, NUM_SHARDS, "tk"
            )
            store_a.write_batch([("put", key, "v") for key in keys])
            assert all(store_a.get(key) == "v" for key in keys)
        finally:
            store_a.close()
            _unused.close()

    def test_batch_touching_moved_shard_writes_nothing(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            mine = keys_for_shard(0, 1, NUM_SHARDS, "tk")[0]
            theirs = keys_for_shard(1, 1, NUM_SHARDS, "tk")[0]
            with pytest.raises(ShardMovedError):
                store_a.write_batch(
                    [("put", mine, "v"), ("put", theirs, "v")]
                )
            assert store_a.get(mine) is None
        finally:
            store_a.close()
            store_b.close()

    def test_fenced_shard_rejects_writes_still_reads(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            key = keys_for_shard(0, 1, NUM_SHARDS, "tk")[0]
            store_a.put(key, "v")
            store_a.fence(0)
            with pytest.raises(ShardFencedError):
                store_a.put(key, "v2")
            assert store_a.get(key) == "v"
        finally:
            store_a.close()
            store_b.close()

    def test_degraded_flush_and_close_skip_a_dead_shard(self, tmp_path):
        # A shard whose workers died since its last operation: flush()
        # polls health and skips it, close() quarantines and swallows
        # the never-observed BackgroundError — degraded shutdown works
        # on a node exactly as on an embedded ShardedStore.
        config = LSMConfig(
            background_mode=True, flush_threads=1, compaction_threads=1
        )
        store_a, store_b = _two_node_stores(tmp_path, config)
        try:
            for shard in (0, 2):
                for key in keys_for_shard(shard, 3, NUM_SHARDS, "tk"):
                    store_a.put(key, "v")
            inject_worker_death(store_a.trees[2], "test: dead worker")
            store_a.flush()
            health = store_a.check_health()
            assert health["state"] == "degraded"
            assert health["quarantined"] == [2]
            inject_worker_death(store_a.trees[0], "test: dead at close")
            store_a.close()
        finally:
            store_a.kill()
            store_b.close()

    def test_batches_snapshots_and_fences_race_without_deadlock(
        self, tmp_path
    ):
        # Lock order is write locks -> the forest's transaction lock on
        # the write path, the transaction lock alone for snapshots, a
        # write lock alone for fences. Race all three: nothing may hang,
        # and no snapshot may see half of a cross-shard batch.
        store_a, store_b = _two_node_stores(tmp_path)
        key0 = keys_for_shard(0, 1, NUM_SHARDS, "tk")[0]
        key2 = keys_for_shard(2, 1, NUM_SHARDS, "tk")[0]
        store_a.write_batch([("put", key0, "0"), ("put", key2, "0")])
        stop = threading.Event()
        torn: List[Tuple[Optional[str], Optional[str]]] = []
        commits = [0]

        def writer(worker: int) -> None:
            version = 0
            while not stop.is_set():
                version += 1
                value = f"{worker}-{version}"
                try:
                    store_a.write_batch(
                        [("put", key0, value), ("put", key2, value)]
                    )
                    commits[0] += 1
                except ShardFencedError:
                    pass

        def reader() -> None:
            while not stop.is_set():
                with store_a.snapshot() as snapshot:
                    try:
                        pair = (
                            store_a.get(key0, at=snapshot),
                            store_a.get(key2, at=snapshot),
                        )
                    except SnapshotExpiredError:
                        continue
                if pair[0] != pair[1]:
                    torn.append(pair)

        def fencer() -> None:
            while not stop.is_set():
                store_a.fence(0)
                store_a.abort_migration(0)  # lifts the fence

        threads = [
            threading.Thread(target=writer, args=(worker,), daemon=True)
            for worker in range(4)
        ]
        threads += [
            threading.Thread(target=reader, daemon=True) for _ in range(2)
        ]
        threads.append(threading.Thread(target=fencer, daemon=True))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            stop.set()
            for thread in threads:
                thread.join(timeout=20.0)
            assert not any(thread.is_alive() for thread in threads)
            assert torn == []
            assert commits[0] > 0
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            store_a.kill()
            store_b.kill()

    def test_scan_covers_owned_shards_only(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            for shard in range(NUM_SHARDS):
                target = store_a if shard in (0, 2) else store_b
                for key in keys_for_shard(shard, 3, NUM_SHARDS, "tk"):
                    target.put(key, f"s{shard}")
            seen = {value for _, value in store_a.scan("tk", "tl")}
            assert seen == {"s0", "s2"}
        finally:
            store_a.close()
            store_b.close()

    def test_install_map_requires_newer_epoch(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            assert store_a.adopt_map(store_a.map) is False
            grown = store_a.map.with_members(
                [*store_a.map.nodes.values(), NodeInfo("c", "127.0.0.1", 7613)]
            )
            assert store_a.adopt_map(grown) is True
            assert store_a.map.epoch == 1
        finally:
            store_a.close()
            store_b.close()

    def test_install_map_rejects_ownership_changes(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            stolen = store_a.map.with_assignment(0, "b")
            with pytest.raises(ConfigError):
                store_b.adopt_map(stolen)  # a push never grants a shard
        finally:
            store_a.close()
            store_b.close()

    @pytest.mark.parametrize(
        "row", ["older-epoch", "membership-only", "grants-shards", "takes-shards-away"]
    )
    def test_map_entry_point_table(self, tmp_path, row):
        """The one map entry point, decided row by row. Written against
        both ``install_map`` and ``adopt_map`` before they merged: they
        agreed on the first three rows and differed on the last, where
        ``install_map`` refused in-process what ``CLUSTER <map>`` on the
        wire (``adopt_map``) already did — demote."""
        store_a, store_b = _two_node_stores(tmp_path)
        enter = store_a.adopt_map
        try:
            current = store_a.map
            if row == "older-epoch":
                assert enter(current) is False
                assert store_a.map is current
            elif row == "membership-only":
                grown = current.with_members(
                    [*current.nodes.values(), NodeInfo("c", "127.0.0.1", 7613)]
                )
                assert enter(grown) is True
                assert store_a.map == grown
                assert ClusterMap.load(str(tmp_path / "a")) == grown
                assert store_a.owned_shards() == [0, 2]
            elif row == "grants-shards":
                with pytest.raises(ConfigError, match="grants|assigns"):
                    enter(current.with_assignment(1, "a"))
                assert store_a.map is current
                assert store_a.owned_shards() == [0, 2]
            else:
                taken = current.with_assignment(0, "b")
                assert enter(taken) is True
                assert store_a.map == taken
                assert store_a.owned_shards() == [2]
                with pytest.raises(ShardMovedError):
                    store_a.put(keys_for_shard(0, 1, NUM_SHARDS, "tk")[0], "v")
        finally:
            store_a.close()
            store_b.close()

    def test_rejects_keys_at_or_above_snapshot_bound(self, tmp_path):
        """Keys that don't sort below ``_MAX_KEY`` are refused at the
        write API — otherwise a migration snapshot (whose exclusive
        upper bound is ``_MAX_KEY``) would silently drop them."""
        from repro.cluster.store import _MAX_KEY

        store_a, store_b = _two_node_stores(tmp_path)
        try:
            for bad in (_MAX_KEY, _MAX_KEY + "x", "\U0010ffff" * 9):
                with pytest.raises(ValueError):
                    store_a.put(bad, "v")
            # a key just below the bound is accepted and migrates intact
            edge = "\U0010ffff" * 7 + "\U0010fffe"
            shard = store_a.shard_index(edge)
            owner = store_a if shard in store_a.owned_shards() else store_b
            other = store_b if owner is store_a else store_a
            owner.put(edge, "kept")
            migrate_shard(owner, other, shard)
            assert other.get(edge) == "kept"
        finally:
            store_a.close()
            store_b.close()

    def test_recover_reopens_owned_shards(self, tmp_path):
        config = LSMConfig(wal_fsync=False)
        store_a, store_b = _two_node_stores(tmp_path, config)
        keys = keys_for_shard(0, 4, NUM_SHARDS, "tk")
        for key in keys:
            store_a.put(key, "durable")
        store_a.close()
        store_b.close()
        recovered = NodeStore.recover("a", config, str(tmp_path / "a"))
        try:
            assert recovered.owned_shards() == [0, 2]
            assert all(recovered.get(key) == "durable" for key in keys)
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# Live migration (in-process)
# ---------------------------------------------------------------------------


class TestMigrateLocal:
    def test_moves_data_and_flips_ownership(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            keys = keys_for_shard(0, 10, NUM_SHARDS, "tk")
            for key in keys:
                store_a.put(key, "v")
            stats = migrate_shard(store_a, store_b, 0, chunk=3)
            assert stats["snapshot_pairs"] == 10
            assert store_a.map.epoch == 1
            assert store_b.owned_shards() == [0, 1, 3]
            assert all(store_b.get(key) == "v" for key in keys)
            with pytest.raises(ShardMovedError) as excinfo:
                store_a.get(keys[0])
            assert excinfo.value.node_id == "b"
        finally:
            store_a.close()
            store_b.close()

    def test_tail_captures_writes_during_migration(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            keys = keys_for_shard(0, 8, NUM_SHARDS, "tk")
            for key in keys:
                store_a.put(key, "old")

            def during():
                store_a.put(keys[0], "new")
                store_a.delete(keys[1])

            stats = migrate_shard(
                store_a, store_b, 0, chunk=3, during=during
            )
            assert stats["tail_ops"] >= 2
            assert store_b.get(keys[0]) == "new"
            assert store_b.get(keys[1]) is None
            assert store_b.get(keys[2]) == "old"
        finally:
            store_a.close()
            store_b.close()

    def test_migrate_back_round_trip(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            key = keys_for_shard(0, 1, NUM_SHARDS, "tk")[0]
            store_a.put(key, "v1")
            migrate_shard(store_a, store_b, 0)
            store_b.put(key, "v2")
            migrate_shard(store_b, store_a, 0)
            assert store_a.map.epoch == 2
            assert store_a.get(key) == "v2"
            with pytest.raises(ShardMovedError):
                store_b.get(key)
        finally:
            store_a.close()
            store_b.close()

    def test_stale_source_fast_forwards_to_dest_epoch(self, tmp_path):
        """A source that missed earlier migrations must still seal.

        ``c`` reaches epoch 1 via a migration ``a`` never saw; migrating
        ``a`` → ``c`` afterwards must fast-forward ``a`` past its stale
        epoch instead of proposing a flip epoch ``c`` already holds.
        """
        cmap = ClusterMap.even(
            3, _nodes(("a", 7621), ("b", 7622), ("c", 7623))
        )
        stores = {
            node_id: NodeStore(
                node_id,
                cmap,
                LSMConfig(),
                wal_dir=str(tmp_path / node_id),
            )
            for node_id in ("a", "b", "c")
        }
        try:
            migrate_shard(stores["b"], stores["c"], 1)
            assert stores["a"].map.epoch == 0  # a missed that flip
            migrate_shard(stores["a"], stores["c"], 0)
            assert stores["a"].map.epoch == 2
            assert stores["c"].owned_shards() == [0, 1, 2]
        finally:
            for store in stores.values():
                store.close()

    def test_duplicate_seal_is_idempotent(self, tmp_path):
        """The wire client is at-least-once: a MIG.SEAL resent after a
        lost reply must answer OK, not 'no migration in progress' — the
        source driver reads a seal error as a failed flip and would
        resume serving a shard the destination now owns."""
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            key = keys_for_shard(0, 1, NUM_SHARDS, "tk")[0]
            store_a.put(key, "v")
            migrate_shard(store_a, store_b, 0)
            sealed = store_b.map
            store_b.migration_seal(0, sealed)  # duplicate: no raise
            assert store_b.owned_shards() == [0, 1, 3]
            assert store_b.get(key) == "v"
            # a shard that was never sealed here still errors
            with pytest.raises(ConfigError):
                store_b.migration_seal(2, sealed.with_assignment(2, "b"))
        finally:
            store_a.close()
            store_b.close()

    def test_failed_migration_leaves_source_serving(self, tmp_path):
        store_a, store_b = _two_node_stores(tmp_path)
        try:
            key = keys_for_shard(0, 1, NUM_SHARDS, "tk")[0]
            store_a.put(key, "v")
            store_b.close()  # destination dies before the flip
            with pytest.raises(Exception):
                migrate_shard(store_a, store_b, 0)
            assert store_a.get(key) == "v"  # not fenced, not moved
            store_a.put(key, "v2")
            assert store_a.get(key) == "v2"
        finally:
            store_a.close()

    @pytest.mark.parametrize("form", ["fence", "migration", "demotion"])
    def test_stale_lock_writer_cannot_commit_past_a_fence(
        self, tmp_path, monkeypatch, form
    ):
        """A writer that picked up shard 0's write lock before the shard
        moved ``a → b → a`` holds a lock the re-adopted shard no longer
        uses. Its fence re-check must refuse it: otherwise it commits
        after a later ``fence()`` returned (forms ``fence`` and
        ``demotion``), or after a third migration's final tail drain,
        acked by ``a`` and missing on the new owner ``b`` (form
        ``migration``). In form ``demotion`` the first move is a
        failover, which drops ``a``'s shard without a migration fence.

        W is paused twice: after picking up the lock and before taking
        it (the store module's ``ExitStack``), and after its fence
        re-check and before its commit (``ShardedStore.write_batch``).
        """
        import contextlib

        import repro.cluster.store as store_module
        from repro.shard import ShardedStore

        cmap = ClusterMap.even(
            2,
            _nodes(("a", 7631), ("b", 7632)),
            epoch=1,
            replicated=form == "demotion",
        )
        store_a = NodeStore("a", cmap, LSMConfig(), wal_dir=str(tmp_path / "a"))
        store_b = NodeStore("b", cmap, LSMConfig(), wal_dir=str(tmp_path / "b"))
        key = keys_for_shard(0, 1, 2, "tk")[0]
        at_first, go_first = threading.Event(), threading.Event()
        at_second, go_second = threading.Event(), threading.Event()
        outcome: List[object] = []

        def writer() -> None:
            try:
                store_a.write_batch([("put", key, "w")])
                outcome.append("acked")
            except Exception as exc:
                outcome.append(exc)

        thread = threading.Thread(target=writer, daemon=True)

        class GatedExitStack(contextlib.ExitStack):
            def __enter__(self):
                if threading.current_thread() is thread:
                    at_first.set()
                    go_first.wait(10)
                return super().__enter__()

        real_write_batch = ShardedStore.write_batch

        def gated_write_batch(self, ops):
            if threading.current_thread() is thread:
                at_second.set()
                go_second.wait(10)
            return real_write_batch(self, ops)

        monkeypatch.setattr(store_module, "ExitStack", GatedExitStack)
        monkeypatch.setattr(ShardedStore, "write_batch", gated_write_batch)
        try:
            thread.start()
            assert at_first.wait(10)
            if form == "demotion":
                replicate_local(store_a, store_b, 0)
                promote_local(store_b, [0], store_a)
            else:
                migrate_shard(store_a, store_b, 0)
            migrate_shard(store_b, store_a, 0)
            go_first.set()
            deadline = time.monotonic() + 10
            while not at_second.is_set() and thread.is_alive():
                assert time.monotonic() < deadline
                time.sleep(0.005)
            if form != "migration":
                store_a.fence(0)
                go_second.set()
                thread.join(10)
                assert store_a.get(key) is None  # nothing past the fence
            else:
                real_seal = store_b.migration_seal

                def seal(shard, new_map):
                    go_second.set()
                    thread.join(10)
                    return real_seal(shard, new_map)

                store_b.migration_seal = seal
                migrate_shard(store_a, store_b, 0)
                if outcome == ["acked"]:  # no acked write may be lost
                    assert store_b.get(key) == "w"
            assert len(outcome) == 1
            assert isinstance(outcome[0], ShardFencedError), outcome
        finally:
            go_first.set()
            go_second.set()
            thread.join(10)
            store_a.close()
            store_b.close()


# ---------------------------------------------------------------------------
# Wire: ClusterNode + ClusterClient
# ---------------------------------------------------------------------------


class TestLocalCluster:
    """:func:`local_cluster` — the bootstrap every wire test, partition
    run and availability bench starts from."""

    @pytest.mark.parametrize(
        "shape, owners, replicas",
        [
            ("even", ["a", "b", "a", "b"], [None] * 4),
            ("replicated", ["a", "b", "a", "b"], ["b", "a", "b", "a"]),
            ("standby", ["a"] * 4, ["b"] * 4),
        ],
        ids=["even", "replicated", "standby"],
    )
    def test_yields_a_seeded_epoch_one_cluster_on_real_ports(
        self, tmp_path, shape, owners, replicas
    ):
        async def scenario():
            async with local_cluster(
                tmp_path, shape=shape, heartbeat_interval_s=0.1
            ) as (servers, stores, live):
                assert live.epoch == 1
                shards = range(NUM_SHARDS)
                assert [live.owner_id(shard) for shard in shards] == owners
                assert [live.replica_id(shard) for shard in shards] == replicas
                for server, store in zip(servers, stores):
                    node_id = store.node_id
                    assert server.dial_overrides == {}
                    assert store.map == live
                    assert live.nodes[node_id].port == server.port != 0
                    # every standby promotable, every shipper streaming
                    assert store.promotable_shards() == live.replicas_of(
                        node_id
                    )
                    assert sorted(server._shippers) == [
                        shard
                        for shard in live.shards_of(node_id)
                        if replicas[shard] is not None
                    ]
                    assert all(
                        shipper.streaming
                        for shipper in server._shippers.values()
                    )

        asyncio.run(scenario())

    def test_exit_stops_nodes_and_proxies_when_the_body_raises(
        self, tmp_path
    ):
        async def scenario():
            with pytest.raises(RuntimeError, match="harness bug"):
                async with local_cluster(
                    tmp_path,
                    shape="standby",
                    net_plan=NetFaultPlan(seed=1),
                    heartbeat_interval_s=0.1,
                ) as (servers, stores, _live):
                    # every directed link dials through its own relay
                    ports = [server.port for server in servers]
                    for server, peer in zip(servers, "ba"):
                        assert list(server.dial_overrides) == [peer]
                        ports.append(server.dial_overrides[peer][1])
                    assert len(set(ports)) == 4
                    raise RuntimeError("harness bug")
            for port in ports:
                with pytest.raises(ConnectionRefusedError):
                    await asyncio.open_connection("127.0.0.1", port)
            for store in stores:
                with pytest.raises(ClosedError):
                    store.get("any")

        asyncio.run(scenario())


class TestClusterWire:
    def test_client_routes_and_scans_across_nodes(self, tmp_path):
        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                client = await ClusterClient.connect(
                    "127.0.0.1", servers[0].port
                )
                async with client:
                    assert client.map.epoch == 1
                    for index in range(40):
                        await client.put(f"wk{index:03d}", f"v{index}")
                    assert await client.get("wk007") == "v7"
                    assert await client.get("missing") is None
                    await client.delete("wk000")
                    assert await client.get("wk000") is None
                    count = await client.batch(
                        [("put", f"wb{i}", "b") for i in range(8)]
                    )
                    assert count == 8
                    pairs = await client.scan("wk", "wl")
                    assert len(pairs) == 39
                    assert pairs == sorted(pairs)
                    # every node really owns only its slice
                    for store in stores:
                        assert store.owned_shards() == live.shards_of(
                            store.node_id
                        )

        asyncio.run(scenario())

    def test_direct_client_gets_moved_with_owner_address(self, tmp_path):
        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                key = next(
                    f"mk{i}"
                    for i in range(100)
                    if live.owner_id(live.shard_index(f"mk{i}")) == "b"
                )
                raw = await KVClient.connect(
                    "127.0.0.1", servers[0].port
                )
                try:
                    with pytest.raises(MovedError) as excinfo:
                        await raw.put(key, "v")
                    moved = excinfo.value
                    assert moved.shard == live.shard_index(key)
                    assert moved.port == servers[1].port
                    assert moved.epoch == 1
                finally:
                    await raw.close()

        asyncio.run(scenario())

    def test_wire_migration_under_load_loses_nothing(self, tmp_path):
        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                client = await ClusterClient.connect(
                    "127.0.0.1", servers[0].port
                )
                async with client:
                    for index in range(50):
                        await client.put(f"lk{index:03d}", "before")
                    moving = stores[0].owned_shards()[0]
                    acked: List[str] = []
                    stop = asyncio.Event()

                    async def writer():
                        index = 0
                        while not stop.is_set():
                            key = f"lw{index:04d}"
                            await client.put(key, "during")
                            acked.append(key)
                            index += 1
                            await asyncio.sleep(0)

                    task = asyncio.create_task(writer())
                    admin = await KVClient.connect(
                        "127.0.0.1", servers[0].port
                    )
                    try:
                        reply = await admin.command(
                            ["MIGRATE", str(moving), "b"]
                        )
                    finally:
                        stop.set()
                        await task
                        await admin.close()
                    assert reply[0] == "OK"
                    assert stores[0].map.epoch == 2
                    assert moving not in stores[0].owned_shards()
                    assert moving in stores[1].owned_shards()
                    # every acked write must still read back
                    for key in acked:
                        assert await client.get(key) == "during"
                    for index in range(50):
                        assert (
                            await client.get(f"lk{index:03d}") == "before"
                        )

        asyncio.run(scenario())

    def test_stale_client_follows_moved_and_refreshes(self, tmp_path):
        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                stale = ClusterClient(live)  # keeps the pre-flip map
                moving = stores[0].owned_shards()[0]
                key = keys_for_shard(moving, 1, live.num_shards, "tk")[0]
                await stale.put(key, "v1")
                admin = await KVClient.connect(
                    "127.0.0.1", servers[0].port
                )
                try:
                    await admin.command(["MIGRATE", str(moving), "b"])
                finally:
                    await admin.close()
                assert await stale.get(key) == "v1"  # via MOVED redirect
                assert stale.moved_redirects >= 1
                assert stale.map.epoch == 2
                await stale.put(key, "v2")  # routed straight to b now
                assert stores[1].get(key) == "v2"
                await stale.close()

        asyncio.run(scenario())

    def test_surviving_shards_serve_after_node_death(self, tmp_path):
        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                client = await ClusterClient.connect(
                    "127.0.0.1", servers[0].port
                )
                key_a = keys_for_shard(
                    stores[0].owned_shards()[0], 1, live.num_shards, "tk"
                )[0]
                key_b = keys_for_shard(
                    stores[1].owned_shards()[0], 1, live.num_shards, "tk"
                )[0]
                await client.put(key_a, "va")
                await client.put(key_b, "vb")
                await servers[1].stop()  # node b dies
                assert await client.get(key_a) == "va"
                with pytest.raises((ConnectionError, OSError)):
                    await client.get(key_b)
                await client.close()

        asyncio.run(scenario())

    def test_cluster_fetch_and_push(self, tmp_path):
        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                raw = await KVClient.connect(
                    "127.0.0.1", servers[0].port
                )
                try:
                    reply = await raw.command(["CLUSTER"])
                    assert reply[0] == "CLUSTER"
                    assert ClusterMap.from_json(reply[1]) == live
                    grown = live.with_members(
                        [*live.nodes.values(), NodeInfo("c", "127.0.0.1", 1)]
                    )
                    reply = await raw.command(
                        ["CLUSTER", grown.to_json()]
                    )
                    assert reply == ["OK", "installed"]
                    assert stores[0].map.epoch == grown.epoch
                    reply = await raw.command(
                        ["CLUSTER", grown.to_json()]
                    )
                    assert reply == ["OK", "ignored"]  # not newer
                finally:
                    await raw.close()

        asyncio.run(scenario())

    def test_redirect_budget_exhaustion_raises_cluster_error(self, tmp_path):
        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                # A map lying about ownership: every shard "owned" by a,
                # so b-shard requests MOVED forever (a's real map keeps
                # saying b, and refresh keeps fetching the truth — but
                # this client pins a poisoned view via epoch 99).
                lying = ClusterMap(
                    ["a"] * live.num_shards,
                    list(live.nodes.values()),
                    epoch=99,
                )
                key = keys_for_shard(
                    stores[1].owned_shards()[0], 1, live.num_shards, "tk"
                )[0]
                # No budget: the first MOVED ends the call, unfollowed.
                client = ClusterClient(lying, retry_s=0.0)
                with pytest.raises(ClusterError):
                    await client.put(key, "v")
                assert client.moved_redirects == 0
                await client.close()
                # A budget: redirects are followed until the deadline.
                client = ClusterClient(lying, retry_s=0.3)
                loop = asyncio.get_running_loop()
                started = loop.time()
                with pytest.raises(ClusterError):
                    await client.put(key, "v")
                assert loop.time() - started < 0.3 + 1.0
                assert client.moved_redirects >= 2
                await client.close()

        asyncio.run(scenario())

    def test_scan_discovers_newly_joined_node(self, tmp_path):
        """A stale-map scan must not silently omit a node that joined
        (and received shards) after the client fetched its map: the
        per-node epoch probes force a refresh and a full retry."""

        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                client = ClusterClient(live)  # pins the pre-join map
                for index in range(40):
                    await client.put(f"jk{index:03d}", "v")
                # node c joins: start it, publish the successor map
                grown_boot = live.with_members(
                    [*live.nodes.values(), NodeInfo("c", "127.0.0.1", 0)]
                )
                store_c = NodeStore(
                    "c",
                    grown_boot,
                    LSMConfig(),
                    wal_dir=str(tmp_path / "c"),
                )
                server_c = ClusterNode(store_c, host="127.0.0.1", port=0)
                servers.append(server_c)  # stopped with the cluster
                await server_c.start()
                grown = grown_boot.with_members(
                    [
                        *live.nodes.values(),
                        NodeInfo("c", "127.0.0.1", server_c.port),
                    ]
                )
                for store in [*stores, store_c]:
                    store.adopt_map(grown)
                # move one of a's shards (and its keys) onto c
                moving = stores[0].owned_shards()[0]
                assert any(
                    live.shard_index(f"jk{i:03d}") == moving
                    for i in range(40)
                )
                admin = await KVClient.connect(
                    "127.0.0.1", servers[0].port
                )
                try:
                    await admin.command(["MIGRATE", str(moving), "c"])
                finally:
                    await admin.close()
                assert moving in store_c.owned_shards()
                # the stale client's fan-out misses c entirely — the
                # epoch probe must refresh the map and retry
                pairs = await client.scan("jk", "jl")
                assert len(pairs) == 40
                assert client.map.epoch == grown.epoch + 1
                assert "c" in client.map.nodes
                await client.close()

        asyncio.run(scenario())

    def test_close_blocks_concurrent_pool_insertion(self, tmp_path):
        """A _client_for that passed the fast-path closed check before
        close() ran must not insert a fresh connection afterwards."""

        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                client = ClusterClient(live)
                await client._pool_lock.acquire()  # a mid-flight caller
                closing = asyncio.create_task(client.close())
                await asyncio.sleep(0)  # close() parks on the pool lock
                fetch = asyncio.create_task(
                    client._client_for("127.0.0.1", servers[0].port)
                )
                await asyncio.sleep(0)  # fetch passed the fast-path check
                assert not closing.done()
                client._pool_lock.release()
                await closing
                with pytest.raises(ConnectionError):
                    await fetch  # re-check under the lock sees _closed
                assert client._pool == {}

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# One driver, two peers: an in-process NodeStore and the MIG.* wire peer
# ---------------------------------------------------------------------------


def _record_inbound(store: NodeStore) -> List[tuple]:
    """Wrap ``store``'s inbound entry points; returns the live recording
    of every call a migration driver's peer makes on it."""
    calls: List[tuple] = []
    begin, apply_, seal = (
        store.inbound_begin, store.migration_apply, store.migration_seal
    )

    def inbound_begin(shard, role, source_map=None):
        calls.append(("begin", shard, role))
        return begin(shard, role, source_map)

    def migration_apply(shard, ops):
        calls.append(("apply", shard, [tuple(op) for op in ops]))
        return apply_(shard, ops)

    def migration_seal(shard, new_map):
        calls.append(
            ("seal", shard, new_map.epoch, new_map.owner_id(shard))
        )
        return seal(shard, new_map)

    store.inbound_begin = inbound_begin
    store.migration_apply = migration_apply
    store.migration_seal = migration_seal
    return calls


class TestMigrationDriverPeers:
    def test_wire_peer_and_node_store_are_one_protocol(self, tmp_path):
        """The crash sweep drives ``migrate_shard`` against a NodeStore;
        ``MIGRATE`` drives it against the wire peer. Same shard, same
        chunking, same mid-migration batch: the destination store must
        see the identical call sequence either way."""
        keys = keys_for_shard(0, 11, NUM_SHARDS, "tk")
        preload, fresh = keys[:10], keys[10]

        def load(store):
            for index, key in enumerate(preload):
                store.put(key, f"v{index}")

        def during_on(store):
            def during():
                store.write_batch(
                    [
                        ("put", preload[0], "overwritten"),
                        ("delete", preload[1], None),
                        ("put", fresh, "fresh"),
                    ]
                )

            return during

        # in-process: both maps at epoch 1, like the wire bootstrap
        cmap = ClusterMap.even(
            NUM_SHARDS, _nodes(("a", 7611), ("b", 7612)), epoch=1
        )
        local_a, local_b = (
            NodeStore(
                node_id,
                cmap,
                LSMConfig(),
                wal_dir=str(tmp_path / "local" / node_id),
            )
            for node_id in ("a", "b")
        )
        try:
            load(local_a)
            local_calls = _record_inbound(local_b)
            local_stats = migrate_shard(
                local_a, local_b, 0, chunk=4, during=during_on(local_a)
            )
        finally:
            local_a.close()
            local_b.close()

        async def scenario():
            async with local_cluster(tmp_path / "wire") as (servers, stores, live):
                load(stores[0])
                calls = _record_inbound(stores[1])
                peer = _WirePeer(servers[0], live.nodes["b"])
                try:
                    stats = await asyncio.get_running_loop().run_in_executor(
                        None,
                        lambda: migrate_shard(
                            stores[0],
                            peer,
                            0,
                            chunk=4,
                            during=during_on(stores[0]),
                        ),
                    )
                finally:
                    peer.close()
                assert stores[1].get(preload[0]) == "overwritten"
                assert stores[1].get(preload[1]) is None
                assert stores[1].get(fresh) == "fresh"
                return calls, stats

        wire_calls, wire_stats = asyncio.run(scenario())
        assert wire_calls == local_calls
        kinds = [call[0] for call in wire_calls]
        # begin, 3 snapshot batches of ≤ 4, the tail batch, the seal
        assert kinds == ["begin"] + ["apply"] * 4 + ["seal"]
        assert wire_calls[-1] == ("seal", 0, 2, "b")
        for field in ("shard", "from", "to", "epoch", "snapshot_pairs",
                      "tail_ops"):
            assert wire_stats[field] == local_stats[field], field

    def test_stop_unwinds_a_migration_parked_mid_seed(self, tmp_path):
        """``stop()`` with a MIGRATE in flight must return, and the
        driver thread must leave through its abort path: the source
        still owns the shard, unfenced, with no tail attached."""
        async def scenario():
            gate = threading.Event()
            async with AsyncExitStack() as stack:
                servers, stores, live = await stack.enter_async_context(
                    local_cluster(tmp_path)
                )
                stack.callback(gate.set)  # runs before the cluster stops
                moving = stores[0].owned_shards()[0]
                keys = keys_for_shard(moving, 6, live.num_shards, "tk")
                for key in keys[:5]:
                    stores[0].put(key, "v")
                parked = threading.Event()
                real_apply = stores[1].migration_apply

                def gated_apply(shard, ops):
                    parked.set()
                    assert gate.wait(8.0), "gate never released"
                    real_apply(shard, ops)

                stores[1].migration_apply = gated_apply
                admin = await KVClient.connect(
                    "127.0.0.1", servers[0].port, retry_s=0.0
                )
                migrate = asyncio.create_task(
                    admin.command(["MIGRATE", str(moving), "b"])
                )
                while not parked.is_set():
                    assert not migrate.done(), migrate
                    await asyncio.sleep(0.01)
                assert stores[0].migrating_shards() == [moving]
                (_peer, job) = servers[0]._outbound[moving]
                await asyncio.wait_for(servers[0].stop(), 5.0)
                assert job.done() and job.exception() is not None
                assert servers[0]._outbound == {}
                with pytest.raises((ConnectionError, OSError, ServerError)):
                    await migrate
                await admin.close()
                # exactly one owner, and it still serves
                assert moving in stores[0].owned_shards()
                assert moving not in stores[1].owned_shards()
                assert stores[0].migrating_shards() == []
                stores[0].put(keys[5], "after-stop")  # not fenced
                assert stores[0].get(keys[0]) == "v"

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Seal-failure recovery: the flip must land on exactly one owner
# ---------------------------------------------------------------------------


class TestSealFailureRecovery:
    def test_lost_seal_reply_still_completes_the_flip(
        self, tmp_path, monkeypatch
    ):
        """MIG.SEAL applied on the destination but its reply lost: the
        driver must confirm against the destination's durable map and
        release — resuming serving here would be dual ownership."""

        real_call = StreamConnection.call

        def lost_reply_call(self, fields, deadline=None):
            reply = real_call(self, fields, deadline)
            if fields[0] == "MIG.SEAL":
                raise ConnectionError("reply lost to a reset")
            return reply

        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                monkeypatch.setattr(StreamConnection, "call", lost_reply_call)
                moving = stores[0].owned_shards()[0]
                key = keys_for_shard(moving, 1, live.num_shards, "tk")[0]
                admin = await KVClient.connect(
                    "127.0.0.1", servers[0].port
                )
                try:
                    await admin.put(key, "v")
                    reply = await admin.command(
                        ["MIGRATE", str(moving), "b"]
                    )
                finally:
                    await admin.close()
                assert reply[0] == "OK"
                assert moving not in stores[0].owned_shards()
                assert moving in stores[1].owned_shards()
                assert stores[0].map.epoch == stores[1].map.epoch == 2
                assert stores[1].get(key) == "v"
                with pytest.raises(ShardMovedError):
                    stores[0].get(key)  # exactly one owner

        asyncio.run(scenario())

    def test_undelivered_seal_aborts_and_source_keeps_serving(
        self, tmp_path, monkeypatch
    ):
        """MIG.SEAL provably never reached the destination (its durable
        map still assigns the shard to the source): aborting is safe."""

        real_call = StreamConnection.call

        def drop_seal_call(self, fields, deadline=None):
            if fields[0] == "MIG.SEAL":
                raise ConnectionError("seal never sent")
            return real_call(self, fields, deadline)

        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                monkeypatch.setattr(StreamConnection, "call", drop_seal_call)
                moving = stores[0].owned_shards()[0]
                key = keys_for_shard(moving, 1, live.num_shards, "tk")[0]
                admin = await KVClient.connect(
                    "127.0.0.1", servers[0].port
                )
                try:
                    await admin.put(key, "v")
                    with pytest.raises(ServerError):
                        await admin.command(
                            ["MIGRATE", str(moving), "b"]
                        )
                    await admin.put(key, "v2")  # unfenced, still owned
                finally:
                    await admin.close()
                assert moving in stores[0].owned_shards()
                assert moving not in stores[1].owned_shards()
                assert stores[0].map.epoch == 1
                assert stores[0].get(key) == "v2"

        asyncio.run(scenario())

    def test_unreachable_seal_keeps_shard_fenced_then_resolves(
        self, tmp_path, monkeypatch
    ):
        """Seal outcome unknowable (destination dark at the seal
        instant): the shard must stay fenced — not resume serving — and
        a retried MIGRATE after the network heals resolves the flip."""

        class BlackoutClient(KVClient):
            async def command(self, fields):
                if fields[0] == "CLUSTER":
                    raise ConnectionError("partitioned at the seal")
                return await super().command(fields)

        real_call = StreamConnection.call

        def blackout_call(self, fields, deadline=None):
            if fields[0] == "MIG.SEAL":
                raise ConnectionError("partitioned at the seal")
            return real_call(self, fields, deadline)

        async def scenario():
            async with local_cluster(tmp_path) as (servers, stores, live):
                moving = stores[0].owned_shards()[0]
                key = keys_for_shard(moving, 1, live.num_shards, "tk")[0]
                admin = await KVClient.connect(
                    "127.0.0.1", servers[0].port
                )
                try:
                    await admin.put(key, "v")
                finally:
                    await admin.close()
                monkeypatch.setattr(
                    "repro.cluster.node.KVClient", BlackoutClient
                )
                monkeypatch.setattr(StreamConnection, "call", blackout_call)
                admin = await KVClient.connect(
                    "127.0.0.1", servers[0].port
                )
                try:
                    with pytest.raises(ServerError):
                        await admin.command(
                            ["MIGRATE", str(moving), "b"]
                        )
                finally:
                    await admin.close()
                # neither outcome provable: still owned, but fenced
                assert moving in stores[0].owned_shards()
                with pytest.raises(ShardFencedError):
                    stores[0].put(key, "lost?")
                # network heals: the retry resolves the pending flip
                # (the seal never landed) and re-drives the migration
                monkeypatch.undo()
                admin = await KVClient.connect(
                    "127.0.0.1", servers[0].port
                )
                try:
                    reply = await admin.command(
                        ["MIGRATE", str(moving), "b"]
                    )
                finally:
                    await admin.close()
                assert reply[0] == "OK"
                assert moving in stores[1].owned_shards()
                assert stores[1].get(key) == "v"

        asyncio.run(scenario())
