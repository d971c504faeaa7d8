"""Tests for per-shard WAL-shipping replication and automatic failover.

Covers the commit hook on the WAL, the ship/apply/ack pipeline in both
sync and async modes, manual and automatic promotion, the replica-lost
degradation policy, and recovery of either side of the replicated
directory layout.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.config import LSMConfig
from repro.core.tree import LSMTree
from repro.errors import (
    ConfigError,
    ReplicationError,
    ShardMovedError,
    ShardUnavailableError,
)
from repro.faults import inject_worker_death
from repro.replication import ReplicatedStore
from repro.replication.store import PROMOTED, REPLICA_LOST
from repro.shard import ShardedStore, hash_shard_index


def small_config(**overrides) -> LSMConfig:
    defaults = dict(
        buffer_size_bytes=1024, target_file_bytes=512, block_bytes=256
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


def bg_config() -> LSMConfig:
    return LSMConfig(
        background_mode=True, flush_threads=1, compaction_threads=1
    )


def key_on_shard(store: ShardedStore, shard: int) -> str:
    for i in range(10_000):
        key = f"probe-{i}"
        if store.shard_index(key) == shard:
            return key
    raise AssertionError("no key found")  # pragma: no cover


def wait_until(predicate, timeout_s: float = 5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


class TestWalCommitHook:
    def test_hook_fires_per_commit_group_after_durability(self, tmp_path):
        groups = []
        tree = LSMTree(small_config(), wal_dir=str(tmp_path))
        try:
            tree.set_wal_commit_hook(lambda entries: groups.append(entries))
            tree.put("a", "1")
            tree.write_batch([("put", "b", "2"), ("delete", "a", None)])
            assert [len(group) for group in groups] == [1, 2]
            assert groups[0][0].key == "a"
            assert [e.key for e in groups[1]] == ["b", "a"]
            # Detaching stops deliveries; the hook survives WAL rotation.
            tree.set_wal_commit_hook(None)
            tree.put("c", "3")
            assert len(groups) == 2
        finally:
            tree.close()

    def test_hook_survives_wal_rotation(self, tmp_path):
        seen = []
        tree = LSMTree(small_config(), wal_dir=str(tmp_path))
        try:
            tree.set_wal_commit_hook(lambda entries: seen.extend(entries))
            for i in range(60):  # enough to rotate the 1 KiB buffer
                tree.put(f"key-{i:04d}", "x" * 32)
            assert tree.stats.flushes > 0
            assert len(seen) == 60
        finally:
            tree.close()

    def test_hook_failure_surfaces_to_writer(self, tmp_path):
        tree = LSMTree(small_config(), wal_dir=str(tmp_path))
        try:
            tree.set_wal_commit_hook(
                lambda entries: (_ for _ in ()).throw(
                    ReplicationError("ship failed")
                )
            )
            with pytest.raises(ReplicationError):
                tree.put("k", "v")
        finally:
            tree.set_wal_commit_hook(None)
            tree.close()


class TestShippingAndWatermarks:
    @pytest.fixture(params=["sync", "async"])
    def mode(self, request):
        return request.param

    def test_writes_ship_to_replicas(self, tmp_path, mode):
        store = ReplicatedStore(
            2, small_config(), mode=mode, wal_dir=str(tmp_path)
        )
        try:
            for i in range(40):
                store.put(f"key-{i:04d}", f"v{i}")
            store.write_batch(
                [("put", "batch-a", "1"), ("delete", "key-0003", None)]
            )
            # Sync mode acks inline; async needs the appliers to drain.
            wait_until(
                lambda: all(
                    row["lag_records"] == 0
                    for row in store.replication_summary()["shards"]
                )
            )
            summary = store.replication_summary()
            assert summary["mode"] == mode
            assert summary["promotions"] == 0
            for row in summary["shards"]:
                assert row["state"] == mode
                assert row["lag_bytes"] == 0
                assert row["acked_seqno"] == row["applied_seqno"]
            # The replicas independently hold every acknowledged write.
            for index, replica in enumerate(store.replicas):
                assert replica.seqno == store.shards[index].seqno
        finally:
            store.close()

    def test_replica_holds_data_after_primary_kill(self, tmp_path, mode):
        store = ReplicatedStore(
            2, small_config(), mode=mode, wal_dir=str(tmp_path)
        )
        keys = [f"key-{i:04d}" for i in range(30)]
        for key in keys:
            store.put(key, f"v-{key}")
        store.delete(keys[7])
        wait_until(
            lambda: all(
                row["lag_records"] == 0
                for row in store.replication_summary()["shards"]
            )
        )
        store.kill()  # primary-side crash, replicas' WALs survive
        # Each standby journals into its own shard directory; replaying
        # those alone must rebuild every acknowledged write.
        standbys = [
            LSMTree.recover(
                small_config(), str(tmp_path / "replica" / f"shard-{i:02d}")
            )
            for i in range(2)
        ]
        try:
            for key in keys:
                expected = None if key == keys[7] else f"v-{key}"
                standby = standbys[hash_shard_index(key, 2)]
                assert standby.get(key) == expected
        finally:
            for standby in standbys:
                standby.close()

    def test_constructor_requires_wal_dir_and_valid_mode(self, tmp_path):
        with pytest.raises(ConfigError):
            ReplicatedStore(2, small_config(), mode="sync")
        with pytest.raises(ConfigError):
            ReplicatedStore(
                2, small_config(), mode="paxos", wal_dir=str(tmp_path)
            )


class TestPromotion:
    def test_manual_promote_swaps_replica_in(self, tmp_path):
        store = ReplicatedStore(
            2, small_config(), mode="sync", wal_dir=str(tmp_path)
        )
        try:
            for i in range(20):
                store.put(f"key-{i:04d}", "before")
            old_primary = store.shards[0]
            assert store.promote(0, reason="test") is True
            assert store.shards[0] is store.replicas[0]
            assert store.shards[0] is not old_primary
            assert store.promotions == 1
            assert store.promote(0) is False  # idempotent
            summary = store.replication_summary()
            assert summary["shards"][0]["state"] == PROMOTED
            assert summary["shards"][1]["state"] == "sync"
            # The promoted shard serves reads and writes (primary-only).
            dead_key = key_on_shard(store, 0)
            store.put(dead_key, "after")
            assert store.get(dead_key) == "after"
            # Shard 1 still replicates.
            other_key = key_on_shard(store, 1)
            store.put(other_key, "replicated")
            assert (
                store.replication_summary()["shards"][1]["acked_seqno"]
                == store.shards[1].seqno - 1
            )
        finally:
            store.close()

    def test_worker_death_triggers_automatic_failover(self, tmp_path):
        store = ReplicatedStore(
            3, bg_config(), mode="sync", wal_dir=str(tmp_path)
        )
        try:
            for i in range(30):
                store.put(f"k{i}", "v")
            wait_until(
                lambda: all(
                    row["lag_records"] == 0
                    for row in store.replication_summary()["shards"]
                )
            )
            inject_worker_death(store.shards[1], "test: dead worker")
            dead_key = key_on_shard(store, 1)
            # The write that observes the failure is retried against the
            # promoted replica — no error escapes to the caller.
            store.put(dead_key, "post-failover")
            assert store.get(dead_key) == "post-failover"
            assert store.promotions == 1
            health = store.check_health()
            assert health["state"] == "healthy"
            assert health["quarantined"] == []
            assert health["replication"]["shards"][1]["state"] == PROMOTED
        finally:
            store.kill()

    def test_check_health_promotes_quarantined_shards(self, tmp_path):
        store = ReplicatedStore(
            3, bg_config(), mode="sync", wal_dir=str(tmp_path)
        )
        try:
            for i in range(30):
                store.put(f"k{i}", "v")
            inject_worker_death(store.shards[2], "test: dead worker")
            # No client op touches shard 2 — the health poll alone must
            # detect the death and fail over.
            health = store.check_health()
            assert health["state"] == "healthy"
            assert store.promotions == 1
            assert health["replication"]["shards"][2]["state"] == PROMOTED
        finally:
            store.kill()

    def test_second_failure_on_promoted_shard_is_fatal(self, tmp_path):
        store = ReplicatedStore(
            3, bg_config(), mode="sync", wal_dir=str(tmp_path)
        )
        try:
            inject_worker_death(store.shards[0], "test: dead worker")
            dead_key = key_on_shard(store, 0)
            store.put(dead_key, "v")  # auto-failover
            assert store.promotions == 1
            # The promoted replica has no standby of its own.
            inject_worker_death(store.shards[0], "test: dead again")
            with pytest.raises(ShardUnavailableError):
                store.put(dead_key, "v2")
            assert store.promotions == 1
            assert store.check_health()["state"] == "degraded"
        finally:
            store.kill()


class TestBothNodesServing:
    """After a promotion both nodes serve shards: batches are atomic per
    node, scans and snapshots compose the two nodes' slices."""

    def test_batches_scans_and_snapshots_span_the_promotion(self, tmp_path):
        store = ReplicatedStore(
            2, small_config(), mode="sync", wal_dir=str(tmp_path)
        )
        try:
            keys = [f"key-{i:04d}" for i in range(20)]
            for key in keys:
                store.put(key, "v1")
            store.promote(0)
            on = {shard: key_on_shard(store, shard) for shard in (0, 1)}
            with pytest.raises(ShardMovedError):
                store.write_batch(
                    [("put", on[0], "x"), ("put", on[1], "x")]
                )
            assert store.get(on[0]) is None and store.get(on[1]) is None
            with store.snapshot() as snap:
                assert sorted(snap.seqnos) == [0, 1]
                for key in keys:
                    store.put(key, "v2")
                assert store.scan("key-", "key-~", at=snap) == [
                    (key, "v1") for key in keys
                ]
            assert store.scan("key-", "key-~", 5) == [
                (key, "v2") for key in keys[:5]
            ]
            partial = store.scan("key-", "key-~", allow_partial=True)
            assert not partial.partial and len(partial) == len(keys)
        finally:
            store.close()

    def test_planned_promotion_under_concurrent_writers(self, tmp_path):
        """Writers racing a promotion are fenced, wait for it and retry
        on the standby: no write fails, every acked value survives."""
        store = ReplicatedStore(
            2, small_config(), mode="async", wal_dir=str(tmp_path)
        )
        acked = {}
        stop = threading.Event()

        def writer(index: int) -> None:
            sequence = 0
            while not stop.is_set():
                key = f"w{index}-{sequence % 8}"
                store.put(key, f"{sequence}")
                acked[key] = f"{sequence}"
                sequence += 1

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(6)
        ]
        try:
            for thread in threads:
                thread.start()
            wait_until(lambda: len(acked) >= 24)
            assert store.promote(0) is True
            wait_until(lambda: len(acked) >= 48)
        finally:
            stop.set()
            for thread in threads:
                thread.join(10.0)
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        for key, value in acked.items():
            assert store.get(key) == value
        store.close()
        recovered = ReplicatedStore.recover(
            small_config(), str(tmp_path), mode="async"
        )
        try:
            for key, value in acked.items():
                assert recovered.get(key) == value
        finally:
            recovered.close()


class TestReplicaLost:
    def test_sync_write_errors_then_degrades_to_primary_only(
        self, tmp_path
    ):
        store = ReplicatedStore(
            2, small_config(), mode="sync", wal_dir=str(tmp_path)
        )
        try:
            store.put("k0", "v0")
            # Kill shard 0's replica out from under the replicator.
            store.replicas[0].kill()
            dead_key = key_on_shard(store, 0)
            with pytest.raises(ReplicationError):
                store.put(dead_key, "unreplicated")
            summary = store.replication_summary()
            assert summary["shards"][0]["state"] == REPLICA_LOST
            # Later writes succeed primary-only; failover is refused.
            store.put(dead_key, "primary-only")
            assert store.get(dead_key) == "primary-only"
            with pytest.raises(ReplicationError):
                store.promote(0)
        finally:
            store.close()

    def test_async_replica_loss_degrades_silently(self, tmp_path):
        store = ReplicatedStore(
            2, small_config(), mode="async", wal_dir=str(tmp_path)
        )
        try:
            store.replicas[1].kill()
            key = key_on_shard(store, 1)

            # The applier fails in the background; the loss is observed
            # by the next ship, which degrades the shard without ever
            # surfacing an error to the async writer.
            def degraded() -> bool:
                store.put(key, "v")
                row = store.replication_summary()["shards"][1]
                return row["state"] == REPLICA_LOST

            wait_until(degraded)
            store.put(key, "v2")  # still accepted, primary-only
            assert store.get(key) == "v2"
        finally:
            store.close()


class TestSyncAckSemantics:
    def test_sync_put_blocks_until_replica_ack(self, tmp_path):
        store = ReplicatedStore(
            1, small_config(), mode="sync", wal_dir=str(tmp_path)
        )
        try:
            release = threading.Event()
            # A shipped group lands on the standby as one write_batch.
            real_apply = store.replicas[0].write_batch

            def slow_apply(ops):
                release.wait(5.0)
                real_apply(ops)

            store.replicas[0].write_batch = slow_apply
            done = threading.Event()

            def writer():
                store.put("k", "v")
                done.set()

            thread = threading.Thread(target=writer, daemon=True)
            thread.start()
            time.sleep(0.05)
            assert not done.is_set()  # blocked on the replica ack
            release.set()
            assert done.wait(5.0)
            thread.join(5.0)
            row = store.replication_summary()["shards"][0]
            assert row["acked_seqno"] == row["applied_seqno"] == 0
        finally:
            store.close()


class TestRecovery:
    def test_recover_restores_both_sides(self, tmp_path):
        store = ReplicatedStore(
            2, small_config(), mode="sync", wal_dir=str(tmp_path)
        )
        keys = [f"key-{i:04d}" for i in range(30)]
        for key in keys:
            store.put(key, f"v-{key}")
        store.kill()  # no clean close: WAL replay on both sides

        recovered = ReplicatedStore.recover(
            small_config(), str(tmp_path), mode="sync"
        )
        try:
            for key in keys:
                assert recovered.get(key) == f"v-{key}"
            # Replication resumes after recovery.
            recovered.put("post-recovery", "1")
            assert recovered.get("post-recovery") == "1"
            index = recovered.shard_index("post-recovery")
            row = recovered.replication_summary()["shards"][index]
            assert row["acked_seqno"] == row["applied_seqno"]
        finally:
            recovered.close()

    @pytest.mark.parametrize("stop", ["close", "kill"])
    def test_acked_write_after_promotion_survives_restart(
        self, tmp_path, stop
    ):
        store = ReplicatedStore(
            2, small_config(), mode="sync", wal_dir=str(tmp_path)
        )
        promoted_key = key_on_shard(store, 0)
        other_key = key_on_shard(store, 1)
        store.put(promoted_key, "before")
        store.put(other_key, "unpromoted")
        assert store.promote(0) is True
        store.put(promoted_key, "after-promote")
        getattr(store, stop)()

        recovered = ReplicatedStore.recover(
            small_config(), str(tmp_path), mode="sync"
        )
        try:
            assert recovered.get(promoted_key) == "after-promote"
            assert recovered.get(other_key) == "unpromoted"
        finally:
            recovered.close()

    def test_recover_requires_replicated_layout(self, tmp_path):
        plain = ShardedStore(2, small_config(), wal_dir=str(tmp_path))
        plain.close()
        with pytest.raises(ConfigError, match="primary"):
            ReplicatedStore.recover(small_config(), str(tmp_path))

    def test_reopen_rejects_contradictory_sharding(self, tmp_path):
        store = ReplicatedStore(
            2, small_config(), mode="sync", wal_dir=str(tmp_path)
        )
        store.close()
        with pytest.raises(ConfigError, match="different sharding"):
            ReplicatedStore(
                3, small_config(), mode="sync", wal_dir=str(tmp_path)
            )
