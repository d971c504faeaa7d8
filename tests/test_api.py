"""Protocol-conformance tests: every store satisfies KVStore.

The :class:`repro.api.KVStore` protocol is the contract the serving layer
programs against. These tests pin it structurally (``isinstance`` against
the runtime-checkable protocol) and behaviorally (the same CRUD scenario
runs against every store kind, and :class:`~repro.server.KVServer` serves
each one unmodified).
"""

from __future__ import annotations

import asyncio
import dataclasses
import tempfile
import threading

import pytest

from repro import (
    BatchOp,
    ClusterMap,
    KVStore,
    LSMConfig,
    LSMTree,
    NodeInfo,
    NodeStore,
    PartialScanResult,
    ReplicatedStore,
    ShardedStore,
    Snapshot,
    TreeStats,
    range_boundaries,
)
from repro.server import KVClient, KVServer
from repro.workload.distributions import format_key


def small_config() -> LSMConfig:
    return LSMConfig(
        buffer_size_bytes=1024, target_file_bytes=512, block_bytes=256
    )


def make_store(kind: str, config: LSMConfig | None = None) -> KVStore:
    config = config or small_config()
    if kind == "tree":
        return LSMTree(config)
    if kind == "sharded":
        return ShardedStore(4, config)
    if kind.startswith("replicated"):
        return ReplicatedStore(
            4,
            config,
            mode="async" if kind == "replicated-async" else "sync",
            wal_dir=tempfile.mkdtemp(prefix="repro-api-repl-"),
        )
    if kind == "node":
        # A cluster node's store owning every shard of a one-node map.
        node = NodeInfo("solo", "127.0.0.1", 0)
        return NodeStore(
            "solo",
            ClusterMap.even(4, [node]),
            config,
            wal_dir=tempfile.mkdtemp(prefix="repro-api-node-"),
        )
    return ShardedStore(boundaries=range_boundaries(400, 4), config=config)


def shard_trees(store: KVStore) -> list[LSMTree]:
    """Every tree a write to ``store`` can commit into."""
    if isinstance(store, LSMTree):
        return [store]
    if isinstance(store, NodeStore):
        return list(store.trees.values())
    return list(store.shards.values()) + list(getattr(store, "replicas", []))


STORE_KINDS = ("tree", "sharded", "sharded-range", "replicated", "node")


@pytest.mark.parametrize("kind", STORE_KINDS)
class TestConformance:
    def test_isinstance_of_protocol(self, kind):
        store = make_store(kind)
        try:
            assert isinstance(store, KVStore)
        finally:
            store.close()

    def test_crud_scenario(self, kind):
        with make_store(kind) as store:
            keys = [format_key(i) for i in range(120)]
            for key in keys:
                store.put(key, f"v-{key}")
            assert store.get(keys[7]) == f"v-{keys[7]}"
            assert store.get("missing-key") is None
            store.delete(keys[7])
            assert store.get(keys[7]) is None
            store.flush()
            assert store.get(keys[11]) == f"v-{keys[11]}"

    def test_scan_sorted_with_limit(self, kind):
        with make_store(kind) as store:
            for index in range(100):
                store.put(format_key(index), str(index))
            full = store.scan(format_key(10), format_key(60))
            assert [k for k, _v in full] == [
                format_key(i) for i in range(10, 60)
            ]
            limited = store.scan(format_key(10), format_key(60), 5)
            assert limited == full[:5]
            assert store.scan(format_key(10), format_key(60), 0) == []
            with pytest.raises(ValueError):
                store.scan("a", "z", -1)

    def test_write_batch_validates_first(self, kind):
        ops: list[BatchOp] = [
            ("put", "a", "1"),
            ("put", "b", "2"),
            ("delete", "a", None),
        ]
        with make_store(kind) as store:
            store.write_batch(ops)
            assert store.get("a") is None
            assert store.get("b") == "2"
            with pytest.raises(ValueError):
                store.write_batch([("put", "c", "3"), ("frob", "d", None)])
            assert store.get("c") is None
            store.write_batch([])  # no-op

    def test_stats_and_backpressure_shape(self, kind):
        with make_store(kind) as store:
            store.put("k", "v")
            stats = store.stats
            assert isinstance(stats, TreeStats)
            assert stats.puts >= 1
            state = store.backpressure()
            assert state["state"] in ("ok", "slowdown", "stop")
            assert "level0_runs" in state
            assert "immutable_buffers" in state

    def test_snapshot_reads_are_repeatable(self, kind):
        # The v2 contract: snapshot() pins one consistent sequence
        # point; get/scan at= keep answering from it while later writes
        # land, and the raw token round-trips through the same reads.
        with make_store(kind) as store:
            keys = [format_key(i) for i in range(24)]
            for key in keys:
                store.put(key, "v1")
            snapshot = store.snapshot()
            assert isinstance(snapshot, Snapshot)
            assert snapshot.token
            store.write_batch([("put", key, "v2") for key in keys])
            store.delete(keys[0])
            assert store.get(keys[3], at=snapshot) == "v1"
            assert store.get(keys[0], at=snapshot.token) == "v1"
            assert store.get(keys[3]) == "v2"
            at_pairs = store.scan(format_key(0), format_key(24), at=snapshot)
            assert [v for _k, v in at_pairs] == ["v1"] * len(keys)
            now_pairs = store.scan(format_key(0), format_key(24))
            assert all(v == "v2" for _k, v in now_pairs)
            limited = store.scan(
                format_key(0), format_key(24), 5, at=snapshot.token
            )
            assert limited == at_pairs[:5]
            snapshot.close()
            snapshot.close()  # idempotent

    def test_snapshot_handle_is_context_manager(self, kind):
        with make_store(kind) as store:
            store.put("k", "v1")
            with store.snapshot() as snapshot:
                store.put("k", "v2")
                assert store.get("k", at=snapshot) == "v1"

    def test_cross_unit_batch_is_invisible_to_snapshot(self, kind):
        # A write_batch spanning routing units must be entirely outside
        # a snapshot taken before it — no unit may leak its sub-batch
        # into the pinned view.
        with make_store(kind) as store:
            keys = [format_key(i) for i in range(40)]
            for key in keys:
                store.put(key, "old")
            snapshot = store.snapshot()
            store.write_batch([("put", key, "new") for key in keys])
            at_values = {
                v
                for _k, v in store.scan(
                    format_key(0), format_key(40), at=snapshot
                )
            }
            assert at_values == {"old"}

    def test_scan_allow_partial_shape(self, kind):
        # With every unit healthy the result is complete but still the
        # uniform PartialScanResult shape (list-compatible).
        with make_store(kind) as store:
            for index in range(30):
                store.put(format_key(index), str(index))
            result = store.scan(
                format_key(0), format_key(30), allow_partial=True
            )
            assert isinstance(result, PartialScanResult)
            assert not result.partial
            assert result.skipped_shards == []
            assert list(result) == store.scan(format_key(0), format_key(30))

    def test_malformed_at_token_raises(self, kind):
        with make_store(kind) as store:
            store.put("k", "v")
            with pytest.raises(ValueError):
                store.get("k", at="not-a-token")

    def test_context_manager_closes(self, kind):
        store = make_store(kind)
        with store:
            store.put("k", "v")
        # Closed: LSMTree raises ClosedError on further writes; the
        # aggregate stores either raise or have closed shards underneath.
        with pytest.raises(Exception):
            store.put("k2", "v2")
            store.flush()


@pytest.mark.parametrize("background", [False, True], ids=["sync", "bg"])
@pytest.mark.parametrize("kind", STORE_KINDS + ("replicated-async",))
def test_latest_state_get_never_waits_on_a_commit(kind, background):
    """The KVStore.get contract the server's loop relies on: without
    ``at=``, a point read takes no lock that is held across I/O. A
    helper thread holds every tree's write mutex (an ``fdatasync`` in
    flight holds exactly that); reads of a flushed key, a buffered key
    and an absent key must still return."""
    config = dataclasses.replace(small_config(), background_mode=background)
    store = make_store(kind, config)
    held, release = threading.Event(), threading.Event()

    def hold_write_mutexes():
        trees = shard_trees(store)
        for tree in trees:
            tree._write_mutex.acquire()
        held.set()
        release.wait(60)
        for tree in trees:
            tree._write_mutex.release()

    values = []

    def read():
        keys = (format_key(5), format_key(105), "missing-key")
        values.extend(store.get(key) for key in keys)

    holder = threading.Thread(target=hold_write_mutexes)
    reader = threading.Thread(target=read, daemon=True)
    try:
        for index in range(100):
            store.put(format_key(index), "flushed")
        store.flush()
        for index in range(100, 120):
            store.put(format_key(index), "buffered")
        holder.start()
        assert held.wait(10)
        reader.start()
        reader.join(30)  # the failure bound, not a pacing delay
        assert not reader.is_alive(), "get() waited on a write mutex"
        assert values == ["flushed", "buffered", None]
    finally:
        release.set()
        if holder.ident is not None:
            holder.join(10)
        store.close()


class TestNonConformance:
    def test_arbitrary_object_is_not_a_kvstore(self):
        assert not isinstance(object(), KVStore)

    def test_dict_is_not_a_kvstore(self):
        assert not isinstance({}, KVStore)


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_server_runs_unmodified_over_any_store(kind):
    """The acceptance check: KVServer serves each store kind as-is."""

    async def scenario():
        server = KVServer(make_store(kind), owns_tree=True)
        await server.start()
        try:
            async with await KVClient.connect(
                "127.0.0.1", server.port
            ) as kv:
                for index in range(40):
                    await kv.put(format_key(index), f"v{index}")
                assert await kv.get(format_key(3)) == "v3"
                assert await kv.get("missing") is None
                pairs = await kv.scan(format_key(0), format_key(40))
                assert [k for k, _v in pairs] == [
                    format_key(i) for i in range(40)
                ]
                limited = await kv.scan(format_key(0), format_key(40), 7)
                assert limited == pairs[:7]
                count = await kv.batch(
                    [("put", "zz-batch", "1"), ("delete", format_key(0), None)]
                )
                assert count == 2
                assert await kv.get("zz-batch") == "1"
                assert await kv.get(format_key(0)) is None
                info = await kv.info()
                assert info["backpressure"]["state"] == "ok"
                assert info["engine"]["puts"] >= 40
                if kind == "tree":
                    assert isinstance(info["levels"], list)
                else:
                    assert len(info["shards"]) == 4
        finally:
            await server.stop()

    asyncio.run(scenario())
