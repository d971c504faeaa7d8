"""Tests for the sharded engine: routing, scatter-gather, recovery."""

from __future__ import annotations

import os
import random
import threading

import pytest

from repro.core.config import LSMConfig
from repro.errors import ClosedError, ConfigError, ShardUnavailableError
from repro.faults import inject_worker_death
from repro.shard import ShardedStore, hash_shard_index, range_boundaries
from repro.shard.store import MANIFEST_NAME, PartialScanResult
from repro.workload.distributions import format_key


def small_config(**overrides) -> LSMConfig:
    defaults = dict(
        buffer_size_bytes=1024, target_file_bytes=512, block_bytes=256
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


class TestRouting:
    def test_hash_routing_is_deterministic_and_covers_all_shards(self):
        with ShardedStore(4, small_config()) as store:
            indices = {store.shard_index(format_key(i)) for i in range(200)}
            assert indices == {0, 1, 2, 3}
            for i in range(50):
                key = format_key(i)
                assert store.shard_index(key) == hash_shard_index(key, 4)
                assert store.shard_index(key) == store.shard_index(key)

    def test_hash_routing_is_not_builtin_hash(self):
        # crc32 is process-independent; builtin hash is salted. Pin one
        # known value so a silent routing change cannot slip through —
        # recovery correctness depends on this staying stable forever.
        assert hash_shard_index("key00000000", 4) == 0  # crc32 3600173120
        assert hash_shard_index("user42", 7) == 5  # crc32 2083503798

    def test_range_routing_respects_boundaries(self):
        bounds = range_boundaries(100, 4)
        with ShardedStore(boundaries=bounds, config=small_config()) as store:
            assert store.routing == "range"
            assert store.num_shards == 4
            assert store.shard_index(format_key(0)) == 0
            assert store.shard_index(format_key(30)) == 1
            assert store.shard_index(format_key(99)) == 3
            assert store.shard_index("zzz") == 3

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ShardedStore(0, small_config())
        with pytest.raises(ConfigError):
            ShardedStore(4, small_config(), routing="range")
        with pytest.raises(ConfigError):
            ShardedStore(4, small_config(), routing="modulo")
        with pytest.raises(ValueError):
            ShardedStore(boundaries=["b", "a"], config=small_config())
        with pytest.raises(ValueError):
            # 2 boundaries -> 3 shards, contradicting num_shards=4.
            ShardedStore(4, small_config(), boundaries=["a", "b"])


class TestOperations:
    @pytest.fixture(params=["hash", "range"])
    def store(self, request):
        if request.param == "hash":
            built = ShardedStore(4, small_config())
        else:
            built = ShardedStore(
                boundaries=range_boundaries(300, 4), config=small_config()
            )
        yield built
        built.close()

    def test_put_get_delete(self, store):
        keys = [format_key(i) for i in range(300)]
        random.Random(3).shuffle(keys)
        for key in keys:
            store.put(key, f"v-{key}")
        for key in keys[::17]:
            assert store.get(key) == f"v-{key}"
        store.delete(keys[0])
        assert store.get(keys[0]) is None

    def test_scan_is_globally_sorted(self, store):
        for index in range(300):
            store.put(format_key(index), str(index))
        result = store.scan(format_key(20), format_key(220))
        assert [k for k, _v in result] == [
            format_key(i) for i in range(20, 220)
        ]
        assert [v for _k, v in result] == [str(i) for i in range(20, 220)]

    def test_scan_limit(self, store):
        for index in range(300):
            store.put(format_key(index), str(index))
        limited = store.scan(format_key(0), format_key(300), 9)
        assert [k for k, _v in limited] == [format_key(i) for i in range(9)]
        assert store.scan(format_key(0), format_key(300), 0) == []
        with pytest.raises(ValueError):
            store.scan("a", "z", -2)

    def test_scan_empty_interval(self, store):
        assert store.scan("z", "a") == []

    def test_write_batch_splits_across_shards(self, store):
        ops = [("put", format_key(i), str(i)) for i in range(0, 300, 3)]
        ops.append(("delete", format_key(0), None))
        store.write_batch(ops)
        assert store.get(format_key(0)) is None
        assert store.get(format_key(60)) == "60"
        # Every shard received its sub-batch: the keys cover the whole
        # keyspace, so both hash and range routing touch all 4 shards.
        assert all(shard.stats.puts > 0 for shard in store.shards.values())

    def test_write_batch_validates_before_submitting(self, store):
        with pytest.raises(ValueError):
            store.write_batch([("put", "good", "v"), ("put", "bad", None)])
        assert store.get("good") is None
        with pytest.raises(ValueError):
            store.write_batch([("put", "", "v")])
        with pytest.raises(ValueError):
            store.write_batch([("merge", "k", "v")])

    def test_stats_rollup_sums_shards(self, store):
        for index in range(100):
            store.put(format_key(index), "v")
        merged = store.stats
        assert merged.puts == 100
        assert merged.puts == sum(s.stats.puts for s in store.shards.values())

    def test_backpressure_rollup_has_per_shard_breakdown(self, store):
        state = store.backpressure()
        assert state["state"] == "ok"
        assert len(state["shards"]) == 4
        assert [row["shard"] for row in state["shards"]] == [0, 1, 2, 3]

    def test_shard_summary(self, store):
        for index in range(100):
            store.put(format_key(index), "v")
        summary = store.shard_summary()
        assert len(summary) == 4
        assert sum(row["puts"] for row in summary) == 100
        assert all(row["backpressure"] == "ok" for row in summary)

    def test_close_is_idempotent_then_rejects(self, store):
        store.close()
        store.close()
        with pytest.raises(ClosedError):
            store.put("k", "v")
        with pytest.raises(ClosedError):
            store.scan("a", "z")


class TestBackpressureAggregation:
    def test_worst_shard_state_governs(self):
        store = ShardedStore(3, small_config())
        try:
            real = store.shards[1].backpressure

            def stubbed():
                snapshot = real()
                snapshot["state"] = "stop"
                return snapshot

            store.shards[1].backpressure = stubbed
            state = store.backpressure()
            assert state["state"] == "stop"
            assert state["shards"][1]["state"] == "stop"
            assert state["shards"][0]["state"] == "ok"
        finally:
            store.close()


class TestManifest:
    def test_manifest_written_and_validated(self, tmp_path):
        store = ShardedStore(3, small_config(), wal_dir=str(tmp_path))
        store.close()
        assert os.path.exists(tmp_path / MANIFEST_NAME)
        # Reopening with a contradicting sharding is refused: silently
        # re-routing keys would orphan data in the existing shard WALs.
        with pytest.raises(ConfigError, match="different sharding"):
            ShardedStore(5, small_config(), wal_dir=str(tmp_path))

    def test_each_shard_journals_into_its_own_directory(self, tmp_path):
        store = ShardedStore(2, small_config(), wal_dir=str(tmp_path))
        try:
            for index in range(40):
                store.put(format_key(index), "v")
            for sub in ("shard-00", "shard-01"):
                names = os.listdir(tmp_path / sub)
                assert any(name.startswith("wal.") for name in names)
        finally:
            store.close()

    def test_recover_requires_manifest(self, tmp_path):
        with pytest.raises(ConfigError, match=MANIFEST_NAME):
            ShardedStore.recover(small_config(), str(tmp_path))


class TestCrashRecovery:
    def test_recover_replays_each_shard_independently(self, tmp_path):
        store = ShardedStore(4, small_config(), wal_dir=str(tmp_path))
        keys = [format_key(i) for i in range(80)]
        store.write_batch([("put", key, f"v-{key}") for key in keys])
        store.delete(keys[5])
        # Simulated crash: no close(), no flush.
        recovered = ShardedStore.recover(small_config(), str(tmp_path))
        try:
            assert recovered.num_shards == 4
            assert recovered.routing == "hash"
            for key in keys:
                expected = None if key == keys[5] else f"v-{key}"
                assert recovered.get(key) == expected
                # Same routing after restart: the key is in the same shard.
                assert recovered.shard_index(key) == store.shard_index(key)
        finally:
            recovered.close()

    def test_kill_mid_batch_preserves_per_shard_atomicity(self, tmp_path):
        """A crash between sub-batch commits loses only the uncommitted
        shards' sub-batches — the documented per-shard atomicity."""
        store = ShardedStore(4, small_config(), wal_dir=str(tmp_path))
        ops = [("put", format_key(i), str(i)) for i in range(60)]
        by_shard = {}
        for op in ops:
            by_shard.setdefault(store.shard_index(op[1]), []).append(op)
        assert len(by_shard) == 4
        committed = {index for index in by_shard if index % 2 == 0}
        # Commit only half the sub-batches directly on their shards, as a
        # crash mid write_batch would leave things, then abandon the store.
        for index in committed:
            store.shards[index].write_batch(by_shard[index])
        pre_crash_seqnos = [shard.seqno for shard in store.shards.values()]

        recovered = ShardedStore.recover(small_config(), str(tmp_path))
        try:
            for op, key, value in ops:
                expected = (
                    value if store.shard_index(key) in committed else None
                )
                assert recovered.get(key) == expected
            # Each shard replayed only its own WAL: committed shards kept
            # their sequence numbers, untouched shards stayed at zero.
            for index, shard in recovered.shards.items():
                assert shard.seqno >= pre_crash_seqnos[index]
                if index not in committed:
                    assert shard.seqno == 0
            # The recovered store accepts new writes with consistent
            # per-shard seqnos.
            recovered.write_batch([("put", "post-crash", "1")])
            assert recovered.get("post-crash") == "1"
        finally:
            recovered.close()

    def test_range_routing_survives_recovery(self, tmp_path):
        bounds = range_boundaries(100, 3)
        store = ShardedStore(
            boundaries=bounds,
            config=small_config(),
            wal_dir=str(tmp_path),
        )
        for index in range(100):
            store.put(format_key(index), str(index))
        recovered = ShardedStore.recover(small_config(), str(tmp_path))
        try:
            assert recovered.routing == "range"
            assert recovered.boundaries == bounds
            result = recovered.scan(format_key(0), format_key(100))
            assert [k for k, _v in result] == [
                format_key(i) for i in range(100)
            ]
        finally:
            recovered.close()


class TestDecidedBatchVisibility:
    """A cross-shard batch whose commit hook fails on one participant is
    still *decided*: every shard applies its half, before any restart."""

    @pytest.fixture(params=["hash", "range"])
    def store(self, request, tmp_path):
        if request.param == "hash":
            built = ShardedStore(4, small_config(), wal_dir=str(tmp_path))
        else:
            built = ShardedStore(
                boundaries=range_boundaries(300, 4),
                config=small_config(),
                wal_dir=str(tmp_path),
            )
        yield built
        built.close()

    def test_failed_hook_leaves_no_half_visible_batch(self, store, tmp_path):
        by_shard = {}
        for i in range(300):
            by_shard.setdefault(store.shard_index(format_key(i)), format_key(i))
        k0, k1 = by_shard[0], by_shard[1]
        store.write_batch([("put", k0, "A"), ("put", k1, "A")])

        def failing_hook(_entries):
            raise RuntimeError("replica ack failed")

        # Fails on the second participant, after the first has applied.
        store.shards[1].set_wal_commit_hook(failing_hook)
        with pytest.raises(RuntimeError, match="replica ack failed"):
            store.write_batch([("put", k1, "B"), ("put", k0, "B")])
        store.shards[1].set_wal_commit_hook(None)
        # All or nothing, now: not k0 == "B" beside k1 == "A".
        assert (store.get(k0), store.get(k1)) == ("B", "B")
        # ...and the same after a crash: restart agrees with what
        # readers already saw.
        store.kill()
        recovered = ShardedStore.recover(small_config(), str(tmp_path))
        try:
            assert (recovered.get(k0), recovered.get(k1)) == ("B", "B")
        finally:
            recovered.close()


class TestScanOnTheCallingThread:
    """Hash and range routing, with and without a limit, partial or not:
    the pairs a model says, and every per-shard scan on the caller's
    thread (what lets the server answer a limited scan on its loop)."""

    KEYS = 160

    def _fill(self, store: ShardedStore) -> dict:
        model = {}
        for i in range(self.KEYS):
            store.put(format_key(i), f"v{i}")
            model[format_key(i)] = f"v{i}"
        for i in range(0, self.KEYS, 7):
            store.delete(format_key(i))
            del model[format_key(i)]
        return model

    @staticmethod
    def _record_threads(store: ShardedStore) -> list:
        threads = []
        for tree in store.shards.values():
            def scan(*args, _real=tree.scan, **kwargs):
                threads.append(threading.get_ident())
                return _real(*args, **kwargs)

            tree.scan = scan
        return threads

    @staticmethod
    def _expected(model, lo, hi, limit=None, skip=lambda key: False):
        pairs = [
            (key, value)
            for key, value in sorted(model.items())
            if lo <= key < hi and not skip(key)
        ]
        return pairs if limit is None else pairs[:limit]

    @pytest.mark.parametrize("routing", ["hash", "range"])
    def test_scans_match_the_model_on_the_callers_thread(self, routing):
        if routing == "hash":
            store = ShardedStore(4, small_config())
        else:
            store = ShardedStore(
                boundaries=range_boundaries(self.KEYS, 4),
                config=small_config(),
            )
        with store:
            model = self._fill(store)
            threads = self._record_threads(store)
            for lo, hi in [(0, self.KEYS), (13, 97), (40, 41), (90, 20)]:
                lo_key, hi_key = format_key(lo), format_key(hi)
                for limit in (None, 0, 1, 20, 500):
                    assert store.scan(lo_key, hi_key, limit) == (
                        self._expected(model, lo_key, hi_key, limit)
                    ), (lo, hi, limit)
            # The full hash scan alone fans out to all four shards.
            assert len(threads) >= 4 * 4
            assert set(threads) == {threading.get_ident()}

    def test_partial_hash_scan_over_a_quarantined_shard(self):
        store = ShardedStore(
            4,
            LSMConfig(
                background_mode=True, flush_threads=1, compaction_threads=1
            ),
        )
        try:
            model = self._fill(store)
            inject_worker_death(store.shards[2], "test: dead worker")
            store.check_health()
            threads = self._record_threads(store)
            lo, hi = format_key(0), format_key(self.KEYS)

            def dead(key):
                return store.shard_index(key) == 2

            for limit in (None, 25):
                result = store.scan(lo, hi, limit, allow_partial=True)
                assert result.skipped_shards == [2]
                assert list(result) == self._expected(
                    model, lo, hi, limit, skip=dead
                )
            assert len(threads) == 2 * 3
            assert set(threads) == {threading.get_ident()}
        finally:
            store.kill()


class TestPartialScan:
    def bg_config(self) -> LSMConfig:
        return LSMConfig(
            background_mode=True, flush_threads=1, compaction_threads=1
        )

    def _store_with_dead_shard(self) -> ShardedStore:
        store = ShardedStore(3, self.bg_config())
        for i in range(120):
            store.put(format_key(i), str(i))
        inject_worker_death(store.shards[1], "test: dead worker")
        store.check_health()  # quarantine the dead shard
        assert store.quarantined_shards() == [1]
        return store

    def test_default_scan_refuses_dead_shard(self):
        store = self._store_with_dead_shard()
        try:
            with pytest.raises(ShardUnavailableError):
                store.scan(format_key(0), format_key(120))
        finally:
            store.kill()

    def test_allow_partial_skips_dead_shard_and_marks_result(self):
        store = self._store_with_dead_shard()
        try:
            result = store.scan(
                format_key(0), format_key(120), allow_partial=True
            )
            assert isinstance(result, PartialScanResult)
            assert result.partial
            assert result.skipped_shards == [1]
            # Exactly the live shards' keys, still globally sorted.
            expected = [
                format_key(i)
                for i in range(120)
                if store.shard_index(format_key(i)) != 1
            ]
            assert [k for k, _v in result] == expected
            assert expected  # the scan did return the live shards
            # Limits still apply to what is served.
            limited = store.scan(
                format_key(0), format_key(120), 5, allow_partial=True
            )
            assert len(limited) == 5
            assert limited.partial
        finally:
            store.kill()

    def test_allow_partial_on_healthy_store_is_complete(self):
        with ShardedStore(3, small_config()) as store:
            for i in range(60):
                store.put(format_key(i), str(i))
            result = store.scan(
                format_key(0), format_key(60), allow_partial=True
            )
            assert isinstance(result, PartialScanResult)
            assert not result.partial
            assert result.skipped_shards == []
            assert [k for k, _v in result] == [
                format_key(i) for i in range(60)
            ]

    def test_range_scan_missing_dead_shard_is_not_partial(self):
        """skipped_shards reflects *overlapping* shards only: a dead
        shard entirely outside ``[lo, hi)`` neither fails the default
        scan nor marks the partial one."""
        bounds = range_boundaries(90, 3)
        store = ShardedStore(
            boundaries=bounds, config=self.bg_config()
        )
        try:
            for i in range(90):
                store.put(format_key(i), str(i))
            inject_worker_death(store.shards[0], "test: dead worker")
            store.check_health()
            assert store.quarantined_shards() == [0]
            # [30, 90) lives on shards 1 and 2; shard 0 is irrelevant.
            strict = store.scan(format_key(30), format_key(90))
            assert [k for k, _v in strict] == [
                format_key(i) for i in range(30, 90)
            ]
            result = store.scan(
                format_key(30), format_key(90), allow_partial=True
            )
            assert not result.partial
            assert result.skipped_shards == []
        finally:
            store.kill()

    def test_range_scan_two_dead_shards_skip_only_overlap(self):
        bounds = range_boundaries(90, 3)
        store = ShardedStore(
            boundaries=bounds, config=self.bg_config()
        )
        try:
            for i in range(90):
                store.put(format_key(i), str(i))
            for dead in (0, 2):
                inject_worker_death(
                    store.shards[dead], "test: dead worker"
                )
            store.check_health()
            assert store.quarantined_shards() == [0, 2]
            # [30, 60) touches only the live middle shard.
            mid = store.scan(
                format_key(30), format_key(60), allow_partial=True
            )
            assert not mid.partial
            assert [k for k, _v in mid] == [
                format_key(i) for i in range(30, 60)
            ]
            # [30, 90) overlaps dead shard 2 but not dead shard 0.
            upper = store.scan(
                format_key(30), format_key(90), allow_partial=True
            )
            assert upper.skipped_shards == [2]
            assert [k for k, _v in upper] == [
                format_key(i) for i in range(30, 60)
            ]
        finally:
            store.kill()

    def test_hash_scan_always_involves_dead_shard(self):
        """Hash routing scatters everywhere, so even a narrow range is
        partial whenever any shard is down — the contrast that makes the
        range-routing tests above meaningful."""
        store = self._store_with_dead_shard()
        try:
            narrow = store.scan(
                format_key(0), format_key(3), allow_partial=True
            )
            assert narrow.skipped_shards == [1]
            assert narrow.partial
        finally:
            store.kill()

    def test_allow_partial_range_routing_skips_only_owner(self):
        bounds = range_boundaries(90, 3)
        store = ShardedStore(
            boundaries=bounds, config=self.bg_config()
        )
        try:
            for i in range(90):
                store.put(format_key(i), str(i))
            inject_worker_death(store.shards[1], "test: dead worker")
            store.check_health()
            # A range entirely inside shard 0 is untouched by the death.
            intact = store.scan(
                format_key(0), format_key(20), allow_partial=True
            )
            assert not intact.partial
            assert [k for k, _v in intact] == [
                format_key(i) for i in range(20)
            ]
            # A full-range scan skips exactly the dead middle shard.
            result = store.scan(
                format_key(0), format_key(90), allow_partial=True
            )
            assert result.skipped_shards == [1]
            assert [k for k, _v in result] == [
                format_key(i)
                for i in range(90)
                if store.shard_index(format_key(i)) != 1
            ]
        finally:
            store.kill()


class TestShardingBenefit:
    def test_more_shards_shallower_trees(self):
        keys = [format_key(i) for i in range(1200)]
        random.Random(11).shuffle(keys)

        def build(num_shards):
            store = ShardedStore(num_shards, small_config())
            for key in keys:
                store.put(key, "payload-" * 3)
            return store

        single = build(1)
        sharded = build(8)
        try:
            assert sharded.max_depth() <= single.max_depth()
            assert (
                sharded.stats.compaction_bytes_written
                < single.stats.compaction_bytes_written
            )
            assert (
                sharded.write_amplification()
                < single.write_amplification()
            )
        finally:
            single.close()
            sharded.close()
