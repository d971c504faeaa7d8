"""Stress tests for background flush/compaction mode (PR: concurrency).

These tests exercise :mod:`repro.concurrency` with real client threads:
read-your-writes visibility, no lost updates under concurrent background
work, backpressure accounting, WAL recovery of unflushed buffers, and the
RocksDB-style background-error contract.
"""

import random
import sys
import threading

import pytest

from repro import LSMConfig, LSMTree
from repro.errors import BackgroundError, ClosedError


def bg_config(**overrides):
    base = dict(
        background_mode=True,
        flush_threads=2,
        compaction_threads=2,
        buffer_size_bytes=8 * 1024,
        num_buffers=3,
        slowdown_sleep_us=50.0,
    )
    base.update(overrides)
    return LSMConfig(**base)


class TestBackgroundBasics:
    def test_put_get_delete_roundtrip(self):
        with LSMTree(bg_config()) as tree:
            tree.put("alpha", "1")
            tree.put("beta", "2")
            tree.delete("alpha")
            assert tree.get("alpha") is None
            assert tree.get("beta") == "2"

    def test_flush_waits_for_install(self):
        tree = LSMTree(bg_config())
        for i in range(500):
            tree.put(f"key{i:05d}", f"value-{i}")
        tree.flush()
        assert not tree._immutable
        assert tree.total_run_count() >= 1
        for i in range(0, 500, 37):
            assert tree.get(f"key{i:05d}") == f"value-{i}"
        tree.close()

    def test_close_drains_and_joins_workers(self):
        tree = LSMTree(bg_config())
        for i in range(5000):
            tree.put(f"key{i:06d}", f"value-{i}")
        coordinator = tree._background
        tree.close()
        assert not tree._immutable
        assert not coordinator.pool._threads  # joined
        with pytest.raises(ClosedError):
            tree.put("late", "write")

    def test_scan_sees_consistent_state(self):
        with LSMTree(bg_config()) as tree:
            for i in range(3000):
                tree.put(f"key{i:06d}", f"value-{i}")
            results = tree.scan("key000100", "key000200")
            assert [key for key, _ in results] == sorted(
                key for key, _ in results
            )
            assert len(results) == 100

    def test_backpressure_is_accounted(self):
        config = bg_config(
            buffer_size_bytes=2 * 1024,
            num_buffers=2,
            flush_threads=1,
            compaction_threads=1,
        )
        with LSMTree(config) as tree:
            for i in range(20000):
                tree.put(f"key{i:08d}", f"value-{i}")
            stats = tree.stats
            assert stats.slowdown_events + stats.stall_events > 0
            assert stats.slowdown_us + stats.stall_us >= 0.0


class TestBackgroundStress:
    WRITERS = 2
    KEYS_PER_WRITER = 25_000  # >= 50k ops total across >= 2 client threads

    def test_concurrent_clients_no_lost_updates(self):
        tree = LSMTree(bg_config())
        published = []  # (key, expected-value-or-None), append-only
        failures = []
        done = threading.Event()

        def writer(writer_id):
            try:
                for i in range(self.KEYS_PER_WRITER):
                    key = f"w{writer_id}-{i:07d}"
                    value = f"v{writer_id}.{i}"
                    tree.put(key, value)
                    if i % 10 == 3:
                        tree.delete(key)
                        published.append((key, None))
                    else:
                        published.append((key, value))
                    if i % 500 == 0:
                        # Read-your-writes: this thread just wrote it and
                        # nobody else touches this key.
                        expected = None if i % 10 == 3 else value
                        assert tree.get(key) == expected, key
            except BaseException as exc:  # noqa: BLE001 - collected
                failures.append(exc)

        def reader(seed):
            rng = random.Random(seed)
            try:
                while not done.is_set():
                    if not published:
                        continue
                    key, expected = published[
                        rng.randrange(len(published))
                    ]
                    assert tree.get(key) == expected, key
            except BaseException as exc:  # noqa: BLE001 - collected
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,))
            for w in range(self.WRITERS)
        ] + [threading.Thread(target=reader, args=(99,))]
        for thread in threads:
            thread.start()
        for thread in threads[: self.WRITERS]:
            thread.join()
        done.set()
        threads[-1].join()
        assert not failures, failures[0]

        # Full verification: every published (key, value) must be exact.
        tree.compact_all()
        mismatches = [
            key
            for key, expected in published
            if tree.get(key) != expected
        ]
        assert not mismatches, mismatches[:10]
        tree.verify_invariants()
        tree.close()
        assert not tree._immutable  # clean drain

    def test_scans_during_background_churn(self):
        tree = LSMTree(bg_config())
        failures = []
        done = threading.Event()

        def writer():
            try:
                for i in range(15000):
                    tree.put(f"key{i:07d}", f"value-{i}")
            except BaseException as exc:  # noqa: BLE001 - collected
                failures.append(exc)
            finally:
                done.set()

        def scanner():
            try:
                while not done.is_set():
                    results = tree.scan("key0001000", "key0001100")
                    keys = [key for key, _ in results]
                    assert keys == sorted(keys)
                    for key, value in results:
                        assert value == f"value-{int(key[3:])}"
            except BaseException as exc:  # noqa: BLE001 - collected
                failures.append(exc)

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=scanner),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures[0]
        assert len(tree.scan("key0001000", "key0001100")) == 100
        tree.close()


class TestReadCounters:
    THREADS = 4
    GETS_PER_THREAD = 5000

    def test_concurrent_gets_lose_no_counts(self):
        """Each GET counts its probes in its own record and folds them
        into ``TreeStats`` under the stats lock, so counters bumped from
        several reader threads (the server's executor) stay exact: every
        filter probe ends as a negative, a fence miss or one block."""
        tree = LSMTree(bg_config(block_cache_bytes=64 * 1024))
        for i in range(3000):
            tree.put(f"key{2 * i:06d}", f"value-{i}")
        tree.flush()
        before = tree.stats.to_dict()
        failures = []

        def reader(seed):
            rng = random.Random(seed)
            try:
                for _ in range(self.GETS_PER_THREAD):
                    index = rng.randrange(6000)
                    expected = None if index % 2 else f"value-{index // 2}"
                    assert tree.get(f"key{index:06d}") == expected
            except BaseException as exc:  # noqa: BLE001 - collected
                failures.append(exc)

        threads = [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]
        after = tree.stats.to_dict()
        moved = {
            name: after[name] - before[name]
            for name in (
                "gets",
                "gets_found",
                "filter_probes",
                "filter_negatives",
                "fence_misses",
                "blocks_from_cache",
                "blocks_from_disk",
            )
        }
        assert moved["gets"] == self.THREADS * self.GETS_PER_THREAD
        assert 0 < moved["gets_found"] < moved["gets"]
        assert moved["filter_probes"] == (
            moved["filter_negatives"]
            + moved["fence_misses"]
            + moved["blocks_from_cache"]
            + moved["blocks_from_disk"]
        )
        assert len(tree.stats.read_latencies_us) >= moved["gets"]
        tree.close()


class TestBackgroundRecovery:
    def test_wal_recovery_of_unflushed_buffers(self, tmp_path):
        # Freeze the flush workers before writing: every entry stays in a
        # WAL segment (active or rotated-but-unflushed), simulating a crash
        # with background flushes still in flight.
        config = bg_config(num_buffers=64, buffer_size_bytes=2 * 1024)
        tree = LSMTree(config, wal_dir=str(tmp_path))
        tree._background.pool.pause()
        expected = {}
        for i in range(2000):
            key = f"key{i:05d}"
            tree.put(key, f"value-{i}")
            expected[key] = f"value-{i}"
        tree.delete("key00007")
        expected["key00007"] = None
        assert len(tree._immutable) > 1  # several buffers in flight
        # Abandon the tree without close(): close would drain the queue.

        recovered = LSMTree.recover(LSMConfig(), str(tmp_path))
        for key, value in expected.items():
            assert recovered.get(key) == value, key
        assert recovered.seqno == tree.seqno
        recovered.close()
        tree._background.pool.resume()
        tree.close()

    def test_recover_into_background_mode(self, tmp_path):
        with LSMTree(LSMConfig(), wal_dir=str(tmp_path)) as tree:
            for i in range(200):
                tree.put(f"key{i:04d}", f"value-{i}")

        recovered = LSMTree.recover(bg_config(), str(tmp_path))
        for i in range(0, 200, 17):
            assert recovered.get(f"key{i:04d}") == f"value-{i}"
        recovered.close()


class TestBackgroundErrors:
    def test_worker_failure_surfaces_on_foreground_op(self):
        tree = LSMTree(bg_config())

        def boom(*_args, **_kwargs):
            raise RuntimeError("injected flush failure")

        tree.executor.build_tables = boom
        with pytest.raises(BackgroundError) as excinfo:
            for i in range(20000):
                tree.put(f"key{i:06d}", f"value-{i}")
            tree.flush()
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # Further writes keep refusing; close re-raises after cleanup.
        with pytest.raises(BackgroundError):
            tree.put("more", "data")
        with pytest.raises(BackgroundError):
            tree.close()
        assert tree._closed
