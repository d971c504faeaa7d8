"""Stress tests for background flush/compaction mode (PR: concurrency).

These tests exercise :mod:`repro.concurrency` with real client threads:
read-your-writes visibility, no lost updates under concurrent background
work, backpressure accounting, WAL recovery of unflushed buffers, and the
RocksDB-style background-error contract.
"""

import gc
import random
import sys
import threading
import time
import weakref

import pytest

from repro import LSMConfig, LSMTree
from repro.concurrency import pool as pool_module
from repro.concurrency.pool import BackgroundWorkerPool
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


def wait_until(predicate, timeout_s, message="condition not reached in time"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(message)
        time.sleep(0.005)


class TestWakeProtocol:
    """A worker runs a step only because work may exist (pool.py rules):
    counts and orderings, never CPU time."""

    WINDOW_S = 0.5
    #: Steps one idle worker of a polling pool may run in the window: the
    #: poll, with a factor of two and a little slack for scheduling jitter.
    IDLE_BOUND = WINDOW_S / pool_module.IDLE_WAIT_S * 2 + 5

    def test_empty_steps_wake_nobody(self):
        calls = {"flush": 0, "compact": 0}

        def empty_step(role):
            def step():
                calls[role] += 1
                return False

            return step

        pool = BackgroundWorkerPool()
        try:
            pool.spawn("flush", 1, empty_step("flush"))
            pool.spawn("compact", 1, empty_step("compact"))
            time.sleep(self.WINDOW_S)
        finally:
            pool.stop()
        assert 1 <= calls["flush"] <= self.IDLE_BOUND, calls
        assert 1 <= calls["compact"] <= self.IDLE_BOUND, calls

    def test_idle_tree_only_polls(self):
        """An idle tree without a tombstone TTL runs no step at all once
        each worker has made its first; one with a TTL (whose plans fall
        due as time passes) keeps polling."""
        with LSMTree(LSMConfig(background_mode=True)) as tree:
            # One flush and one compaction worker by default.
            wait_until(lambda: tree.stats.background_steps >= 2, 5.0)
            before = tree.stats.background_steps
            time.sleep(self.WINDOW_S)
            assert tree.stats.background_steps == before
            assert tree.stats.background_idle_steps == before
        ttl = LSMConfig(background_mode=True, tombstone_ttl_us=1e9)
        with LSMTree(ttl) as tree:
            wait_until(lambda: tree.stats.background_steps >= 2, 5.0)
            before = tree.stats.background_steps
            time.sleep(self.WINDOW_S)
            steps = tree.stats.background_steps - before
            assert 2 <= steps <= 2 * self.IDLE_BOUND
            assert tree.stats.background_idle_steps == (
                tree.stats.background_steps
            )

    def test_kick_during_an_empty_step_reruns_it(self, monkeypatch):
        monkeypatch.setattr(pool_module, "IDLE_WAIT_S", 30.0)
        pool = BackgroundWorkerPool()
        calls = []

        def step():
            calls.append(time.monotonic())
            if len(calls) == 1:
                # New work announced after this step looked for it and
                # before the worker went to sleep.
                pool.kick()
            return False

        try:
            pool.spawn("only", 1, step)
            wait_until(
                lambda: len(calls) >= 2, 1.0, "the kick was slept through"
            )
            # ...and the second, un-kicked empty step does sleep.
            time.sleep(0.1)
            assert len(calls) == 2
        finally:
            pool.stop()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_no_kick_is_lost_under_contention(self, monkeypatch, workers):
        """Producers queue a token and kick, as fast as they can, against
        workers whose steps each take one token. With the poll out of
        reach, a single kick slept through strands its token."""
        monkeypatch.setattr(pool_module, "IDLE_WAIT_S", 30.0)
        producers, per_producer = 4, 1500
        pool = BackgroundWorkerPool()
        lock = threading.Lock()
        state = {"queued": 0, "taken": 0}

        def step():
            with lock:
                if not state["queued"]:
                    return False
                state["queued"] -= 1
                state["taken"] += 1
                return True

        def produce():
            for _ in range(per_producer):
                with lock:
                    state["queued"] += 1
                pool.kick()

        threads = [threading.Thread(target=produce) for _ in range(producers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool.spawn("taker", workers, step)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            wait_until(
                lambda: state["taken"] == producers * per_producer,
                10.0,
                "a kick was slept through: its token is stranded",
            )
        finally:
            sys.setswitchinterval(interval)
            pool.stop()

    def test_state_changes_hand_off_without_the_poll(self, monkeypatch):
        """rotate -> flush -> compaction -> next compaction, with the
        backstop stretched out of reach and without flush()/drain(),
        whose wait loops kick every 50 ms and would mask a missing
        hand-off."""
        monkeypatch.setattr(pool_module, "IDLE_WAIT_S", 30.0)
        tree = LSMTree(
            LSMConfig(
                background_mode=True,
                buffer_size_bytes=4 * 1024,
                num_buffers=8,
            )
        )
        try:
            rotations = 0
            index = 0
            while rotations < 4:
                queued = len(tree._immutable)
                tree.put(f"key{index:06d}", "v" * 64)
                index += 1
                if len(tree._immutable) > queued:
                    rotations += 1
            assert tree.config.level0_run_limit <= 4
            stats = tree.stats
            wait_until(
                lambda: stats.flushes >= 4,
                10.0,
                "rotate -> flush hand-off missing",
            )
            wait_until(
                lambda: stats.compactions >= 1
                and tree.levels[0].run_count < tree.config.level0_run_limit,
                10.0,
                "flush install -> compaction hand-off missing",
            )
            # Far fewer steps than a poll would have needed: every one
            # was caused by a kick.
            assert stats.background_idle_steps < 50
        finally:
            tree.close()

    def test_resume_flushes_what_was_rotated_while_paused(self, monkeypatch):
        monkeypatch.setattr(pool_module, "IDLE_WAIT_S", 30.0)
        tree = LSMTree(bg_config())
        try:
            # Let the workers reach their idle sleep before pausing.
            wait_until(lambda: tree.stats.background_idle_steps >= 4, 5.0)
            tree._background.pool.pause()
            tree.put("alpha", "1")
            tree._background.rotate()
            time.sleep(0.1)
            assert len(tree._immutable) == 1 and tree.stats.flushes == 0
            tree._background.pool.resume()
            wait_until(lambda: tree.stats.flushes == 1, 5.0)
            assert not tree._immutable
            assert tree.get("alpha") == "1"
        finally:
            tree.close()

    def test_stop_interrupts_the_idle_sleep(self, monkeypatch):
        monkeypatch.setattr(pool_module, "IDLE_WAIT_S", 30.0)
        pool = BackgroundWorkerPool()
        calls = []

        def step():
            calls.append(1)
            return False

        pool.spawn("only", 1, step)
        wait_until(lambda: calls, 1.0)
        started = time.monotonic()
        pool.stop()
        assert time.monotonic() - started < 1.0

    def test_failing_step_keeps_only_the_first_error(self):
        """A step that always raises is retried on every poll; the pool
        must not hold one exception per try (only ``first_error`` is
        ever read)."""
        class StepFailed(RuntimeError):  # a subclass: weakly referenceable
            pass

        raised = []  # weak references, oldest first

        def step():
            exc = StepFailed(f"attempt {len(raised)}")
            raised.append(weakref.ref(exc))
            raise exc

        pool = BackgroundWorkerPool(poll=True)
        try:
            pool.spawn("only", 1, step)
            wait_until(lambda: len(raised) >= 3, 5.0)
        finally:
            pool.stop()
        gc.collect()  # exception -> traceback -> frame -> exception
        alive = [ref() for ref in raised if ref() is not None]
        assert alive == [pool.first_error]
        assert alive[0] is raised[0]()


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

    def test_no_flush_is_attempted_behind_a_failed_buffer(self):
        """Runs enter Level 0 in rotation order, so a failed flush blocks
        every later install. The worker must not claim those buffers:
        it would build their tables, fail to install them, and spin."""
        tree = LSMTree(
            bg_config(flush_threads=1, num_buffers=8, buffer_size_bytes=2048)
        )
        builds = []
        real_build = tree.executor.build_tables

        def fail_once(*args, **kwargs):
            builds.append(1)
            if len(builds) == 1:
                raise RuntimeError("injected flush failure")
            return real_build(*args, **kwargs)

        tree.executor.build_tables = fail_once
        tree._background.pool.pause()
        for i in range(200):
            tree.put(f"key{i:05d}", "v" * 64)
        queued = len(tree._immutable)
        assert queued >= 3
        tree._background.pool.resume()
        wait_until(lambda: tree.background_error is not None, 5.0)
        time.sleep(0.3)
        assert len(builds) == 1
        assert len(tree._immutable) == queued  # still readable
        assert tree.get("key00000") == "v" * 64
        with pytest.raises(BackgroundError):
            tree.close()
