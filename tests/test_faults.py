"""Tests for the fault-injection subsystem and crash-consistency sweep.

Three layers: the failpoint registry itself (determinism, crash modes,
transient/fsync injection), direct engine-level fault drills (fsyncgate
never-ack, bounded retry, worker-death quarantine, kill/close
idempotency, recovery-time crashes), and the sweep harness (full sweep
over every enumerated crossing with zero invariant violations).
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import LSMConfig
from repro.core.tree import LSMTree
from repro.errors import (
    BackgroundError,
    ConfigError,
    CorruptionError,
    DurabilityError,
    ShardUnavailableError,
)
from repro.faults import (
    FAILPOINTS,
    FaultPlan,
    InjectedCrash,
    fault_plan,
    fault_point,
    inject_worker_death,
)
from repro.faults.registry import TEARABLE
from repro.faults.sweep import (
    SCENARIOS,
    WorkloadTracker,
    apply_op,
    check_invariants,
    run_sweep,
)
from repro.shard import ShardedStore, hash_shard_index
from repro.storage import persistence


def small_config(**overrides) -> LSMConfig:
    defaults = dict(
        buffer_size_bytes=2048,
        num_buffers=2,
        target_file_bytes=1024,
        block_bytes=256,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


# ---------------------------------------------------------------------------
# Failpoint registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_catalog_covers_the_advertised_sites(self):
        names = set(FAILPOINTS)
        for prefix in ("wal.", "flush.", "compact.", "ckpt.", "shard."):
            assert any(name.startswith(prefix) for name in names), prefix
        assert set(TEARABLE) <= names
        for name, failpoint in FAILPOINTS.items():
            assert failpoint.name == name
            assert failpoint.description

    def test_crossing_ids_have_per_site_ordinals(self, tmp_path):
        plan = FaultPlan(root=str(tmp_path))
        with fault_plan(plan):
            path = os.path.join(str(tmp_path), "wal", "seg.log")
            fault_point("wal.batch.start", path=path)
            fault_point("wal.batch.start", path=path)
            fault_point("wal.sync", path=path)
            fault_point("flush.build", scope="rot-0")
        assert plan.crossings == [
            "wal.batch.start@wal/seg.log#0",
            "wal.batch.start@wal/seg.log#1",
            "wal.sync@wal/seg.log#0",
            "flush.build@rot-0#0",
        ]
        assert plan.crossing_ids() == sorted(plan.crossings)

    def test_unarmed_fault_point_is_a_no_op(self):
        fault_point("wal.sync", path="/nowhere")  # no active plan

    def test_crash_fires_exactly_once_then_goes_inert(self):
        plan = FaultPlan(crash_at="flush.build@rot-0#0")
        with fault_plan(plan):
            with pytest.raises(InjectedCrash) as excinfo:
                fault_point("flush.build", scope="rot-0")
            assert excinfo.value.crossing == "flush.build@rot-0#0"
            # Inert afterwards: other threads/ops proceed unharmed.
            fault_point("flush.build", scope="rot-0")
        assert plan.fired
        assert plan.fired_crossing == "flush.build@rot-0#0"

    def test_nested_plans_are_rejected(self):
        with fault_plan(FaultPlan()):
            with pytest.raises(RuntimeError):
                with fault_plan(FaultPlan()):
                    pass

    def test_torn_crash_truncates_the_in_flight_tail(self, tmp_path):
        victim = tmp_path / "seg.log"
        victim.write_bytes(b"committed\n" + b"in-flight-tail")
        plan = FaultPlan(
            root=str(tmp_path),
            crash_at="wal.batch.written@seg.log#0",
            crash_mode="torn",
        )
        with fault_plan(plan):
            with pytest.raises(InjectedCrash):
                fault_point(
                    "wal.batch.written", path=str(victim), tail_bytes=14
                )
        survived = victim.read_bytes()
        assert survived.startswith(b"committed\n")
        assert len(survived) < len(b"committed\n" + b"in-flight-tail")

    def test_bitflip_crash_flips_one_tail_bit(self, tmp_path):
        victim = tmp_path / "seg.log"
        original = b"committed\n" + b"in-flight-tail"
        victim.write_bytes(original)
        plan = FaultPlan(
            root=str(tmp_path),
            crash_at="wal.batch.written@seg.log#0",
            crash_mode="bitflip",
        )
        with fault_plan(plan):
            with pytest.raises(InjectedCrash):
                fault_point(
                    "wal.batch.written", path=str(victim), tail_bytes=14
                )
        survived = victim.read_bytes()
        assert len(survived) == len(original)
        flipped = [
            index
            for index, (a, b) in enumerate(zip(original, survived))
            if a != b
        ]
        assert len(flipped) == 1
        assert flipped[0] >= len(original) - 14

    def test_transient_injection_is_bounded_and_counted(self):
        plan = FaultPlan(transient_at="wal.sync@-#1", transient_times=2)
        with fault_plan(plan):
            fault_point("wal.sync")  # ordinal 0: clean
            for _ in range(2):
                with pytest.raises(OSError):
                    fault_point("wal.sync")
            fault_point("wal.sync")  # budget spent: clean again
        assert plan.transients_injected == 2

    def test_fsync_failure_is_an_exact_crossing(self):
        plan = FaultPlan(fsync_fail_at="wal.fsync@-#1")
        with fault_plan(plan):
            fault_point("wal.fsync")
            with pytest.raises(OSError):
                fault_point("wal.fsync")
            fault_point("wal.fsync")
        assert plan.fsyncs_failed == 1


# ---------------------------------------------------------------------------
# Engine-level fault drills
# ---------------------------------------------------------------------------


class TestFsyncNeverAck:
    """fsyncgate: a write whose fsync failed must never be acknowledged."""

    def test_failed_fsync_poisons_segment_and_raises(self, tmp_path):
        config = small_config(wal_fsync=True)
        tree = LSMTree(config, wal_dir=str(tmp_path))
        tree.put("before", "v")
        # Ordinals count crossings observed by *this* plan: the put above
        # happened before arming, so the doomed put's fsync is #0.
        plan = FaultPlan(
            root=str(tmp_path),
            fsync_fail_at="wal.fsync@wal.000000.log#0",
        )
        with fault_plan(plan):
            with pytest.raises(DurabilityError):
                tree.put("doomed", "v")
        assert plan.fsyncs_failed == 1
        # Failure-stop: the poisoned segment refuses all further writes
        # (a failed fsync must not be retried — the page cache state is
        # unknowable), even outside the plan.
        with pytest.raises(DurabilityError):
            tree.put("after", "v")
        assert tree._active_wal.poisoned
        tree.kill()
        # The unacked write may be present or absent; the acked one must
        # survive. Recovery itself must succeed.
        recovered = LSMTree.recover(config, str(tmp_path))
        assert recovered.get("before") == "v"
        recovered.close()

    def test_sync_flush_failure_retries_then_poisons(self, tmp_path):
        config = small_config()
        tree = LSMTree(config, wal_dir=str(tmp_path))
        plan = FaultPlan(
            root=str(tmp_path),
            transient_at="wal.sync@wal.000000.log#0",
            transient_times=5,  # > 1 initial try + 3 retries
        )
        with fault_plan(plan):
            with pytest.raises(DurabilityError):
                tree.put("doomed", "v")
        assert tree._active_wal.poisoned
        # Every failed attempt counts: the initial try plus 3 retries.
        assert tree._active_wal.sync_retries == 4
        tree.kill()

    def test_transient_sync_errors_absorbed_by_retry(self, tmp_path):
        tree = LSMTree(small_config(), wal_dir=str(tmp_path))
        plan = FaultPlan(
            root=str(tmp_path),
            transient_at="wal.sync@wal.000000.log#0",
            transient_times=2,
        )
        with fault_plan(plan):
            tree.put("k", "v")  # retried transparently
        assert plan.transients_injected == 2
        assert tree._active_wal.sync_retries == 2
        assert not tree._active_wal.poisoned
        assert tree.get("k") == "v"
        tree.close()


class TestWorkerDeathQuarantine:
    """Degraded mode: one dead shard, N-1 keep serving."""

    @staticmethod
    def bg_config() -> LSMConfig:
        return LSMConfig(
            background_mode=True, flush_threads=1, compaction_threads=1
        )

    def key_on_shard(self, store: ShardedStore, shard: int) -> str:
        for i in range(10_000):
            key = f"probe-{i}"
            if store.shard_index(key) == shard:
                return key
        raise AssertionError("no key found")  # pragma: no cover

    def test_dead_shard_quarantined_others_serve(self):
        store = ShardedStore(3, self.bg_config())
        try:
            for i in range(30):
                store.put(f"k{i}", "v")
            inject_worker_death(store.shards[1], "test: dead worker")
            dead_key = self.key_on_shard(store, 1)
            live_key = self.key_on_shard(store, 0)
            with pytest.raises(ShardUnavailableError) as excinfo:
                store.put(dead_key, "x")
            assert excinfo.value.shard == 1
            # Reads on the dead shard are refused too (its recovered
            # state may be stale); healthy shards are untouched.
            with pytest.raises(ShardUnavailableError):
                store.get(dead_key)
            store.put(live_key, "still-writable")
            assert store.get(live_key) == "still-writable"
            health = store.check_health()
            assert health["state"] == "degraded"
            assert health["quarantined"] == [1]
            assert store.quarantined_shards() == [1]
        finally:
            store.kill()

    def test_batch_touching_dead_shard_fails_before_any_commit(self):
        store = ShardedStore(3, self.bg_config())
        try:
            inject_worker_death(store.shards[2], "test: dead worker")
            # Quarantine is lazy: poke the dead shard once.
            with pytest.raises(ShardUnavailableError):
                store.put(self.key_on_shard(store, 2), "x")
            dead_key = self.key_on_shard(store, 2)
            live_key = self.key_on_shard(store, 0)
            with pytest.raises(ShardUnavailableError):
                store.write_batch(
                    [("put", live_key, "v"), ("put", dead_key, "v")]
                )
            # Fail-fast atomicity: the live shard's sub-batch was never
            # submitted, so the live key is absent.
            assert store.get(live_key) is None
        finally:
            store.kill()

    def test_scan_involving_dead_shard_is_refused(self):
        store = ShardedStore(3, self.bg_config())
        try:
            store.put("a", "1")
            inject_worker_death(store.shards[0], "test: dead worker")
            with pytest.raises(ShardUnavailableError):
                store.put(self.key_on_shard(store, 0), "x")
            # Hash routing scatters every range across all shards: a scan
            # with a quarantined shard would silently drop its keys, so
            # it is refused as unavailable rather than served partially.
            with pytest.raises(ShardUnavailableError):
                store.scan("a", "zzz")
        finally:
            store.kill()

    def test_flush_and_close_skip_quarantined_shards(self):
        store = ShardedStore(3, self.bg_config())
        for i in range(30):
            store.put(f"k{i}", "v")
        inject_worker_death(store.shards[1], "test: dead worker")
        store.flush()  # quarantines shard 1 via the health poll, skips it
        assert store.quarantined_shards() == [1]
        store.compact_all()
        # Degraded-mode shutdown succeeds: the quarantined shard's
        # BackgroundError was already surfaced at quarantine time.
        store.close()
        store.close()  # idempotent


class TestKillAndCloseIdempotency:
    def test_tree_close_after_background_failure_then_again(self, tmp_path):
        tree = LSMTree(
            self_config := LSMConfig(
                background_mode=True, flush_threads=1, compaction_threads=1
            ),
            wal_dir=str(tmp_path),
        )
        assert self_config.background_mode
        tree.put("k", "v")
        inject_worker_death(tree, "test: dead worker")
        with pytest.raises(BackgroundError):
            tree.close()
        tree.close()  # second close: clean no-op, nothing re-raised
        tree.kill()  # and kill after close stays safe

    def test_tree_kill_is_idempotent_and_silences_failures(self, tmp_path):
        tree = LSMTree(
            LSMConfig(
                background_mode=True, flush_threads=1, compaction_threads=1
            ),
            wal_dir=str(tmp_path),
        )
        tree.put("k", "v")
        inject_worker_death(tree, "test: dead worker")
        tree.kill()  # never raises: models pulling the plug
        tree.kill()

    def test_sharded_kill_idempotent(self):
        store = ShardedStore(2, LSMConfig())
        store.put("k", "v")
        store.kill()
        store.kill()

    def test_background_error_probe_is_non_raising(self, tmp_path):
        tree = LSMTree(
            LSMConfig(
                background_mode=True, flush_threads=1, compaction_threads=1
            ),
            wal_dir=str(tmp_path),
        )
        assert tree.background_error() is None
        inject_worker_death(tree, "test: dead worker")
        assert tree.background_error() is not None
        tree.kill()


class TestRecoveryTimeFaults:
    def test_crash_before_segment_delete_is_idempotent(self, tmp_path):
        config = small_config()
        tree = LSMTree(config, wal_dir=str(tmp_path))
        for i in range(8):
            tree.put(f"k{i}", f"v{i}")
        tree.kill()
        plan = FaultPlan(
            root=str(tmp_path),
            crash_at="wal.recover.before_delete@wal.000000.log#0",
        )
        with fault_plan(plan):
            with pytest.raises(InjectedCrash):
                LSMTree.recover(config, str(tmp_path))
        assert plan.fired
        # The old segment survived the crash; replaying it again must
        # converge to the same state.
        recovered = LSMTree.recover(config, str(tmp_path))
        for i in range(8):
            assert recovered.get(f"k{i}") == f"v{i}"
        recovered.close()


# ---------------------------------------------------------------------------
# Recovery edge cases (satellite: adversarial on-disk states)
# ---------------------------------------------------------------------------


class TestRecoveryEdgeCases:
    def test_shard_manifest_mismatch_is_refused(self, tmp_path):
        store = ShardedStore(3, LSMConfig(), wal_dir=str(tmp_path))
        store.put("k", "v")
        store.close()
        with pytest.raises(ConfigError):
            ShardedStore(2, LSMConfig(), wal_dir=str(tmp_path))

    def test_corrupt_shard_manifest_is_corruption_not_config(self, tmp_path):
        store = ShardedStore(2, LSMConfig(), wal_dir=str(tmp_path))
        store.close()
        manifest = tmp_path / "shards.json"
        manifest.write_text("{not json", encoding="utf-8")
        with pytest.raises(CorruptionError) as excinfo:
            ShardedStore.recover(LSMConfig(), str(tmp_path))
        assert excinfo.value.path == str(manifest)


# ---------------------------------------------------------------------------
# Two-phase commit crossings (cross-shard write_batch atomicity)
# ---------------------------------------------------------------------------

NUM_2PC_SHARDS = 3


def _keys_on_shards(count_per_shard: int) -> list:
    """Deterministic keys covering every shard of the 2PC fixture."""
    keys = {shard: [] for shard in range(NUM_2PC_SHARDS)}
    i = 0
    while any(len(bucket) < count_per_shard for bucket in keys.values()):
        key = f"txnk{i:03d}"
        bucket = keys[hash_shard_index(key, NUM_2PC_SHARDS)]
        if len(bucket) < count_per_shard:
            bucket.append(key)
        i += 1
    return [key for shard in range(NUM_2PC_SHARDS) for key in keys[shard]]


class TestTwoPhaseCommitCrossings:
    """Crash the coordinator at each protocol state and check the contract:
    no durable COMMIT decision → the whole batch rolls back; a durable
    decision → it rolls forward — never a partial batch."""

    def _store(self, tmp_path) -> ShardedStore:
        return ShardedStore(
            NUM_2PC_SHARDS, LSMConfig(), wal_dir=str(tmp_path)
        )

    def _run_batch(self, tmp_path, plan: FaultPlan) -> list:
        """Seed acked keys, then crash a cross-shard batch at ``plan``."""
        store = self._store(tmp_path)
        batch_keys = _keys_on_shards(2)
        for key in batch_keys:
            store.put(key, "old")
        with fault_plan(plan):
            with pytest.raises(InjectedCrash):
                store.write_batch(
                    [("put", key, "new") for key in batch_keys]
                )
        assert plan.fired
        store.kill()
        return batch_keys

    def test_crash_mid_prepare_rolls_back(self, tmp_path):
        # Shard 0 has prepared when the crash lands on shard 1's
        # prepare: no decision exists, so recovery must roll everything
        # back (presumed abort) and keep the acked pre-batch values.
        plan = FaultPlan(
            root=str(tmp_path), crash_at="txn.prepare@shard-01#0"
        )
        batch_keys = self._run_batch(tmp_path, plan)
        recovered = ShardedStore.recover(LSMConfig(), str(tmp_path))
        try:
            for key in batch_keys:
                assert recovered.get(key) == "old", key
        finally:
            recovered.close()

    def test_torn_decision_record_rolls_back(self, tmp_path):
        # The crash tears the COMMIT decision line itself: recovery must
        # treat the half-written decision as no decision and roll back.
        plan = FaultPlan(
            root=str(tmp_path),
            crash_at="txn.decide@txn.log#0",
            crash_mode="torn",
        )
        batch_keys = self._run_batch(tmp_path, plan)
        recovered = ShardedStore.recover(LSMConfig(), str(tmp_path))
        try:
            for key in batch_keys:
                assert recovered.get(key) == "old", key
        finally:
            recovered.close()

    def test_crash_after_decision_rolls_forward(self, tmp_path):
        # The COMMIT decision is durable but no shard has applied yet:
        # recovery must roll the whole batch forward from the prepare
        # records.
        plan = FaultPlan(
            root=str(tmp_path), crash_at="txn.commit@shard-00#0"
        )
        batch_keys = self._run_batch(tmp_path, plan)
        recovered = ShardedStore.recover(LSMConfig(), str(tmp_path))
        try:
            for key in batch_keys:
                assert recovered.get(key) == "new", key
        finally:
            recovered.close()

    def test_crash_during_roll_forward_is_idempotent(self, tmp_path):
        # First crash leaves a committed-but-unapplied transaction; the
        # second crash lands *inside recovery*, mid roll-forward. The
        # prepare records and decision log both survive, so a third
        # recovery must still converge to the fully applied batch.
        plan = FaultPlan(
            root=str(tmp_path), crash_at="txn.commit@shard-00#0"
        )
        batch_keys = self._run_batch(tmp_path, plan)
        recovery_plan = FaultPlan(
            root=str(tmp_path),
            crash_at="txn.rollforward@shard-00/wal.000000.log#0",
        )
        with fault_plan(recovery_plan):
            with pytest.raises(InjectedCrash):
                ShardedStore.recover(LSMConfig(), str(tmp_path))
        assert recovery_plan.fired
        recovered = ShardedStore.recover(LSMConfig(), str(tmp_path))
        try:
            for key in batch_keys:
                assert recovered.get(key) == "new", key
        finally:
            recovered.close()

    def test_empty_wal_file_recovers_to_empty_tree(self, tmp_path):
        (tmp_path / "wal.000000.log").write_text("", encoding="utf-8")
        tree = LSMTree.recover(small_config(), str(tmp_path))
        assert tree.seqno == 0
        tree.put("works", "v")
        assert tree.get("works") == "v"
        tree.close()

    def test_trailing_garbage_after_torn_final_record(self, tmp_path):
        tree = LSMTree(small_config(), wal_dir=str(tmp_path))
        tree.put("a", "1")
        tree.put("b", "2")
        tree.kill()
        segment = tmp_path / "wal.000000.log"
        with open(segment, "ab") as handle:
            handle.write(b"93bb2c,{\"k\": \"half-a-rec")  # torn tail
        recovered = LSMTree.recover(small_config(), str(tmp_path))
        assert recovered.get("a") == "1"
        assert recovered.get("b") == "2"
        recovered.close()

    def test_valid_record_after_garbage_is_corruption(self, tmp_path):
        tree = LSMTree(small_config(), wal_dir=str(tmp_path))
        tree.put("a", "1")
        tree.put("b", "2")
        tree.put("c", "3")
        tree.kill()
        segment = tmp_path / "wal.000000.log"
        lines = segment.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3
        lines[1] = b"garbage-line\n"  # valid record follows => corruption
        segment.write_bytes(b"".join(lines))
        with pytest.raises(CorruptionError) as excinfo:
            LSMTree.recover(small_config(), str(tmp_path))
        err = excinfo.value
        assert err.path == str(segment)
        assert err.record_index == 1
        assert err.byte_offset == len(lines[0])

    def test_manifest_referencing_missing_table(self, tmp_path):
        config = small_config()
        wal_dir = tmp_path / "wal"
        ckpt_dir = tmp_path / "ckpt"
        wal_dir.mkdir()
        tree = LSMTree(config, wal_dir=str(wal_dir))
        for i in range(20):
            tree.put(f"k{i:02d}", "x" * 120)
        persistence.checkpoint(tree, str(ckpt_dir))
        tree.close()
        victims = list((ckpt_dir / "tables").glob("*.sst"))
        assert victims
        victims[0].unlink()
        with pytest.raises(CorruptionError) as excinfo:
            persistence.recover_full(config, str(wal_dir), str(ckpt_dir))
        assert victims[0].name in str(excinfo.value)

    def test_recover_full_checkpoint_plus_wal_tail(self, tmp_path):
        config = small_config()
        wal_dir = tmp_path / "wal"
        ckpt_dir = tmp_path / "ckpt"
        wal_dir.mkdir()
        tree = LSMTree(config, wal_dir=str(wal_dir))
        for i in range(12):
            tree.put(f"k{i:02d}", f"ckpt-{i}")
        persistence.checkpoint(tree, str(ckpt_dir))
        tree.put("k00", "post-ckpt-overwrite")
        tree.delete("k01")
        tree.put("fresh", "post-ckpt")
        tree.kill()  # crash: post-checkpoint writes only in the WAL
        recovered = persistence.recover_full(
            config, str(wal_dir), str(ckpt_dir)
        )
        assert recovered.get("k00") == "post-ckpt-overwrite"
        assert recovered.get("k01") is None
        assert recovered.get("fresh") == "post-ckpt"
        assert recovered.get("k02") == "ckpt-2"
        recovered.close()


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


class TestSweep:
    def test_full_sweep_is_clean_and_broad(self):
        report = run_sweep(quick=False, seed=7)
        assert report.violations == []
        # Acceptance: >= 100 distinct crash points spanning the WAL,
        # SSTable/manifest checkpoint, and shard-commit sites.
        assert report.total_crossings >= 100
        names = set(report.distinct_names)
        for required in (
            "wal.batch.written",
            "wal.sync",
            "wal.fsync",
            "ckpt.table.tmp",
            "ckpt.manifest.tmp",
            "shard.commit",
            "shard.manifest.tmp",
            "flush.build",
            "compact.merge",
        ):
            assert required in names, required
        # Replication acceptance: the replicated scenarios cross every
        # seed/ship/apply/fence/promote/demote site, >= 20 crossings
        # total, zero sync-mode durability violations (covered by
        # report.violations == []).
        for required in (
            "repl.node.sync",
            "repl.node.ship",
            "repl.node.apply",
            "repl.node.fence",
            "repl.node.promote.start",
            "repl.node.promote.seal",
            "repl.node.promote.done",
            "repl.node.demote",
        ):
            assert required in names, required
        repl_crossings = [
            crossing
            for ids in report.crossings.values()
            for crossing in ids
            if crossing.startswith("repl.")
        ]
        assert len(repl_crossings) >= 20
        # Cluster acceptance: the cluster scenario crosses the map-write
        # and every migration site (begin → snapshot → tail → fence →
        # seal → release), >= 12 crossings total, zero dual-ownership or
        # acked-write-loss violations (report.violations == []).
        for required in (
            "cluster.map.tmp",
            "cluster.map.done",
            "cluster.migrate.begin",
            "cluster.migrate.snapshot",
            "cluster.migrate.tail",
            "cluster.migrate.fence",
            "cluster.migrate.seal",
            "cluster.migrate.release",
        ):
            assert required in names, required
        cluster_crossings = [
            crossing
            for ids in report.crossings.values()
            for crossing in ids
            if crossing.startswith("cluster.")
        ]
        assert len(cluster_crossings) >= 12
        assert report.torn_runs > 0
        assert report.bitflip_runs > 0
        assert report.fsync_runs > 0
        assert report.transient_runs > 0

    def test_quick_sweep_is_deterministic(self):
        first = run_sweep(quick=True, seed=11)
        second = run_sweep(quick=True, seed=11)
        assert first.violations == second.violations == []
        assert first.crossings == second.crossings
        assert first.runs == second.runs

    def test_invariant_checker_catches_violations(self):
        tracker = WorkloadTracker()
        tracker.acked = {"a": "1", "gone": None}
        tracker.inflight = [("x", "new-x"), ("y", "new-y")]
        state = {"a": "1", "gone": "resurrected", "x": "new-x", "y": None}
        violations = check_invariants(tracker, state.get, lambda _k: 0)
        assert len(violations) == 2
        assert any("resurrected" in v for v in violations)
        assert any("partially applied" in v for v in violations)
        # The same in-flight outcome is fine when the keys live in
        # different atomic units (per-shard sub-batches).
        violations = check_invariants(tracker, state.get, lambda k: k)
        assert len(violations) == 1

    def test_single_tree_scenario_replays_cleanly(self):
        # The enumeration contract: the scripted workload completes and
        # crosses only catalogued failpoints.
        import tempfile

        scenario = SCENARIOS["single-tree"]
        with tempfile.TemporaryDirectory() as root:
            plan = FaultPlan(root=root)
            tracker = WorkloadTracker()
            with fault_plan(plan):
                ctx = scenario.open(root)
                for op in scenario.script():
                    from repro.faults.sweep import _effects

                    tracker.begin(_effects(op))
                    apply_op(scenario, ctx, op, root)
                    tracker.commit()
                ctx.close()
            assert all(
                crossing.split("@", 1)[0] in FAILPOINTS
                for crossing in plan.crossings
            )
            recovered = scenario.recover(root)
            assert not check_invariants(
                tracker, recovered.get, scenario.unit_of
            )
            recovered.kill()

    def test_partition_run_that_raises_leaks_no_listener(self, monkeypatch):
        """A partition script that raises is a recorded violation, and
        the pair it ran against — both node listeners, every link's
        proxy — is down before the next run starts."""
        import socket

        from repro.faults import sweep

        ports = []

        async def raising_script(run):
            for server in run.servers.values():
                ports.append(server.port)
                ports.extend(
                    port for _host, port in server.dial_overrides.values()
                )
            raise RuntimeError("script bug")

        monkeypatch.setitem(sweep._PARTITION_SCRIPTS, "raising", raising_script)
        report = sweep.SweepReport()
        sweep._partition_run("raising", 7, report, quick=True)
        assert len(report.violations) == 1, report.violations
        assert "scenario crashed" in report.violations[0]
        assert "script bug" in report.violations[0]
        assert len(ports) == 4  # two nodes, one proxy per directed link
        for port in ports:
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port), timeout=1.0)


# ---------------------------------------------------------------------------
# The oracles bite
# ---------------------------------------------------------------------------


def _scenario(name: str):
    return SCENARIOS[name]


def _lose_migration_tail(monkeypatch):
    from repro.cluster.store import MIGRATION, NodeStore

    real_set_tap = NodeStore.set_tap

    def drop_every_group(entries):
        pass

    def set_tap(self, shard, role, tap):
        if role == MIGRATION and tap is not None:
            tap = drop_every_group
        real_set_tap(self, shard, role, tap)

    monkeypatch.setattr(NodeStore, "set_tap", set_tap)


def _ship_async_under_sync_mode(monkeypatch):
    from repro.replication.store import _Link

    real_init = _Link.__init__

    def init(self, shard, standby, *, sync):
        real_init(self, shard, standby, sync=False)

    monkeypatch.setattr(_Link, "__init__", init)


def _forget_txn_decisions(monkeypatch):
    from repro.core.wal import TxnDecisionLog

    monkeypatch.setattr(TxnDecisionLog, "replay", staticmethod(lambda path: {}))


def _drop_last_replayed_group(monkeypatch):
    from repro.core.wal import WriteAheadLog

    real_replay = WriteAheadLog.replay_groups

    def replay_groups(path, committed_txns=None):
        return iter(list(real_replay(path, committed_txns))[:-1])

    monkeypatch.setattr(
        WriteAheadLog, "replay_groups", staticmethod(replay_groups)
    )


def _drop_single_op_replica_groups(monkeypatch):
    from repro.cluster import NodeStore

    real_apply = NodeStore.replica_apply

    def replica_apply(self, shard, ops):
        if len(ops) != 1:
            real_apply(self, shard, ops)

    monkeypatch.setattr(NodeStore, "replica_apply", replica_apply)


class TestOraclesBite:
    """One planted defect per sweep scenario; every crossing crashed.

    A sweep that reports zero violations proves recovery only if its
    oracles would have reported the violations of a broken engine. Each
    row plants one defect on the path its scenario exists to check,
    enumerates the scenario *with the defect in place*, crashes every
    crossing once (crash mode, seed 7 — what full mode does) and
    requires at least one violation.

    Written against the five scenario classes and run there first
    (the parent of the scenario-row change; only ``_scenario`` differed);
    runs / violations, equal on both sides of that change:

    ===============  ============================================  ====  =======
    scenario         defect                                        runs  viol.
    ===============  ============================================  ====  =======
    cluster          migration tap drops every group                 92       54
    replicated-sync  sync ships go through the async applier        136  222–382
    sharded          2PC decisions forgotten at recovery            115     1215
    single-tree      WAL replay drops each file's last group        101       67
    failover         standby drops one-op commit groups             128      178
    ===============  ============================================  ====  =======

    (``replicated-sync`` varies from run to run: the planted defect *is*
    an applier thread racing the crash. Its row was re-planted when
    :class:`~repro.replication.ReplicatedStore` became two cluster nodes;
    before that it read 131 runs / 160–195 violations. The ``cluster``
    row was re-planted when the migration tail became a commit tap — it
    used to drain the tail buffer as empty — with the same counts.)
    """

    @pytest.mark.parametrize(
        "name, plant",
        [
            ("cluster", _lose_migration_tail),
            ("replicated-sync", _ship_async_under_sync_mode),
            ("sharded", _forget_txn_decisions),
            ("single-tree", _drop_last_replayed_group),
            ("failover", _drop_single_op_replica_groups),
        ],
    )
    def test_planted_defect_is_caught(self, monkeypatch, name, plant):
        from repro.faults.sweep import SweepReport, _crash_run, _enumerate

        plant(monkeypatch)
        scenario = _scenario(name)
        report = SweepReport()
        for crossing in _enumerate(scenario, 7):
            _crash_run(scenario, crossing, "crash", 7, report)
        print(f"{name}: {report.runs} runs / {len(report.violations)} violations")
        assert report.runs > 0
        assert report.violations, f"{name}: the planted defect went unnoticed"


class TestAckHistoryChecker:
    """``_check_ack_history`` — the partition runs' oracle — judged on
    synthetic ack records against one fake converged owner."""

    @staticmethod
    def _violations(records, readable):
        from types import SimpleNamespace

        from repro.faults.sweep import SweepReport, _check_ack_history

        owner = SimpleNamespace(
            map=SimpleNamespace(epoch=2, owner_id=lambda shard: "b"),
            get=readable.get,
        )
        stale = SimpleNamespace(
            map=SimpleNamespace(epoch=1, owner_id=lambda shard: "a"),
            get={}.get,
        )
        report = SweepReport()
        _check_ack_history(
            "synthetic", records, {"a": stale, "b": owner}, report
        )
        return report.violations

    @staticmethod
    def _ack(key, value, node, epoch, t_start, t_end):
        from repro.faults.sweep import _AckRecord

        return _AckRecord(key, value, node, epoch, t_start, t_end)

    def test_handover_history_is_clean(self):
        records = [
            self._ack("k1", "a#1", "a", 1, 0.0, 0.1),
            self._ack("k1", "b#1", "b", 2, 0.2, 0.3),
            self._ack("k2", "b#2", "b", 2, 0.4, 0.5),
        ]
        assert self._violations(records, {"k1": "b#1", "k2": "b#2"}) == []

    def test_overlapping_acks_from_two_nodes_are_a_dual_ack(self):
        records = [
            self._ack("k1", "a#1", "a", 1, 0.0, 0.3),
            self._ack("k2", "b#1", "b", 2, 0.2, 0.4),
        ]
        violations = self._violations(records, {"k1": "a#1", "k2": "b#1"})
        assert len(violations) == 1 and "dual ack" in violations[0]

    def test_later_ack_at_an_older_epoch_is_stale(self):
        records = [
            self._ack("k1", "b#1", "b", 2, 0.0, 0.1),
            self._ack("k2", "a#1", "a", 1, 0.2, 0.3),
        ]
        violations = self._violations(records, {"k1": "b#1", "k2": "a#1"})
        assert len(violations) == 1 and "stale-epoch ack" in violations[0]

    def test_unreadable_last_acked_value_is_a_lost_write(self):
        records = [
            self._ack("k1", "a#1", "a", 1, 0.0, 0.1),
            self._ack("k1", "a#2", "a", 1, 0.2, 0.3),
        ]
        violations = self._violations(records, {"k1": "a#1"})
        assert len(violations) == 1 and "acked write lost" in violations[0]
        assert "'a#2'" in violations[0]
