"""Crash-recovery tests: WAL segments + tree rebuild."""

import os

import pytest

from repro.core import wal as wal_module
from repro.core.config import LSMConfig
from repro.core.tree import LSMTree
from repro.core.wal import WriteAheadLog
from repro.faults import FaultPlan, InjectedCrash, fault_plan
from repro.shard import ShardedStore, hash_shard_index
from repro.storage import persistence


def make_config():
    return LSMConfig(
        buffer_size_bytes=1024, target_file_bytes=512, block_bytes=256
    )


class TestWalSegments:
    def test_segments_created_and_removed(self, tmp_path):
        wal_dir, ckpt_dir = tmp_path / "wal", tmp_path / "ckpt"
        wal_dir.mkdir()
        tree = LSMTree(make_config(), wal_dir=str(wal_dir))

        def segments():
            return sorted(os.listdir(wal_dir))

        for index in range(10):
            tree.put(f"k{index}", "v")
        assert segments() == ["wal.000000.log"]
        tree.flush()
        # The flushed tables are not durable yet: the flushed segment
        # stays beside the fresh active one.
        assert segments() == ["wal.000000.log", "wal.000001.log"]
        persistence.checkpoint(tree, str(ckpt_dir))
        # The checkpoint covers the flushed segment and prunes it.
        assert segments() == ["wal.000001.log"]
        tree.close()


class TestRecovery:
    def test_recover_buffered_entries(self, tmp_path):
        tree = LSMTree(make_config(), wal_dir=str(tmp_path))
        tree.put("k1", "v1")
        tree.put("k2", "v2")
        tree.delete("k1")
        # Simulated crash: no close(), no flush. Reopen from the WAL.
        recovered = LSMTree.recover(make_config(), str(tmp_path))
        assert recovered.get("k1") is None
        assert recovered.get("k2") == "v2"
        recovered.close()
        tree.close()

    def test_recovery_preserves_seqnos(self, tmp_path):
        tree = LSMTree(make_config(), wal_dir=str(tmp_path))
        tree.put("k", "old")
        tree.put("k", "new")
        high_water = tree.seqno
        recovered = LSMTree.recover(make_config(), str(tmp_path))
        assert recovered.get("k") == "new"
        assert recovered.seqno >= high_water
        recovered.put("k", "newest")
        assert recovered.get("k") == "newest"
        recovered.close()
        tree.close()

    def test_recover_empty_dir(self, tmp_path):
        recovered = LSMTree.recover(make_config(), str(tmp_path))
        assert recovered.get("anything") is None
        recovered.close()

    def test_recover_large_buffer_spills_to_disk(self, tmp_path):
        config = make_config().with_overrides(buffer_size_bytes=64 * 1024)
        tree = LSMTree(config, wal_dir=str(tmp_path))
        for index in range(500):
            tree.put(f"key{index:06d}", "some-payload")
        # Crash with everything still buffered (big buffer, no flush).
        assert tree.total_disk_bytes() == 0
        small = make_config()  # recover with a small buffer: forces flushes
        recovered = LSMTree.recover(small, str(tmp_path))
        assert recovered.total_disk_bytes() > 0
        for index in range(0, 500, 41):
            assert recovered.get(f"key{index:06d}") == "some-payload"
        recovered.verify_invariants()
        recovered.close()
        tree.close()

    def test_recovery_consumes_segments(self, tmp_path):
        tree = LSMTree(make_config(), wal_dir=str(tmp_path))
        tree.put("a", "1")
        recovered = LSMTree.recover(make_config(), str(tmp_path))
        # Old segments were replayed and deleted; the entry is re-logged in
        # a fresh segment so a second crash still recovers it.
        twice = LSMTree.recover(make_config(), str(tmp_path))
        assert twice.get("a") == "1"
        for handle in (tree, recovered, twice):
            handle.close()


GROUPS, PER_GROUP = 6, 5


def durable_config():
    # A buffer no test here fills: everything stays in the WAL.
    return LSMConfig(buffer_size_bytes=1 << 20, wal_fsync=True)


def write_groups(tree, first=0):
    for group in range(first, first + GROUPS):
        tree.write_batch(
            [
                ("put", f"g{group:02d}k{index}", f"v{group}")
                for index in range(PER_GROUP)
            ]
        )


def group_keys(group):
    return [f"g{group:02d}k{index}" for index in range(PER_GROUP)]


def only_segment(wal_dir):
    (name,) = [
        name for name in os.listdir(wal_dir) if name.startswith("wal.")
    ]
    return os.path.join(wal_dir, name)


@pytest.fixture
def syncs(monkeypatch):
    """Every ``fdatasync`` the WAL layer issues, as a list of fds."""
    calls = []
    real = wal_module._datasync
    monkeypatch.setattr(
        wal_module, "_datasync", lambda fd: (calls.append(fd), real(fd))
    )
    return calls


class TestRecoveryReplaysGroups:
    """A restart re-journals one record and one sync per replayed *group*
    (it was one per entry), so a group stays atomic in the fresh segment."""

    def test_recover_syncs_once_per_group(self, tmp_path, syncs):
        tree = LSMTree(durable_config(), wal_dir=str(tmp_path))
        write_groups(tree)
        high_water = tree.seqno
        tree.kill()
        del syncs[:]
        recovered = LSMTree.recover(durable_config(), str(tmp_path))
        assert len(syncs) <= GROUPS
        fresh = only_segment(tmp_path)
        groups = list(WriteAheadLog.replay_groups(fresh))
        assert [len(group) for group in groups] == [PER_GROUP] * GROUPS
        assert [entry.seqno for group in groups for entry in group] == list(
            range(high_water)
        )
        assert recovered.seqno == high_water
        for group in range(GROUPS):
            for key in group_keys(group):
                assert recovered.get(key) == f"v{group}"
        recovered.kill()
        # A crash tearing the *recovered* segment still drops a group
        # whole, never half of it.
        with open(fresh, "r+b") as handle:
            handle.truncate(os.path.getsize(fresh) - 10)
        again = LSMTree.recover(durable_config(), str(tmp_path))
        for key in group_keys(GROUPS - 1):
            assert again.get(key) is None
        for key in group_keys(GROUPS - 2):
            assert again.get(key) == f"v{GROUPS - 2}"
        again.close()

    def test_recover_full_syncs_once_per_group(self, tmp_path, syncs):
        wal_dir, ckpt_dir = tmp_path / "wal", tmp_path / "ckpt"
        wal_dir.mkdir()
        tree = LSMTree(durable_config(), wal_dir=str(wal_dir))
        write_groups(tree)
        persistence.checkpoint(tree, str(ckpt_dir))
        covered = tree.seqno
        write_groups(tree, first=GROUPS)
        high_water = tree.seqno
        tree.kill()
        del syncs[:]
        recovered = persistence.recover_full(
            durable_config(), str(wal_dir), str(ckpt_dir)
        )
        # Only what the checkpoint does not cover is journaled again.
        assert len(syncs) <= GROUPS
        fresh = recovered._active_wal._path
        groups = list(WriteAheadLog.replay_groups(fresh))
        assert [len(group) for group in groups] == [PER_GROUP] * GROUPS
        assert [entry.seqno for group in groups for entry in group] == list(
            range(covered, high_water)
        )
        assert recovered.seqno == high_water
        for group in range(2 * GROUPS):
            for key in group_keys(group):
                assert recovered.get(key) == f"v{group}"
        recovered.close()

    def test_rolled_forward_prepare_becomes_one_plain_group(
        self, tmp_path, syncs
    ):
        config = LSMConfig(wal_fsync=True)
        store = ShardedStore(2, config, wal_dir=str(tmp_path))
        keys = {0: [], 1: []}
        for index in range(200):
            bucket = keys[hash_shard_index(f"key{index:03d}", 2)]
            if len(bucket) < PER_GROUP:
                bucket.append(f"key{index:03d}")
        batch = [("put", key, "new") for key in keys[0] + keys[1]]
        # Crash with the COMMIT decision durable and no shard applied:
        # each shard's segment ends in a PREPARE record.
        plan = FaultPlan(root=str(tmp_path), crash_at="txn.commit@shard-00#0")
        with fault_plan(plan):
            with pytest.raises(InjectedCrash):
                store.write_batch(batch)
        store.kill()
        del syncs[:]
        recovered = ShardedStore.recover(config, str(tmp_path))
        assert len(syncs) <= 2  # parent: one per entry, 2 * PER_GROUP
        for shard in (0, 1):
            fresh = only_segment(recovered.shard_dir(shard))
            with open(fresh, "rb") as handle:
                (line,) = handle.readlines()
            assert b',{"g":' in line and b'"p"' not in line
            # No decision set needed any more: it is a committed group.
            (group,) = WriteAheadLog.replay_groups(fresh)
            assert [entry.key for entry in group] == keys[shard]
        for _op, key, value in batch:
            assert recovered.get(key) == value
        recovered.close()
