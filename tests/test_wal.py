"""Unit tests for the write-ahead log and its recovery contract."""

import random
import zlib

import pytest

from repro.core.entry import put, tombstone
from repro.core.wal import (
    TXN_ABORT,
    TXN_COMMIT,
    TxnDecisionLog,
    WriteAheadLog,
)
from repro.errors import ClosedError, CorruptionError
from repro.storage.disk import SimulatedDisk


def _roundtrip(disk, tmp_path, entries):
    """One group through the public codec: append_batch, then replay."""
    path = str(tmp_path / "wal.log")
    wal = WriteAheadLog(disk, path)
    wal.append_batch(entries)
    wal.close()
    return path, list(WriteAheadLog.replay(path))


def _rewrite_only_line(path, edit):
    with open(path, "r", encoding="utf-8") as handle:
        (line,) = handle.readlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(edit(line))
        # A valid record after the damage: corruption, not a crash tail.
        handle.write(line)


class TestCodec:
    def test_roundtrip_put(self, disk, tmp_path):
        entry = put("key", "value", 42, stamp_us=17.5)
        assert _roundtrip(disk, tmp_path, [entry])[1] == [entry]

    def test_roundtrip_tombstone(self, disk, tmp_path):
        entry = tombstone("key", 1)
        (decoded,) = _roundtrip(disk, tmp_path, [entry])[1]
        assert decoded == entry
        assert decoded.is_tombstone

    def test_detects_corruption(self, disk, tmp_path):
        path, _ = _roundtrip(disk, tmp_path, [put("k", "v", 0)])
        _rewrite_only_line(path, lambda line: line.replace("v", "x", 1))
        with pytest.raises(CorruptionError, match="failed checksum") as info:
            list(WriteAheadLog.replay(path))
        assert info.value.path == path
        assert info.value.record_index == 0
        assert info.value.expected_crc != info.value.actual_crc

    def test_detects_missing_separator(self, disk, tmp_path):
        path, _ = _roundtrip(disk, tmp_path, [put("k", "v", 0)])
        _rewrite_only_line(path, lambda line: "deadbeef\n")
        with pytest.raises(CorruptionError, match="missing checksum separator"):
            list(WriteAheadLog.replay(path))

    def test_detects_bad_checksum_format(self, disk, tmp_path):
        path, _ = _roundtrip(disk, tmp_path, [put("k", "v", 0)])
        _rewrite_only_line(
            path, lambda line: "zzzz," + line.partition(",")[2]
        )
        with pytest.raises(CorruptionError, match="malformed checksum"):
            list(WriteAheadLog.replay(path))

    def test_single_entry_record_is_refused(self, disk, tmp_path):
        # The retired format: one checksummed {"k":...} line per entry.
        # It is no record this log knows, and a valid group follows it.
        path, _ = _roundtrip(disk, tmp_path, [put("k", "v", 0)])
        payload = '{"k":"a","v":"1","s":0,"t":0,"u":0.0}'
        _rewrite_only_line(
            path,
            lambda line: f"{zlib.crc32(payload.encode()):08x},{payload}\n",
        )
        with pytest.raises(CorruptionError, match="failed to decode"):
            list(WriteAheadLog.replay(path))


class TestCommitHook:
    def test_hook_fires_once_per_commit_group(self, disk):
        groups = []
        wal = WriteAheadLog(disk, on_commit=groups.append)
        wal.append_batch([put("a", "1", 0)])
        batch = [put("b", "2", 1), tombstone("a", 2)]
        wal.append_batch(batch)
        assert [len(group) for group in groups] == [1, 2]
        assert groups[1] == batch

    def test_hook_failure_does_not_uncommit(self, disk):
        wal = WriteAheadLog(disk)

        def explode(_entries):
            raise RuntimeError("ship failed")

        wal.on_commit = explode
        entry = put("k", "v", 0)
        with pytest.raises(RuntimeError):
            wal.append_batch([entry])
        # The record was journaled before the hook ran: it is pending
        # (and durable) despite the hook's failure.
        assert wal.pending_entries == [entry]

    def test_empty_batch_does_not_fire(self, disk):
        groups = []
        wal = WriteAheadLog(disk, on_commit=groups.append)
        wal.append_batch([])
        assert groups == []


class TestInMemoryWal:
    def test_append_tracks_pending(self, disk):
        wal = WriteAheadLog(disk)
        entries = [put(f"k{i}", "v", i) for i in range(5)]
        for entry in entries:
            wal.append_batch([entry])
        assert wal.pending_entries == entries

    def test_reset_clears(self, disk):
        wal = WriteAheadLog(disk)
        wal.append_batch([put("k", "v", 0)])
        wal.reset()
        assert wal.pending_entries == []

    def test_charges_disk_per_page(self, disk):
        wal = WriteAheadLog(disk)
        # Each record is ~60 bytes; a 4096-byte page fills after ~70.
        for index in range(200):
            wal.append_batch([put(f"key{index:06d}", "some-value-payload", index)])
        assert disk.counters.writes_by_cause.get("wal", 0) >= 1

    def test_closed_wal_rejects_appends(self, disk):
        wal = WriteAheadLog(disk)
        wal.close()
        with pytest.raises(ClosedError):
            wal.append_batch([put("k", "v", 0)])
        with pytest.raises(ClosedError):
            wal.reset()


class TestAppendBatch:
    def test_batch_matches_sequential_appends(self, disk, tmp_path):
        """A group of N replays equal to N groups of one."""
        entries = [put(f"k{i}", f"v{i}", i) for i in range(8)]
        batched = WriteAheadLog(disk, str(tmp_path / "n.log"))
        batched.append_batch(entries)
        sequential = WriteAheadLog(disk, str(tmp_path / "1.log"))
        for entry in entries:
            sequential.append_batch([entry])
        assert batched.pending_entries == sequential.pending_entries
        assert (batched.sync_count, sequential.sync_count) == (1, 8)
        for wal in (batched, sequential):
            wal.close()
        assert (
            list(WriteAheadLog.replay(str(tmp_path / "n.log")))
            == list(WriteAheadLog.replay(str(tmp_path / "1.log")))
            == entries
        )

    def test_single_sync_for_whole_batch(self, disk, tmp_path):
        """The group-commit contract: N entries, one log sync."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path)
        assert wal.sync_count == 0
        wal.append_batch([put(f"k{i}", "v", i) for i in range(50)])
        assert wal.sync_count == 1
        # A group of one pays one sync each — what batching amortizes.
        for index in range(5):
            wal.append_batch([put(f"x{index}", "v", 100 + index)])
        assert wal.sync_count == 6

    def test_batch_is_replayable(self, disk, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path)
        entries = [put(f"k{i}", f"v{i}", i) for i in range(10)]
        wal.append_batch(entries)
        wal.close()
        assert list(WriteAheadLog.replay(path)) == entries

    def test_empty_batch_is_noop(self, disk, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path)
        wal.append_batch([])
        assert wal.sync_count == 0
        assert wal.pending_entries == []

    def test_batch_charges_disk_pages(self, disk):
        wal = WriteAheadLog(disk)
        wal.append_batch(
            [put(f"key{i:06d}", "some-value-payload", i) for i in range(200)]
        )
        assert disk.counters.writes_by_cause.get("wal", 0) >= 1

    def test_closed_wal_rejects_batch(self, disk):
        wal = WriteAheadLog(disk)
        wal.close()
        with pytest.raises(ClosedError):
            wal.append_batch([put("k", "v", 0)])

    def test_fsync_mode_counts_syncs(self, disk, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path, fsync=True)
        wal.append_batch([put(f"k{i}", "v", i) for i in range(20)])
        assert wal.sync_count == 1
        wal.close()
        assert len(list(WriteAheadLog.replay(path))) == 20


class TestFileWal:
    def test_replay_roundtrip(self, disk, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path)
        entries = [put(f"k{i}", f"v{i}", i) for i in range(10)]
        for entry in entries:
            wal.append_batch([entry])
        wal.close()
        assert list(WriteAheadLog.replay(path)) == entries

    def test_replay_missing_file(self):
        assert list(WriteAheadLog.replay("/nonexistent/wal.log")) == []

    def test_replay_tolerates_torn_tail(self, disk, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path)
        for index in range(5):
            wal.append_batch([put(f"k{index}", "v", index)])
        wal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("0badc0de,{\"truncat")  # simulated crash mid-write
        replayed = list(WriteAheadLog.replay(path))
        assert len(replayed) == 5

    def test_replay_raises_on_mid_file_corruption(self, disk, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path)
        for index in range(5):
            wal.append_batch([put(f"k{index}", "v", index)])
        wal.close()
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[2] = "00000000," + lines[2].partition(",")[2]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(CorruptionError):
            list(WriteAheadLog.replay(path))

    def test_reset_truncates_file(self, disk, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path)
        wal.append_batch([put("k", "v", 0)])
        wal.reset()
        wal.append_batch([put("k2", "v2", 1)])
        wal.close()
        assert [entry.key for entry in WriteAheadLog.replay(path)] == ["k2"]


class TestPreparedGroups:
    """PREPARE records and the presumed-abort replay contract."""

    def test_prepare_is_not_acknowledged(self, disk):
        groups = []
        wal = WriteAheadLog(disk, on_commit=groups.append)
        entries = [put("a", "1", 0), put("b", "2", 1)]
        wal.append_prepare(7, entries)
        # Phase one is durable but invisible: nothing pending, no hook.
        assert wal.pending_entries == []
        assert groups == []

    def test_commit_prepared_matches_direct_batch(self, disk):
        groups = []
        wal = WriteAheadLog(disk, on_commit=groups.append)
        entries = [put("a", "1", 0), tombstone("b", 1)]
        wal.append_prepare(7, entries)
        settled = wal.commit_prepared(7)
        assert settled == entries
        assert wal.pending_entries == entries
        assert groups == [entries]

    def test_abort_prepared_leaves_no_trace(self, disk):
        groups = []
        wal = WriteAheadLog(disk, on_commit=groups.append)
        wal.append_prepare(7, [put("a", "1", 0)])
        wal.abort_prepared(7)
        wal.abort_prepared(7)  # idempotent
        assert wal.pending_entries == []
        assert groups == []

    def test_replay_rolls_forward_only_committed_txns(self, disk, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path)
        committed = [put("a", "1", 0), put("b", "2", 1)]
        aborted = [put("x", "9", 2)]
        wal.append_prepare(1, committed)
        wal.append_prepare(2, aborted)
        wal.close()
        # No decision set: presumed abort discards both groups.
        assert list(WriteAheadLog.replay(path)) == []
        assert list(WriteAheadLog.replay(path, committed_txns=frozenset())) == []
        # A durable commit decision rolls exactly that group forward.
        replayed = list(WriteAheadLog.replay(path, committed_txns={1}))
        assert replayed == committed

    def test_replay_interleaves_prepares_with_plain_records(
        self, disk, tmp_path
    ):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path)
        before = put("before", "v", 0)
        group = [put("txn-a", "1", 1), put("txn-b", "2", 2)]
        after = put("after", "v", 3)
        wal.append_batch([before])
        wal.append_prepare(5, group)
        wal.append_batch([after])
        wal.close()
        # Rolled forward, the group replays in file order between its
        # neighbors — seqnos stay monotone.
        assert list(WriteAheadLog.replay(path, committed_txns={5})) == [
            before,
            *group,
            after,
        ]
        # Rolled back, only the plain records survive.
        assert list(WriteAheadLog.replay(path)) == [before, after]

    def test_torn_prepare_tail_is_tolerated(self, disk, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(disk, path)
        wal.append_batch([put("k", "v", 0)])
        wal.append_prepare(9, [put("torn", "v", 1)])
        wal.close()
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # crash mid-prepare
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        # Even with a commit decision on record, the torn PREPARE cannot
        # roll forward — but the tear is a tolerated crash artifact.
        assert list(WriteAheadLog.replay(path, committed_txns={9})) == [
            put("k", "v", 0)
        ]

    def test_closed_wal_rejects_prepare(self, disk):
        wal = WriteAheadLog(disk)
        wal.close()
        with pytest.raises(ClosedError):
            wal.append_prepare(1, [put("k", "v", 0)])


class TestTxnDecisionLog:
    """The coordinator journal: commit point and recovery semantics."""

    def test_append_and_decision_roundtrip(self, tmp_path):
        path = str(tmp_path / "txn.log")
        log = TxnDecisionLog(path)
        first = log.next_txn_id()
        second = log.next_txn_id()
        assert second == first + 1
        log.append(first, TXN_COMMIT)
        log.append(second, TXN_ABORT)
        assert log.decision(first) == TXN_COMMIT
        assert log.decision(second) == TXN_ABORT
        assert log.decision(999) is None
        log.close()
        assert TxnDecisionLog.replay(path) == {
            first: TXN_COMMIT,
            second: TXN_ABORT,
        }

    def test_txn_ids_stay_fresh_across_reopen(self, tmp_path):
        path = str(tmp_path / "txn.log")
        log = TxnDecisionLog(path)
        used = log.next_txn_id()
        log.append(used, TXN_COMMIT)
        log.close()
        reopened = TxnDecisionLog(path)
        try:
            # A recovered coordinator must never reissue a decided id.
            assert reopened.next_txn_id() > used
            assert reopened.decision(used) == TXN_COMMIT
        finally:
            reopened.close()

    def test_replay_missing_file_is_empty(self, tmp_path):
        assert TxnDecisionLog.replay(str(tmp_path / "absent.log")) == {}

    def test_torn_final_decision_means_abort(self, tmp_path):
        path = str(tmp_path / "txn.log")
        log = TxnDecisionLog(path)
        decided = log.next_txn_id()
        torn = log.next_txn_id()
        log.append(decided, TXN_COMMIT)
        log.append(torn, TXN_COMMIT)
        log.close()
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # crash mid-decision
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        # The torn record never became the commit point: its transaction
        # is simply absent, so recovery presumes abort.
        assert TxnDecisionLog.replay(path) == {decided: TXN_COMMIT}

    def test_mid_file_corruption_raises(self, tmp_path):
        path = str(tmp_path / "txn.log")
        log = TxnDecisionLog(path)
        for _ in range(3):
            log.append(log.next_txn_id(), TXN_COMMIT)
        log.close()
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = "00000000," + lines[1].partition(",")[2]
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(CorruptionError):
            TxnDecisionLog.replay(path)

    def test_rejects_unknown_decision_and_closed_log(self, tmp_path):
        path = str(tmp_path / "txn.log")
        log = TxnDecisionLog(path)
        with pytest.raises(ValueError):
            log.append(log.next_txn_id(), "maybe")
        log.close()
        log.close()  # idempotent
        with pytest.raises(ClosedError):
            log.append(1, TXN_COMMIT)


# -- bytes that are not UTF-8 are damage to one record ----------------------


def _wal_log(path):
    """Three groups of three; replay flattens to a list of entries."""
    groups = [
        [put(f"k{3 * g + i}", f"v{g}", 3 * g + i) for i in range(3)]
        for g in range(3)
    ]
    wal = WriteAheadLog(SimulatedDisk(), path)
    for group in groups:
        wal.append_batch(group)
    wal.close()
    prefixes = [sum(groups[:count], []) for count in range(4)]
    return prefixes, lambda: list(WriteAheadLog.replay(path))


def _decision_log(path):
    log = TxnDecisionLog(path)
    verdicts = [(1, TXN_COMMIT), (2, TXN_ABORT), (3, TXN_COMMIT)]
    for txn_id, verdict in verdicts:
        log.append(txn_id, verdict)
    log.close()
    prefixes = [dict(verdicts[:count]) for count in range(4)]
    return prefixes, lambda: TxnDecisionLog.replay(path)


def _flip_high_bit(line, _rng):
    middle = len(line) // 2
    return line[:middle] + bytes([line[middle] ^ 0x80]) + line[middle + 1 :]


def _tear_then_garbage(line, rng):
    garbage = bytes(rng.randrange(0x80, 0x100) for _ in range(16))
    return line[: len(line) // 2] + garbage + b"\n"


@pytest.mark.parametrize("damage", [_flip_high_bit, _tear_then_garbage])
@pytest.mark.parametrize("build", [_wal_log, _decision_log])
class TestNonUtf8Damage:
    """Both logs read bytes and check the CRC over the raw payload, so a
    byte >= 0x80 damages one record; it never crashes the reader."""

    def _damage(self, path, index, damage):
        with open(path, "rb") as handle:
            lines = handle.readlines()
        lines[index] = damage(lines[index], random.Random(19))
        with open(path, "wb") as handle:
            handle.writelines(lines)
        return sum(len(line) for line in lines[:index])

    def test_damaged_tail_is_dropped(self, tmp_path, build, damage):
        path = str(tmp_path / "log")
        prefixes, replay = build(path)
        self._damage(path, 2, damage)
        assert replay() == prefixes[2]

    def test_damage_mid_file_is_refused(self, tmp_path, build, damage):
        path = str(tmp_path / "log")
        _prefixes, replay = build(path)
        offset = self._damage(path, 1, damage)
        with pytest.raises(CorruptionError) as info:
            replay()
        error = info.value
        assert error.path == path
        assert error.record_index == 1
        assert error.byte_offset == offset
        # Both damages leave the checksum field readable.
        assert error.expected_crc is not None
        assert error.expected_crc != error.actual_crc
