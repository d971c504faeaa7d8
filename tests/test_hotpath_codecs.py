"""Batched-codec tests: columnar entry blocks, WAL group records, and
SSTable file-format compatibility.

The hot-path pass replaced per-entry encode/decode loops with batched
codecs in three places: ``pack_entries``/``unpack_entries`` (checkpoint
entry blocks, format v3), the WAL's single-line commit-group record, and
the pre-packed protocol reply frames. These tests pin the roundtrips,
the error paths, that groups of one replay beside larger groups, and
that the retired formats nobody has files for (v2 SSTables, WAL
``{"b":N}`` batch headers) are refused as corruption.
"""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.core.entry import (
    ENTRY_FIXED,
    Entry,
    EntryKind,
    pack_entries,
    unpack_entries,
)
from repro.core.wal import WriteAheadLog, _encode_group
from repro.errors import CorruptionError
from repro.storage.disk import SimulatedDisk
from repro.storage.persistence import _decode_table, _encode_table
from repro.core.sstable import SSTable


def entry(key, value, seqno=1, kind=EntryKind.PUT, stamp=1.5):
    return Entry(key, value, seqno, kind, stamp)


class TestEntryCodec:
    def test_roundtrip_all_kinds(self):
        entries = [
            entry("put", "value", 1, EntryKind.PUT),
            entry("del", None, 2, EntryKind.DELETE),
            entry("merge", "+1", 3, EntryKind.MERGE),
        ]
        blob = pack_entries(entries)
        decoded, consumed = unpack_entries(blob, len(entries))
        assert decoded == entries
        assert consumed == len(blob)

    def test_empty_value_differs_from_tombstone(self):
        entries = [
            entry("empty", "", 1, EntryKind.PUT),
            entry("gone", None, 2, EntryKind.DELETE),
        ]
        decoded, _ = unpack_entries(pack_entries(entries), 2)
        assert decoded[0].value == ""
        assert decoded[1].value is None

    def test_unicode_keys_and_values(self):
        entries = [entry("clé-日本語", "värde ☃"), entry("π", "τ" * 100)]
        decoded, _ = unpack_entries(pack_entries(entries), len(entries))
        assert decoded == entries

    def test_chunk_boundary_crossing(self):
        # The packer flattens in chunks of 512; 1500 entries exercises
        # full chunks plus a ragged tail.
        entries = [
            entry(f"key{i:06d}", f"value{i}" if i % 7 else None, i,
                  EntryKind.PUT if i % 7 else EntryKind.DELETE)
            for i in range(1, 1501)
        ]
        decoded, _ = unpack_entries(pack_entries(entries), len(entries))
        assert decoded == entries

    def test_empty_block(self):
        blob = pack_entries([])
        assert blob == b""
        assert unpack_entries(blob, 0) == ([], 0)

    def test_decode_at_offset(self):
        entries = [entry("a", "1"), entry("b", "2")]
        blob = b"\xee" * 7 + pack_entries(entries)
        decoded, consumed = unpack_entries(blob, 2, offset=7)
        assert decoded == entries
        assert consumed == len(blob) - 7

    def test_truncated_fixed_section_raises(self):
        blob = pack_entries([entry("a", "1")])
        with pytest.raises(ValueError):
            unpack_entries(blob[: ENTRY_FIXED.size - 2], 1)

    def test_truncated_heap_raises(self):
        blob = pack_entries([entry("abcdef", "123456")])
        with pytest.raises(ValueError):
            unpack_entries(blob[:-3], 1)


class TestSSTableFormatCompat:
    def _table(self):
        return SSTable.build(
            [
                entry("a", "1", 1),
                entry("b", None, 2, EntryKind.DELETE),
                entry("c", "3", 3),
            ],
            SimulatedDisk(),
        )

    @staticmethod
    def _encode_v2(entries):
        """Re-implement the retired v2 writer: interleaved per-entry
        fixed fields and strings (the layout v2 files on disk have)."""
        header = struct.Struct("<4sIII")
        fixed = struct.Struct("<HiQBd")
        chunks = [header.pack(b"RSST", 2, len(entries), 0)]
        for item in entries:
            key_bytes = item.key.encode("utf-8")
            if item.value is None:
                value_bytes, value_len = b"", -1
            else:
                value_bytes = item.value.encode("utf-8")
                value_len = len(value_bytes)
            chunks.append(
                fixed.pack(len(key_bytes), value_len, item.seqno,
                           int(item.kind), item.stamp_us)
            )
            chunks.append(key_bytes)
            chunks.append(value_bytes)
        payload = b"".join(chunks)
        return payload + struct.pack("<I", zlib.crc32(payload))

    def test_v3_roundtrip(self):
        table = self._table()
        entries, tombstones = _decode_table(_encode_table(table))
        assert entries == list(table.iter_entries())
        assert tombstones == []

    def test_v2_file_is_rejected(self):
        blob = self._encode_v2(list(self._table().iter_entries()))
        with pytest.raises(CorruptionError, match="unsupported.*version 2"):
            _decode_table(blob)

    def test_unsupported_version_rejected(self):
        blob = self._encode_v2(list(self._table().iter_entries()))
        # Patch the version word to something unknown and re-checksum.
        payload = bytearray(blob[:-4])
        struct.pack_into("<I", payload, 4, 99)
        payload = bytes(payload)
        blob = payload + struct.pack("<I", zlib.crc32(payload))
        with pytest.raises(CorruptionError, match="version"):
            _decode_table(blob)

    def test_corrupt_entry_block_is_corruption_error(self):
        table = self._table()
        blob = _encode_table(table)
        # Flip a byte inside the entry block and fix the trailing CRC so
        # decoding reaches the block codec rather than the checksum.
        payload = bytearray(blob[:-4])
        payload[16] ^= 0xFF  # first entry's key_len, now enormous
        payload = bytes(payload)
        blob = payload + struct.pack("<I", zlib.crc32(payload))
        with pytest.raises(CorruptionError):
            _decode_table(blob)


class TestWalGroupRecords:
    def _entries(self, count=5):
        return [
            entry(f"k{i}", f"v{i}" if i % 2 else None, i,
                  EntryKind.PUT if i % 2 else EntryKind.DELETE)
            for i in range(1, count + 1)
        ]

    def test_group_record_is_one_line_and_replays(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(SimulatedDisk(), path=path)
        wal.append_batch(self._entries())
        wal.close()
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == 1  # whole commit group, one record
        assert list(WriteAheadLog.replay(path)) == self._entries()

    def test_legacy_batch_header_is_rejected(self, tmp_path):
        # The retired format: one record per entry behind a checksummed
        # {"b": N} header line. The header is no record this log knows,
        # and valid records follow it, so it is corruption, not a tear.
        path = str(tmp_path / "wal.log")
        entries = self._entries()
        header = '{"b":%d}' % len(entries)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{zlib.crc32(header.encode()):08x},{header}\n")
            for item in entries:
                handle.write(_encode_group([item]))
        with pytest.raises(CorruptionError, match="failed to decode"):
            list(WriteAheadLog.replay(path))

    def test_torn_group_record_is_discarded_whole(self, tmp_path):
        path = str(tmp_path / "wal.log")
        survivor = entry("keep", "me")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_encode_group([survivor]))
            handle.write(_encode_group(self._entries())[:-20])  # torn
        assert list(WriteAheadLog.replay(path)) == [survivor]

    def test_mixed_single_and_group_records(self, tmp_path):
        # A single write is a group of one: same record kind, same file.
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(SimulatedDisk(), path=path)
        first = entry("single", "1")
        wal.append_batch([first])
        wal.append_batch(self._entries())
        wal.close()
        assert list(WriteAheadLog.replay(path)) == [first] + self._entries()
