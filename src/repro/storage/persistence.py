"""Checkpoint/restore: durable snapshots of the tree's on-disk state.

Flushed tables live only in memory until a checkpoint writes them, so a
tree with a ``wal_dir`` keeps every WAL segment (:mod:`repro.core.wal`)
until a checkpoint covers it. This module writes that checkpoint —
every SSTable and the level manifest as real files — prunes the
segments it covers, and rebuilds a tree from it. A restart is the
latest checkpoint plus every remaining segment, replayed by the one
recovery loop, :meth:`~repro.core.tree.LSMTree.recover`. Nothing bounds
the retained WAL yet: it grows until :func:`checkpoint` runs.

On-disk layout of a checkpoint directory::

    MANIFEST.json          # config, covered seqno, level structure
    tables/<n>.sst         # one binary file per SSTable

SSTable file format, version 3 (little-endian)::

    magic "RSST"  | u32 version | u32 entry_count | u32 range_tombstone_count
    entry block (columnar, see repro.core.entry.pack_entries):
        per entry: u16 key_len | i32 value_len (-1 = tombstone) |
                   u64 seqno | u8 kind | f64 stamp_us
        then the string heap: key bytes, value bytes, entry after entry
    per range tombstone: u16 lo_len | u16 hi_len | u64 seqno | f64 stamp_us |
               lo bytes | hi bytes
    u32 crc32 of everything above

The columnar entry block lets a whole table be encoded/decoded with a
handful of batched ``struct`` calls instead of one pack/unpack per entry.
Any other version is refused as corruption.

Fence pointers and Bloom filters are rebuilt at load time (they are derived
data), exactly as real engines rebuild/reload auxiliary blocks on open.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from ..core.config import LSMConfig
from ..core.entry import Entry, pack_entries, unpack_entries
from ..core.level import Level
from ..core.merge_operator import MergeOperator
from ..core.range_tombstone import RangeTombstone
from ..core.run import SortedRun
from ..core.sstable import SSTable
from ..core.tree import LSMTree
from ..errors import CorruptionError
from ..faults.registry import fault_point
from .disk import SimulatedDisk
from .files import replace_durably

_MAGIC = b"RSST"
_VERSION = 3
_HEADER = struct.Struct("<4sIII")
_TOMBSTONE_FIXED = struct.Struct("<HHQd")


def _encode_table(table: SSTable) -> bytes:
    chunks: List[bytes] = [
        _HEADER.pack(
            _MAGIC, _VERSION, table.entry_count, len(table.range_tombstones)
        ),
        pack_entries(list(table.iter_entries())),
    ]
    for tombstone in table.range_tombstones:
        lo_bytes = tombstone.lo.encode("utf-8")
        hi_bytes = tombstone.hi.encode("utf-8")
        chunks.append(
            _TOMBSTONE_FIXED.pack(
                len(lo_bytes), len(hi_bytes), tombstone.seqno,
                tombstone.stamp_us,
            )
        )
        chunks.append(lo_bytes)
        chunks.append(hi_bytes)
    payload = b"".join(chunks)
    return payload + struct.pack("<I", zlib.crc32(payload))


def _decode_table(
    blob: bytes,
    path: Optional[str] = None,
) -> Tuple[List[Entry], List[RangeTombstone]]:
    if len(blob) < _HEADER.size + 4:
        raise CorruptionError(
            "SSTable file truncated", path=path, byte_offset=len(blob)
        )
    payload, crc_bytes = blob[:-4], blob[-4:]
    expected = struct.unpack("<I", crc_bytes)[0]
    actual = zlib.crc32(payload)
    if actual != expected:
        raise CorruptionError(
            "SSTable file failed checksum",
            path=path,
            byte_offset=len(payload),
            expected_crc=expected,
            actual_crc=actual,
        )
    magic, version, count, tombstone_count = _HEADER.unpack_from(payload, 0)
    if magic != _MAGIC:
        raise CorruptionError("not an SSTable file", path=path, byte_offset=0)
    if version != _VERSION:
        raise CorruptionError(
            f"unsupported SSTable version {version}", path=path
        )
    offset = _HEADER.size
    try:
        entries, consumed = unpack_entries(payload, count, offset)
    except (ValueError, struct.error) as exc:
        raise CorruptionError(
            "SSTable entry block failed to decode",
            path=path,
            byte_offset=offset,
        ) from exc
    offset += consumed
    tombstones: List[RangeTombstone] = []
    for _ in range(tombstone_count):
        lo_len, hi_len, seqno, stamp = _TOMBSTONE_FIXED.unpack_from(
            payload, offset
        )
        offset += _TOMBSTONE_FIXED.size
        lo = payload[offset : offset + lo_len].decode("utf-8")
        offset += lo_len
        hi = payload[offset : offset + hi_len].decode("utf-8")
        offset += hi_len
        tombstones.append(RangeTombstone(lo, hi, seqno, stamp))
    return entries, tombstones


def _clear_stale_temporaries(directory: str, tables_dir: str) -> None:
    """Remove ``*.tmp`` leftovers of a checkpoint that crashed mid-write.

    Safe at any time: a ``.tmp`` file is by construction uncommitted — the
    manifest never references one, so deleting it cannot lose covered data.
    """
    candidates = [os.path.join(directory, "MANIFEST.json.tmp")]
    if os.path.isdir(tables_dir):
        candidates.extend(
            os.path.join(tables_dir, name)
            for name in os.listdir(tables_dir)
            if name.endswith(".tmp")
        )
    for path in candidates:
        if os.path.exists(path):
            os.remove(path)


def checkpoint(tree: LSMTree, directory: str) -> Dict[str, int]:
    """Write a full snapshot of the tree's disk state to ``directory``.

    Flushes the buffers, then takes the tables, the covered seqno and
    the prunable WAL segments in one locked step
    (:meth:`~repro.core.tree.LSMTree.checkpoint_cut`): a write committed
    while the files are written stays in a segment this checkpoint keeps.
    Each table, then the manifest naming them, commits through
    :func:`~repro.storage.files.replace_durably`; only then are the
    cut's segments pruned, so a crash anywhere leaves the previous
    checkpoint intact or the new one committed, and never a pruned
    segment the surviving manifest does not cover. Stale ``.tmp`` files
    are cleared first, ``.sst`` files the manifest does not name after.
    Returns the tables and bytes written.
    """
    tree.flush()
    tables_dir = os.path.join(directory, "tables")
    os.makedirs(tables_dir, exist_ok=True)
    _clear_stale_temporaries(directory, tables_dir)
    levels, covered, segments = tree.checkpoint_cut()

    byte_count = 0
    manifest_levels = []
    for runs in levels:
        level_runs = []
        for tables in runs:
            run_tables = []
            for table in tables:
                filename = f"{table.table_id}.sst"
                blob = _encode_table(table)
                replace_durably(
                    os.path.join(tables_dir, filename), blob, "ckpt.table"
                )
                run_tables.append(filename)
                byte_count += len(blob)
            level_runs.append(run_tables)
        manifest_levels.append(level_runs)

    manifest = {
        "version": _VERSION,
        "config": dataclasses.asdict(tree.config),
        # Every seqno below this is in the tables; replay starts here.
        "next_seqno": covered,
        "now_us": tree.disk.now_us,
        "levels": manifest_levels,
    }
    replace_durably(
        os.path.join(directory, "MANIFEST.json"),
        json.dumps(manifest).encode("utf-8"),
        "ckpt.manifest",
    )
    live = {name for runs in manifest_levels for run in runs for name in run}
    for name in os.listdir(tables_dir):
        if name.endswith(".sst") and name not in live:
            os.remove(os.path.join(tables_dir, name))  # no manifest names it
    for path in segments:
        # Covered by the committed manifest: a crash mid-prune leaves
        # extra segments whose entries recovery filters by seqno.
        fault_point("ckpt.wal_prune", path=path)
        if os.path.exists(path):
            os.remove(path)
    return {"tables": len(live), "bytes": byte_count}


def restore(
    directory: str,
    disk: Optional[SimulatedDisk] = None,
    merge_operator: Optional["MergeOperator"] = None,
) -> LSMTree:
    """Rebuild a tree from a checkpoint directory.

    Restoring does not charge flush/compaction I/O (the data was already
    on "disk"); fence pointers and filters are rebuilt in memory.

    Raises:
        CorruptionError: On a missing/invalid manifest or table file.
    """
    manifest_path = os.path.join(directory, "MANIFEST.json")
    if not os.path.exists(manifest_path):
        raise CorruptionError(
            f"no MANIFEST.json under {directory}", path=manifest_path
        )
    with open(manifest_path, "r", encoding="utf-8") as handle:
        try:
            manifest = json.load(handle)
        except json.JSONDecodeError as exc:
            raise CorruptionError(
                "manifest is not valid JSON",
                path=manifest_path,
                byte_offset=exc.pos,
            ) from exc
    if manifest.get("version") != _VERSION:
        raise CorruptionError(
            "unsupported manifest version", path=manifest_path
        )

    config_fields = dict(manifest["config"])
    config_fields["extras"] = tuple(
        tuple(item) for item in config_fields.get("extras", [])
    )
    config = LSMConfig(**config_fields)
    tree = LSMTree(config, disk=disk, merge_operator=merge_operator)
    tree._next_seqno = int(manifest["next_seqno"])

    tables_dir = os.path.join(directory, "tables")
    for level_index, level_runs in enumerate(manifest["levels"]):
        level = Level(level_index, config.level_capacity_bytes(level_index))
        for run_tables in level_runs:
            tables = []
            for filename in run_tables:
                path = os.path.join(tables_dir, filename)
                try:
                    with open(path, "rb") as handle:
                        blob = handle.read()
                except OSError as exc:
                    raise CorruptionError(
                        f"manifest references missing table file {filename}",
                        path=path,
                    ) from exc
                entries, tombstones = _decode_table(blob, path=path)
                tables.append(
                    SSTable.build(
                        entries,
                        disk=tree.disk,
                        block_bytes=config.block_bytes,
                        fence_pointers=config.fence_pointers,
                        filter_bits_per_key=config.filter_bits_per_key,
                        charge_io=False,
                        range_tombstones=tombstones,
                    )
                )
            if tables:
                level.add_run_oldest(SortedRun(tables))
        tree.levels.append(level)
    return tree


def recover_full(
    config: Optional[LSMConfig],
    wal_dir: str,
    checkpoint_dir: str,
    disk: Optional[SimulatedDisk] = None,
    merge_operator: Optional["MergeOperator"] = None,
) -> LSMTree:
    """:meth:`LSMTree.recover` from the checkpoint in ``checkpoint_dir``."""
    return LSMTree.recover(
        config, wal_dir, disk, merge_operator, checkpoint_dir=checkpoint_dir
    )
