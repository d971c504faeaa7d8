"""Checkpoint/restore: durable snapshots of the tree's on-disk state.

The WAL (:mod:`repro.core.wal`) covers the *buffered* entries; this module
covers the rest of a restart: serializing every SSTable and the level
manifest to real files and rebuilding the tree from them. Together they
give the engine the full durability story a production store has —
checkpoint + WAL replay == crash recovery.

On-disk layout of a checkpoint directory::

    MANIFEST.json          # config, seqno high-water mark, level structure
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
from ..core.wal import WriteAheadLog
from ..errors import CorruptionError
from ..faults.registry import fault_point
from .disk import SimulatedDisk

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

    The active and immutable buffers are flushed first so the checkpoint
    plus an empty WAL is the complete database. Returns a small summary
    (tables and bytes written) for logging.

    Crash-safe ordering: each SSTable is written to a ``.tmp`` file and
    atomically renamed; the manifest referencing them is committed last,
    also via tmp+rename; only then are checkpoint-covered WAL segments
    pruned (with ``wal_preserve_segments``). A crash anywhere leaves
    either the previous checkpoint fully intact or the new one fully
    committed — never a manifest pointing at missing tables, never a
    pruned segment that the surviving manifest does not cover. Stale
    ``.tmp`` files from an earlier crashed checkpoint are cleared first,
    and ``.sst`` files the committed manifest does not name after it.
    """
    tree.flush()
    tables_dir = os.path.join(directory, "tables")
    os.makedirs(tables_dir, exist_ok=True)
    _clear_stale_temporaries(directory, tables_dir)

    table_count = 0
    byte_count = 0
    manifest_levels = []
    for level in tree.levels:
        level_runs = []
        for run in level.runs:
            run_tables = []
            for table in run.tables:
                filename = f"{table.table_id}.sst"
                blob = _encode_table(table)
                final_path = os.path.join(tables_dir, filename)
                temporary = final_path + ".tmp"
                with open(temporary, "wb") as handle:
                    handle.write(blob)
                fault_point(
                    "ckpt.table.tmp", path=temporary, tail_bytes=len(blob)
                )
                os.replace(temporary, final_path)
                fault_point("ckpt.table.done", path=final_path)
                run_tables.append(filename)
                table_count += 1
                byte_count += len(blob)
            level_runs.append(run_tables)
        manifest_levels.append(level_runs)

    manifest = {
        "version": _VERSION,
        "config": dataclasses.asdict(tree.config),
        "next_seqno": tree.seqno,
        "now_us": tree.disk.now_us,
        "levels": manifest_levels,
    }
    manifest_path = os.path.join(directory, "MANIFEST.json")
    temporary = manifest_path + ".tmp"
    blob = json.dumps(manifest)
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(blob)
    fault_point("ckpt.manifest.tmp", path=temporary, tail_bytes=len(blob))
    os.replace(temporary, manifest_path)  # atomic commit of the checkpoint
    fault_point("ckpt.manifest.done", path=manifest_path)
    live = {name for runs in manifest_levels for run in runs for name in run}
    for name in os.listdir(tables_dir):
        if name.endswith(".sst") and name not in live:
            os.remove(os.path.join(tables_dir, name))  # no manifest names it
    _prune_wal_segments(tree)
    return {"tables": table_count, "bytes": byte_count}


def _prune_wal_segments(tree: LSMTree) -> None:
    """Delete WAL segments a just-committed checkpoint fully covers.

    Only preserved (already-flushed) segments qualify — the active
    segment backs the post-checkpoint writes and always survives. Runs
    after the manifest rename, so a crash mid-prune leaves extra
    segments whose replay is idempotent (their entries' seqnos are below
    the manifest's ``next_seqno`` and are filtered on recovery).
    """
    for path in tree.flushed_wal_segments():
        fault_point("ckpt.wal_prune", path=path)
        if os.path.exists(path):
            os.remove(path)


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
    """Full restart: latest committed checkpoint plus WAL replay.

    The complete crash-recovery path the consistency sweep exercises:

    1. If ``checkpoint_dir`` holds a committed ``MANIFEST.json``, restore
       it (the manifest's stored config is authoritative; ``config`` is
       only used when no checkpoint exists). The manifest's
       ``next_seqno`` is the high-water mark the checkpoint *covers*.
    2. Replay every WAL segment in ``wal_dir``, re-journaling group by
       group into a fresh segment and skipping entries the checkpoint
       already covers — so replaying segments an interrupted prune left
       behind is idempotent.

    Old segments are not deleted here; the next :func:`checkpoint` prunes
    them once its manifest covers their entries. Recovery itself is
    therefore repeatable: crashing *during* recovery and recovering again
    reaches the same state.
    """
    manifest_path = os.path.join(checkpoint_dir, "MANIFEST.json")
    if not os.path.exists(manifest_path):
        # No committed checkpoint: the WAL is the whole database. (A
        # MANIFEST.json.tmp from a crashed first checkpoint is
        # uncommitted by definition and deliberately ignored.)
        return LSMTree.recover(
            config, wal_dir, disk=disk, merge_operator=merge_operator
        )
    tree = restore(checkpoint_dir, disk=disk, merge_operator=merge_operator)
    covered = tree.seqno
    segments = sorted(
        name
        for name in os.listdir(wal_dir)
        if name.startswith("wal.") and name.endswith(".log")
    )
    tree.attach_wal_dir(wal_dir)
    for name in segments:
        for group in WriteAheadLog.replay_groups(os.path.join(wal_dir, name)):
            tree.apply_replicated(
                [entry for entry in group if entry.seqno >= covered]
            )
    return tree
