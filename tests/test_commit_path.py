"""Conformance table for the one commit path.

Every write verb commits a *group*: one WAL record, one sync, one hook
call with exactly that group, the entries made visible, a full buffer
rotated, one write-latency sample. The table below runs each verb in
both engine modes against the same checks, so a verb that grows its own
copy of the sequence again fails here first.

Recorded at ``62658be``, before ``LSMTree._commit`` existed (the parent
wrote the sequence out eight times): 44 of the 50 rows that run passed.
The six that did not:

* ``delete_range`` (both modes), ``apply_replicated`` (both modes) and
  ``txn_commit`` in background mode recorded no write-latency sample —
  every other check in their row held;
* a single-verb write was the removed ``{"k":…}`` single-entry line, not
  a group of one (the last golden-bytes row).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import pytest

from repro.core.config import LSMConfig
from repro.core.entry import Entry, EntryKind, put, tombstone
from repro.core.merge_operator import StringAppendOperator
from repro.core.tree import LSMTree
from repro.core.wal import WriteAheadLog
from repro.storage.disk import SimulatedDisk

TXN = 7
BATCH = [("put", "k", "v"), ("delete", "a", None), ("put", "k2", "v2")]
BATCH_KINDS = [EntryKind.PUT, EntryKind.DELETE, EntryKind.PUT]


def _replicated_group() -> List[Entry]:
    return [
        put("k", "v", 100, stamp_us=1.0),
        tombstone("a", 101, stamp_us=1.0),
        Entry("b", "c", 102, EntryKind.RANGE_DELETE, 1.0),
    ]


def _prepare_commit(tree: LSMTree) -> None:
    tree.txn_prepare(TXN, BATCH)
    tree.txn_commit(TXN)


def _prepare_abort(tree: LSMTree) -> None:
    tree.txn_prepare(TXN, BATCH)
    tree.txn_abort(TXN)


@dataclass
class Verb:
    name: str
    call: Callable[[LSMTree], None]
    kinds: List[EntryKind]
    #: Whether the call's effect is readable (``a`` and ``b`` hold "0"
    #: before the call, ``k`` and ``k2`` are absent).
    visible: Callable[[LSMTree], bool]
    counters: Dict[str, int] = field(default_factory=dict)
    #: "commit" / "abort" for the two-phase verbs.
    txn: Optional[str] = None
    #: A range tombstone is not held in the memtable, so it cannot push
    #: the active buffer over its size trigger.
    fills_buffer: bool = True


VERBS = [
    Verb(
        "put",
        lambda tree: tree.put("k", "v"),
        [EntryKind.PUT],
        lambda tree: tree.get("k") == "v",
        {"puts": 1},
    ),
    Verb(
        "delete",
        lambda tree: tree.delete("a"),
        [EntryKind.DELETE],
        lambda tree: tree.get("a") is None,
        {"deletes": 1},
    ),
    Verb(
        "single_delete",
        lambda tree: tree.single_delete("a"),
        [EntryKind.SINGLE_DELETE],
        lambda tree: tree.get("a") is None,
        {"single_deletes": 1},
    ),
    Verb(
        "merge",
        lambda tree: tree.merge("k", "v"),
        [EntryKind.MERGE],
        lambda tree: tree.get("k") == "v",
        {"merges": 1},
    ),
    Verb(
        "delete_range",
        lambda tree: tree.delete_range("a", "c"),
        [EntryKind.RANGE_DELETE],
        lambda tree: tree.get("a") is None and tree.get("b") is None,
        {"range_deletes": 1},
        fills_buffer=False,
    ),
    Verb(
        "write_batch",
        lambda tree: tree.write_batch(BATCH),
        BATCH_KINDS,
        lambda tree: tree.get("k") == "v" and tree.get("a") is None,
        {"puts": 2, "deletes": 1},
    ),
    Verb(
        "txn_commit",
        _prepare_commit,
        BATCH_KINDS,
        lambda tree: tree.get("k") == "v" and tree.get("a") is None,
        {"puts": 2, "deletes": 1},
        txn="commit",
    ),
    Verb(
        "txn_abort",
        _prepare_abort,
        [],
        lambda tree: tree.get("k") == "v" or tree.get("a") is None,
        txn="abort",
    ),
    Verb(
        "apply_replicated",
        lambda tree: tree.apply_replicated(_replicated_group()),
        [EntryKind.PUT, EntryKind.DELETE, EntryKind.RANGE_DELETE],
        lambda tree: tree.get("k") == "v"
        and tree.get("a") is None
        and tree.get("b") is None,
    ),
]

COUNTERS = ("puts", "deletes", "single_deletes", "merges", "range_deletes")


@pytest.fixture(params=["sync", "background"])
def make_tree(request, tmp_path):
    trees: List[LSMTree] = []

    def build(buffer_size_bytes: int = 1 << 20) -> LSMTree:
        background = request.param == "background"
        config = LSMConfig(
            buffer_size_bytes=buffer_size_bytes,
            target_file_bytes=512,
            block_bytes=256,
            background_mode=background,
            # Sync mode flushes inline once the queue holds num_buffers;
            # background mode needs a second buffer to write into.
            num_buffers=2 if background else 1,
        )
        tree = LSMTree(
            config,
            wal_dir=str(tmp_path),
            merge_operator=StringAppendOperator("|"),
        )
        trees.append(tree)
        tree.write_batch([("put", "a", "0"), ("put", "b", "0")])
        return tree

    yield build
    for tree in trees:
        tree.close()


def _line_count(path: str) -> int:
    with open(path, "rb") as handle:
        return len(handle.readlines())


def _replay(verb: Verb, path: str, skip: int) -> List[Entry]:
    committed = {TXN} if verb.txn == "commit" else None
    return list(WriteAheadLog.replay(path, committed))[skip:]


@pytest.mark.parametrize("verb", VERBS, ids=lambda verb: verb.name)
class TestCommitPath:
    def test_one_record_one_sync_one_hook_one_sample(self, verb, make_tree):
        tree = make_tree()
        groups: List[List[Entry]] = []
        tree.set_wal_commit_hook(groups.append)
        wal = tree._active_wal
        path = wal._path
        syncs, lines = wal.sync_count, _line_count(path)
        preloaded = len(list(WriteAheadLog.replay(path)))
        before = {name: getattr(tree.stats, name) for name in COUNTERS}
        user_bytes = tree.stats.user_bytes_written
        samples = len(tree.stats.write_latencies_us)

        verb.call(tree)

        assert tree._active_wal is wal  # nothing rotated: same segment
        assert wal.sync_count - syncs == 1
        assert _line_count(path) - lines == 1
        replayed = _replay(verb, path, preloaded)
        committed = verb.txn != "abort"
        assert groups == ([replayed] if committed else [])
        assert [entry.kind for entry in replayed] == verb.kinds
        assert wal.pending_entries[preloaded:] == replayed
        moved = {
            name: getattr(tree.stats, name) - before[name]
            for name in COUNTERS
            if getattr(tree.stats, name) != before[name]
        }
        assert moved == verb.counters
        assert tree.stats.user_bytes_written - user_bytes == sum(
            entry.size for entry in replayed
        )
        assert len(tree.stats.write_latencies_us) - samples == int(committed)
        assert verb.visible(tree) is committed

    def test_raising_hook_leaves_group_journaled(self, verb, make_tree):
        """A hook exception never un-commits the record. The group stays
        invisible until replay — except a decided transaction, which is
        applied first and the exception re-raised after."""
        if verb.txn == "abort":
            pytest.skip("an aborted group never reaches the hook")
        tree = make_tree()
        wal = tree._active_wal
        path = wal._path
        lines = _line_count(path)
        preloaded = len(list(WriteAheadLog.replay(path)))

        def explode(_entries):
            raise RuntimeError("ship failed")

        tree.set_wal_commit_hook(explode)
        with pytest.raises(RuntimeError, match="ship failed"):
            verb.call(tree)
        assert _line_count(path) - lines == 1
        replayed = _replay(verb, path, preloaded)
        assert [entry.kind for entry in replayed] == verb.kinds
        assert wal.pending_entries[preloaded:] == replayed
        assert verb.visible(tree) is (verb.txn == "commit")
        # The write mutex was released: the tree still takes writes.
        tree.set_wal_commit_hook(None)
        tree.put("after", "ok")
        assert tree.get("after") == "ok"

    def test_buffer_filling_call_rotates(self, verb, make_tree):
        if not verb.fills_buffer or verb.txn == "abort":
            pytest.skip("puts nothing in the memtable")
        tree = make_tree(buffer_size_bytes=1024)
        # With a and b flushed the memtable is empty, so every entry the
        # call adds grows it; the filler stops one byte short of the
        # trigger.
        tree.flush()
        rotations, flushes = tree._rotation_seq, tree.stats.flushes
        tree.put("fill", "x" * (1023 - len("fill") - 10))
        assert tree._active.size_bytes == 1023
        assert tree._rotation_seq == rotations
        kicks: List[int] = []
        if tree._background is not None:
            rotate = tree._background.rotate
            tree._background.rotate = lambda: (kicks.append(1), rotate())

        verb.call(tree)

        assert tree._rotation_seq == rotations + 1
        assert len(tree._active) == 0
        if tree._background is not None:
            assert kicks == [1]
            tree._background.wait_for_flushes()
        assert len(tree._immutable) < tree.config.num_buffers
        assert tree.stats.flushes == flushes + 1
        assert verb.visible(tree)


class TestGoldenBytes:
    """The record bytes the ledger's ``write_amp`` rests on, pinned as
    recorded at ``62658be``."""

    GROUP = [
        Entry("alpha", "café", 7, EntryKind.PUT, 12.5),
        Entry("beta", None, 8, EntryKind.DELETE, 12.5),
        Entry("b", "d", 9, EntryKind.RANGE_DELETE, 13.0),
    ]

    def test_group_and_prepare_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(SimulatedDisk(), path)
        wal.append_batch(self.GROUP)
        wal.append_prepare(42, self.GROUP[:2])
        wal.close()
        with open(path, "rb") as handle:
            assert handle.read() == (
                b'4c1ddf42,{"g":[["alpha","caf\\u00e9",7,0,12.5],'
                b'["beta",null,8,1,12.5],["b","d",9,4,13.0]]}\n'
                b'49278345,{"p":42,"g":[["alpha","caf\\u00e9",7,0,12.5],'
                b'["beta",null,8,1,12.5]]}\n'
            )

    def test_single_verb_writes_a_group_of_one(self, tmp_path):
        tree = LSMTree(LSMConfig(), wal_dir=str(tmp_path))
        tree.put("alpha", "one")
        tree.close()
        (name,) = os.listdir(tmp_path)
        with open(tmp_path / name, "rb") as handle:
            record = handle.read()
        assert record.endswith(b',{"g":[["alpha","one",0,0,0.0]]}\n')
