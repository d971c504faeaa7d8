"""Write-ahead log: durability for the memory buffer.

Batched ingestion (§2.1.1-A) keeps the newest entries only in memory, so
every production LSM engine pairs the buffer with a write-ahead log. This
WAL appends one record per commit group, charges the simulated device for
sequential log pages (so write amplification accounts for the log), and
can optionally mirror records to a real file for crash-recovery tests.

File format (one record per line)::

    <crc32 hex>,<json payload>\n

There is one record kind, the *group record* —
``crc,{"g":[[k,v,s,t,u], ...]}`` — a single line, encoded with a single
``json.dumps``, checksummed with one whole-buffer ``zlib.crc32``, and
written with one file write; a single write is a group of one. A
two-phase-commit PREPARE is the same record tagged with its transaction
id (``crc,{"p":txn,"g":[...]}``). Besides amortizing the per-record
encode cost (the hot-path batching lever from Luo & Carey's ingestion
analysis), the one-line group is atomic under recovery for free: a torn
group (crash before its single sync) is one torn line, discarded whole,
never replayed partially.

One reader (:func:`_read_log`) serves this log and the coordinator's
:class:`TxnDecisionLog`. It reads bytes and checks each record's CRC
over the raw payload, so bytes that are not UTF-8 are damage to the one
record that holds them. It tolerates a torn tail — the unparseable
suffix a crash mid-append leaves behind, including trailing garbage
after the tear — but treats damage followed by any valid record as
fatal, mirroring the usual WAL contract.

Durability contract (fsyncgate semantics): an entry only joins
:attr:`WriteAheadLog.pending_entries` — i.e. is only *acknowledged* —
after its sync succeeds. A flush that keeps failing (bounded retry) or a
failed ``fsync`` poisons the segment: the failed write is not acked, and
every later append raises :class:`~repro.errors.DurabilityError`, because
after one failed sync the OS may have dropped the dirty pages and the
segment tail can no longer be trusted.

The failpoints declared here (``wal.batch.start``, ``wal.batch.written``,
``txn.prepare.record``, ``wal.sync``, ``wal.fsync``, ``txn.rollforward``,
``txn.decide.start``, ``txn.decide``) are catalogued in
:mod:`repro.faults.registry` and exercised by the crash-consistency
sweep.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Callable, Iterator, List, Optional, Tuple, TypeVar

from ..errors import ClosedError, CorruptionError, DurabilityError
from ..faults.registry import fault_point
from ..storage.disk import SimulatedDisk
from .entry import Entry, EntryKind

#: Transient flush failures tolerated per sync before the segment is
#: declared poisoned (bounded retry for flaky-I/O injection).
SYNC_RETRIES = 3

#: Post-commit hook signature: one call per acknowledged commit group.
CommitHook = Callable[[List["Entry"]], None]

#: Durability syscall for acknowledged commits. ``fdatasync`` flushes the
#: data plus the metadata needed to retrieve it (the size, for appends)
#: while skipping unrelated inode updates — same crash guarantee as
#: ``fsync`` for an append-only log, measurably cheaper on ext4.
_datasync = getattr(os, "fdatasync", os.fsync)

_Record = TypeVar("_Record")


def _frame(payload: str) -> str:
    """One log line: the payload behind its CRC-32."""
    return f"{zlib.crc32(payload.encode('utf-8')):08x},{payload}\n"


def _encode_group(entries: List[Entry], txn_id: Optional[int] = None) -> str:
    """Encode a whole commit group as one record.

    One ``json.dumps`` and one whole-buffer ``zlib.crc32`` for N entries.
    With ``txn_id`` the record is a two-phase-commit PREPARE
    (``{"p":txn,"g":[...]}``): same one-line atomicity, but replay
    applies it only when the coordinator's decision log says the
    transaction committed.
    """
    fields: dict = {} if txn_id is None else {"p": txn_id}
    fields["g"] = [
        [entry.key, entry.value, entry.seqno, int(entry.kind), entry.stamp_us]
        for entry in entries
    ]
    return _frame(json.dumps(fields, separators=(",", ":")))


def _decode_group(fields) -> Tuple[Optional[int], List[Entry]]:
    """Inverse of :func:`_encode_group`: ``(txn id or None, entries)``."""
    entries = [
        Entry(
            key=key,
            value=value,
            seqno=seqno,
            kind=EntryKind(kind),
            stamp_us=stamp_us,
        )
        for key, value, seqno, kind, stamp_us in fields["g"]
    ]
    return (int(fields["p"]) if "p" in fields else None), entries


def _read_log(
    path: str, what: str, decode: Callable[[object], _Record]
) -> Iterator[_Record]:
    """Yield the decoded records of a framed log file, oldest first.

    Owns the checksum check and the torn-tail rule for both logs. A line
    is damaged when it has no checksum, fails it, or does not ``decode``
    (which raises ``KeyError`` / ``TypeError`` / ``ValueError`` on
    payload it does not know). Damage is tolerated when no valid record
    follows it: that is a crash tail — a torn final record, optionally
    followed by more garbage lines — and the log ends before it. Damage
    *followed by a valid record* is not a crash artifact and raises the
    first damaged record's :class:`~repro.errors.CorruptionError`, with
    the file path, record index and byte offset, once that valid record
    is reached. A missing file is an empty log.
    """

    def parse(line: bytes, **where) -> _Record:
        crc_hex, separator, payload = line.rstrip(b"\n").partition(b",")
        if not separator:
            raise CorruptionError(
                f"{what} record missing checksum separator", **where
            )
        try:
            expected = int(crc_hex, 16)
        except ValueError as exc:
            raise CorruptionError(
                f"{what} record has malformed checksum", **where
            ) from exc
        actual = zlib.crc32(payload)
        if actual != expected:
            raise CorruptionError(
                f"{what} record failed checksum",
                expected_crc=expected,
                actual_crc=actual,
                **where,
            )
        try:
            return decode(json.loads(payload.decode("utf-8")))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptionError(
                f"{what} record failed to decode", **where
            ) from exc

    if not os.path.exists(path):
        return
    damage: Optional[CorruptionError] = None
    offset = 0
    with open(path, "rb") as handle:
        for index, line in enumerate(handle):
            try:
                record = parse(
                    line, path=path, record_index=index, byte_offset=offset
                )
            except CorruptionError as exc:
                damage = damage or exc
            else:
                if damage is not None:
                    raise damage
                yield record
            offset += len(line)


class WriteAheadLog:
    """Sequential log of not-yet-flushed entries.

    Args:
        disk: Simulated device charged for log pages as records accumulate.
            Appends are buffered: a page write is charged each time the
            pending bytes cross a page boundary, modeling group commit.
        path: Optional real file to mirror records into, enabling
            :meth:`replay` after a simulated crash. ``None`` keeps the log
            purely in memory (the common case for experiments). The file
            is opened line-buffered, so every completed record reaches the
            OS as soon as it is written — the crash model is "everything
            written survives a process death; fsync decides what survives
            power loss".
        fsync: When mirroring to a real file, also ``os.fsync`` it on
            every sync. This is the durability cost group commit exists
            to amortize: one fsync per :meth:`append_batch` instead of
            one per write.
        on_commit: Post-commit hook called with the list of entries of
            each successful :meth:`append_batch` (or settled
            :meth:`commit_prepared`) —
            after the record bytes are written *and* the sync succeeded,
            i.e. with exactly the records the durability contract has
            acknowledged. This is the WAL-shipping tap replication uses:
            one call per commit group, so the group can be re-applied
            atomically on a replica. A hook exception propagates to the
            writer (sync replication surfaces its ack failure here) but
            never un-commits the local records: they stay in the log and
            in :attr:`pending_entries`. Whether they are *visible* is
            the caller's business — :meth:`LSMTree.txn_commit
            <repro.core.tree.LSMTree.txn_commit>` applies a decided
            group and then re-raises, while every other write lets the
            exception skip the memtable insert, so such a write is
            durable but unreadable until the log is replayed.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        path: Optional[str] = None,
        fsync: bool = False,
        on_commit: Optional[CommitHook] = None,
    ) -> None:
        self._disk = disk
        self._path = path
        self._fsync = fsync
        self.on_commit = on_commit
        self._pending: List[Entry] = []
        self._prepared: "dict[int, List[Entry]]" = {}
        self._unaccounted_bytes = 0
        self._closed = False
        self._poison_cause: Optional[BaseException] = None
        self._file = (
            open(path, "a", encoding="utf-8", buffering=1) if path else None
        )
        #: File flushes performed so far (0 for in-memory logs): one per
        #: journaled group, however many entries it holds — the
        #: observable benefit of group commit.
        self.sync_count = 0
        #: Failed flush attempts that were retried (transient-I/O events).
        self.sync_retries = 0

    @property
    def pending_entries(self) -> List[Entry]:
        """Entries *acknowledged* since the last :meth:`reset` (oldest
        first). An entry joins this list only after its sync succeeded; a
        write whose sync failed is absent, by the durability contract."""
        return list(self._pending)

    @property
    def poisoned(self) -> bool:
        """Whether a failed sync has poisoned this segment."""
        return self._poison_cause is not None

    def _check_writable(self) -> None:
        if self._closed:
            raise ClosedError("WAL is closed")
        if self._poison_cause is not None:
            raise DurabilityError(
                f"WAL segment poisoned by an earlier failed sync"
                f" ({self._path})"
            ) from self._poison_cause

    def _charge(self, nbytes: int) -> None:
        self._unaccounted_bytes += nbytes
        page = self._disk.page_size
        while self._unaccounted_bytes >= page:
            self._disk.write(page, cause="wal")
            self._unaccounted_bytes -= page

    def _journal(
        self, entries: List[Entry], txn_id: Optional[int] = None
    ) -> None:
        """Write one group record and sync it — the only way bytes enter
        the segment. Nothing is acknowledged here."""
        record = _encode_group(entries, txn_id)
        if self._file is not None:
            fault_point("wal.batch.start", path=self._path)
            self._file.write(record)
            fault_point(
                "wal.batch.written" if txn_id is None else "txn.prepare.record",
                path=self._path,
                tail_bytes=len(record),
                handle=self._file,
            )
            self._sync()
        self._charge(len(record))

    def _acknowledge(self, entries: List[Entry]) -> None:
        """A journaled group becomes committed: it joins
        :attr:`pending_entries` and the :attr:`on_commit` hook fires."""
        self._pending.extend(entries)
        if self.on_commit is not None:
            self.on_commit(list(entries))

    def append_batch(self, entries: List[Entry]) -> None:
        """Durably record a commit group with a single log flush.

        The group-commit primitive, batched end to end: the whole group
        is encoded as one record (one ``json.dumps`` + one whole-buffer
        CRC), written with one file write, and the backing file (when
        present) is flushed exactly once — N concurrent writers coalesced
        into one batch pay one encode, one write syscall, and one sync
        instead of N of each. The single-line group record is atomic
        under recovery: replay yields all N entries or none. Device
        accounting charges the group record's actual bytes — the log is
        sequential either way; only the per-batch costs change.
        """
        self._check_writable()
        if not entries:
            return
        self._journal(entries)
        self._acknowledge(entries)

    def append_prepare(self, txn_id: int, entries: List[Entry]) -> None:
        """Durably record a commit group *without* acknowledging it.

        The first phase of two-phase commit: the group's bytes and sync
        cost are those of :meth:`append_batch`, but the entries do
        not join :attr:`pending_entries` and the :attr:`on_commit` hook
        does not fire — the group is not committed until the coordinator
        decides, at which point :meth:`commit_prepared` (or
        :meth:`abort_prepared`) settles it. Replay skips a prepared
        group unless told its transaction committed.
        """
        self._check_writable()
        if not entries:
            return
        self._journal(entries, txn_id)
        self._prepared[txn_id] = list(entries)

    def commit_prepared(self, txn_id: int) -> List[Entry]:
        """Settle a prepared group as committed: the entries become
        acknowledged (join :attr:`pending_entries`) and the
        :attr:`on_commit` hook fires with the group — exactly the
        observable effects a direct :meth:`append_batch` would have had.
        The commit *decision* is durable in the coordinator's log, not
        here; this segment already holds the group's bytes."""
        entries = self._prepared.pop(txn_id)
        self._acknowledge(entries)
        return entries

    def abort_prepared(self, txn_id: int) -> None:
        """Settle a prepared group as rolled back: it is never
        acknowledged. The PREPARE record stays in the file; replay
        discards it for lack of a commit decision."""
        self._prepared.pop(txn_id, None)

    def _sync(self) -> None:
        """One log sync: flush (and optionally fsync) the backing file.

        A transient flush failure is retried up to :data:`SYNC_RETRIES`
        times; exhausted retries — or any ``fsync`` failure, which is
        never retried (fsyncgate: a failed fsync may have dropped the
        dirty pages, so retrying can silently succeed on lost data) —
        poison the segment and raise
        :class:`~repro.errors.DurabilityError`.
        """
        error: Optional[OSError] = None
        for _attempt in range(1 + SYNC_RETRIES):
            try:
                fault_point("wal.sync", path=self._path)
                self._file.flush()
                error = None
                break
            except OSError as exc:
                error = exc
                self.sync_retries += 1
        if error is not None:
            self._poison(error)
        if self._fsync:
            try:
                fault_point("wal.fsync", path=self._path)
                _datasync(self._file.fileno())
            except OSError as exc:
                self._poison(exc)
        self.sync_count += 1

    def _poison(self, cause: OSError) -> None:
        self._poison_cause = cause
        raise DurabilityError(
            f"WAL sync failed; segment poisoned ({self._path})"
        ) from cause

    def reset(self) -> None:
        """Discard the log after its entries were flushed to an SSTable.

        Truncating gives the segment a fresh file, which also clears any
        sync poison: the untrustworthy tail is gone.
        """
        if self._closed:
            raise ClosedError("WAL is closed")
        self._pending.clear()
        self._prepared.clear()
        self._unaccounted_bytes = 0
        if self._file is not None and self._path is not None:
            self._file.close()
            self._file = open(self._path, "w", encoding="utf-8", buffering=1)
        self._poison_cause = None

    def close(self) -> None:
        """Close the backing file, if any. Idempotent."""
        if self._file is not None:
            self._file.close()
            self._file = None
        self._closed = True

    @staticmethod
    def replay_groups(
        path: str, committed_txns: "Optional[set] | frozenset" = None
    ) -> Iterator[List[Entry]]:
        """Yield the commit groups recorded in a WAL file, oldest first.

        Read under the torn-tail rule of :func:`_read_log`: a torn
        final group record is discarded whole, preserving batch
        atomicity.

        PREPARE records (two-phase commit) follow presumed-abort: a
        prepared group is replayed — rolled *forward* — only when its
        transaction id is in ``committed_txns`` (the decisions recovered
        from the coordinator's :class:`TxnDecisionLog`); any prepared
        group without a durable commit decision is rolled *back* by
        simply not replaying it.
        """
        for txn_id, entries in _read_log(path, "WAL", _decode_group):
            if txn_id is None:
                yield entries
            elif committed_txns and txn_id in committed_txns:
                # Roll forward: the coordinator's COMMIT decision is
                # durable, so the group is as good as committed.
                fault_point("txn.rollforward", path=path)
                yield entries
            # else roll back (presumed abort): no durable decision, the
            # group was never acknowledged anywhere.

    @staticmethod
    def replay(
        path: str, committed_txns: "Optional[set] | frozenset" = None
    ) -> Iterator[Entry]:
        """Yield the entries recorded in a WAL file, oldest first: the
        flattened view of :meth:`replay_groups`."""
        for group in WriteAheadLog.replay_groups(path, committed_txns):
            yield from group


#: Canonical file name of a store's coordinator decision log (it lives
#: beside the store manifest in the WAL directory).
TXN_LOG_NAME = "txn.log"

#: Decision codes recorded by the coordinator.
TXN_COMMIT = "c"
TXN_ABORT = "a"


class TxnDecisionLog:
    """Coordinator journal for cross-shard two-phase commits.

    One line per decided transaction — ``crc,{"x":txn_id,"d":"c"|"a"}``
    — appended *after* every participant shard's PREPARE record is
    durable and *before* any shard applies its sub-batch. That ordering
    is the whole protocol: recovery replays this log first, then hands
    the committed-transaction set to each shard's WAL replay, which
    rolls a prepared group forward exactly when a durable COMMIT
    decision exists and rolls it back otherwise (presumed abort). A
    torn decision record therefore aborts its transaction — the crash
    happened inside the decision write, so no shard can have applied
    anything yet.

    The log is append-only and tiny (one short line per *multi-shard*
    batch; single-shard batches never touch it), so it is never
    truncated or rotated.
    """

    def __init__(self, path: str, fsync: bool = False) -> None:
        self._path = path
        self._fsync = fsync
        self._decisions = self.replay(path)
        self._next_txn = max(self._decisions, default=0) + 1
        self._file = open(path, "a", encoding="utf-8", buffering=1)
        self._closed = False

    @property
    def path(self) -> str:
        return self._path

    def next_txn_id(self) -> int:
        """Allocate a fresh transaction id (caller holds the store's
        transaction lock, so allocation needs no lock of its own)."""
        txn_id = self._next_txn
        self._next_txn = txn_id + 1
        return txn_id

    def append(self, txn_id: int, decision: str) -> None:
        """Durably record the coordinator's verdict for ``txn_id``.

        The write is the transaction's commit point: once this record
        survives a crash, recovery rolls the transaction forward; a
        crash before (or tearing) it rolls the transaction back.
        """
        if self._closed:
            raise ClosedError("txn decision log is closed")
        if decision not in (TXN_COMMIT, TXN_ABORT):
            raise ValueError(f"unknown txn decision {decision!r}")
        record = _frame(
            json.dumps({"x": txn_id, "d": decision}, separators=(",", ":"))
        )
        fault_point("txn.decide.start", path=self._path)
        self._file.write(record)
        fault_point(
            "txn.decide",
            path=self._path,
            tail_bytes=len(record),
            handle=self._file,
        )
        try:
            self._file.flush()
            if self._fsync:
                _datasync(self._file.fileno())
        except OSError as exc:
            raise DurabilityError(
                f"txn decision log sync failed ({self._path})"
            ) from exc
        self._decisions[txn_id] = decision

    def decision(self, txn_id: int) -> Optional[str]:
        return self._decisions.get(txn_id)

    def close(self) -> None:
        """Close the backing file. Idempotent."""
        if self._file is not None:
            self._file.close()
            self._file = None  # type: ignore[assignment]
        self._closed = True

    @staticmethod
    def replay(path: str) -> "dict[int, str]":
        """Recover ``{txn_id: decision}`` from a decision log.

        A torn final record is the signature of a crash mid-decision and
        means that transaction aborted — it is simply absent from the
        result. Corruption followed by a valid record raises
        :class:`~repro.errors.CorruptionError`, like WAL replay.
        """
        return dict(
            _read_log(
                path,
                "txn decision",
                lambda fields: (int(fields["x"]), str(fields["d"])),
            )
        )
