"""The LSM tree: orchestration of every component (§2.1).

:class:`LSMTree` wires together the memory buffers (§2.1.1-A), write-ahead
logging, flushing and compaction (§2.1.2), the auxiliary read structures
(§2.1.3), and the statistics that expose the performance space (§2.3). All
I/O flows through one :class:`~repro.storage.disk.SimulatedDisk`, so every
experiment can read write/read/space amplification directly off the tree.

By default the engine is synchronous: flushes and compactions run inline
and their simulated time is charged to the triggering write, which is
precisely how write stalls manifest (§2.2.3) and what experiment E13's
scheduler simulation then relaxes. With
``LSMConfig(background_mode=True)`` they instead run on worker threads
(:mod:`repro.concurrency`): writers only pay WAL + buffer time plus
explicit backpressure, and reads snapshot the tree's structure under the
manifest lock so they never block behind a running compaction.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from contextlib import nullcontext
from typing import ContextManager, Dict, Iterator, List, Optional, Tuple

from ..compaction.executor import CompactionExecutor
from ..compaction.layouts import make_layout
from ..compaction.picker import make_picker
from ..compaction.planner import CompactionPlanner, last_data_level
from ..concurrency import BackgroundCoordinator, ImmutableBuffer
from ..cost.allocation import monkey_bits_per_key
from ..errors import (
    BackgroundError,
    ClosedError,
    ConfigError,
    SnapshotExpiredError,
)
from ..faults.registry import fault_point
from ..filters.bloom import key_digest
from ..storage.block_cache import BlockCache, HeatTracker
from ..storage.disk import SimulatedDisk
from .config import LSMConfig
from .entry import Entry, EntryKind
from .level import Level
from .memtable import LockedMemTable, MemTable, make_memtable
from .merge_operator import MergeOperator
from .range_tombstone import RangeTombstone, dedupe, max_covering_seqno
from .run import SortedRun
from .sstable import ReadContext, SSTable
from .stats import TreeStats
from .wal import CommitHook, WriteAheadLog

#: Overwritten versions kept alive for open snapshots before the tree
#: gives up and expires them (honest degradation beats unbounded memory).
_SNAPSHOT_PIN_CAP = 8192

#: What :meth:`LSMTree._manifest` hands out in synchronous mode.
_NO_LOCK = nullcontext()


def _segment_names(wal_dir: str) -> List[str]:
    """The WAL segment file names in ``wal_dir``, oldest first."""
    return sorted(
        name
        for name in os.listdir(wal_dir)
        if name.startswith("wal.") and name.endswith(".log")
    )


class LSMTree:
    """A log-structured merge tree over a simulated disk.

    Args:
        config: Tuning knobs; defaults to :class:`LSMConfig`'s defaults.
        disk: Device to charge; a fresh SSD-profile disk when omitted.
        wal_dir: Directory for real WAL segment files. ``None`` (default)
            keeps the log in memory only — I/O accounting is identical, but
            :meth:`recover` needs a real directory.

    Example:
        >>> tree = LSMTree()
        >>> tree.put("user42", "hello")
        >>> tree.get("user42")
        'hello'
        >>> tree.delete("user42")
        >>> tree.get("user42") is None
        True
    """

    def __init__(
        self,
        config: Optional[LSMConfig] = None,
        disk: Optional[SimulatedDisk] = None,
        wal_dir: Optional[str] = None,
        merge_operator: Optional[MergeOperator] = None,
    ) -> None:
        self.config = config or LSMConfig()
        self.config.validate()
        self.disk = disk or SimulatedDisk()
        self.stats = TreeStats()
        self.cache: Optional[BlockCache] = (
            BlockCache(self.config.block_cache_bytes)
            if self.config.block_cache_bytes > 0
            else None
        )
        self.heat: Optional[HeatTracker] = (
            HeatTracker() if self.config.cache_prefetch else None
        )
        self.layout = make_layout(self.config)
        self.picker = make_picker(self.config.picker)
        self.planner = CompactionPlanner(self.config, self.layout, self.picker)
        self.merge_operator = merge_operator
        self.executor = CompactionExecutor(
            self.config,
            self.disk,
            self.stats,
            self.cache,
            self.heat,
            merge_operator=merge_operator,
        )
        if self.config.filter_allocation == "monkey":
            self.executor.bits_for_level = self._monkey_bits_for_level
        self.levels: List[Level] = []
        self._wal_dir = wal_dir
        self._wal_segment_id = 0
        #: Serializes writers: seqno claim + WAL append + buffer insert are
        #: one atomic step. Uncontended (and therefore cheap) in sync mode.
        self._write_mutex = threading.RLock()
        self._rotation_seq = 0
        #: Post-commit tap installed by replication (see
        #: :meth:`set_wal_commit_hook`); threaded into every WAL segment.
        self._wal_commit_hook: Optional[CommitHook] = None
        self._active: MemTable = self._make_buffer()
        self._active_wal = self._new_wal_segment()
        #: Range tombstones issued against the active buffer (flushed with
        #: it; the memtable itself holds only point entries).
        self._active_tombstones: List[RangeTombstone] = []
        #: Immutable (rotated) buffers awaiting flush, oldest first.
        self._immutable: List[ImmutableBuffer] = []
        self._next_seqno = 0
        #: Prepared-but-undecided two-phase-commit groups, by txn id.
        self._pending_txns: Dict[int, List[Entry]] = {}
        #: Active snapshot seqnos -> refcount (guarded by the write mutex).
        self._snapshots: Dict[int, int] = {}
        #: Versions an in-buffer overwrite dropped while a snapshot still
        #: needed them (cleared when the last snapshot is released).
        self._pinned: List[Entry] = []
        #: Oldest seqno still consistently readable via ``at=``; reads
        #: below it raise SnapshotExpiredError. Bumped when a compaction
        #: may have dropped superseded versions or the pin cap is hit.
        self._snap_floor = -1
        self._closed = False
        #: Worker threads for flush/compaction; ``None`` in sync mode.
        #: Created last — workers see a fully constructed tree.
        self._background: Optional[BackgroundCoordinator] = (
            BackgroundCoordinator(self) if self.config.background_mode else None
        )

    # ------------------------------------------------------------------
    # external operations (§2.1.2): put / get / scan / delete
    # ------------------------------------------------------------------

    def put(self, key: str, value: str) -> None:
        """Insert or update ``key`` out-of-place (§2.1.1-B)."""
        if not key:
            raise ValueError("keys must be non-empty")
        if value is None:
            raise ValueError("use delete() to remove a key")
        self._before_write()
        with self._write_mutex:
            entry = Entry(
                key,
                value,
                self._claim_seqno(),
                EntryKind.PUT,
                self.disk.now_us,
            )
            self.stats.incr("puts")
            self._commit([entry])

    def delete(self, key: str) -> None:
        """Logically delete ``key`` by inserting a tombstone (§2.1.2)."""
        if not key:
            raise ValueError("keys must be non-empty")
        self._before_write()
        with self._write_mutex:
            entry = Entry(
                key,
                None,
                self._claim_seqno(),
                EntryKind.DELETE,
                self.disk.now_us,
            )
            self.stats.incr("deletes")
            self._commit([entry])

    def single_delete(self, key: str) -> None:
        """Single-delete: for keys written at most once (§2.3.3).

        The tombstone annihilates with the first matching older entry it is
        compacted with, rather than surviving to the bottom level.
        """
        if not key:
            raise ValueError("keys must be non-empty")
        self._before_write()
        with self._write_mutex:
            entry = Entry(
                key,
                None,
                self._claim_seqno(),
                EntryKind.SINGLE_DELETE,
                self.disk.now_us,
            )
            self.stats.incr("single_deletes")
            self._commit([entry])

    def merge(self, key: str, operand: str) -> None:
        """Read-modify-write without the read (§2.2.6): append an operand.

        Requires a :class:`~repro.core.merge_operator.MergeOperator` to have
        been passed at construction; the engine folds operands into the base
        value lazily at read and compaction time. Within the active buffer,
        operands are combined eagerly so the buffer keeps one entry per key.
        """
        if not key:
            raise ValueError("keys must be non-empty")
        if self.merge_operator is None:
            raise ConfigError(
                "merge() requires a merge_operator at tree construction"
            )
        self._before_write()
        with self._write_mutex:
            self._merge_locked(key, operand)

    def _merge_locked(self, key: str, operand: str) -> None:
        """The read-combine-write of :meth:`merge`, under the write mutex
        so the buffered-entry read and the write are one atomic step."""
        seqno = self._claim_seqno()
        now = self.disk.now_us
        buffered = self._active.get(key)
        if buffered is not None and buffered.seqno <= max_covering_seqno(
            self._active_tombstones, key
        ):
            # A newer range tombstone shadows the buffered entry; combining
            # with it would resurrect deleted state. Start from an empty
            # base, exactly as the buffered point-tombstone branch does.
            # (Tombstones newer than an active-buffer entry can only live
            # in _active_tombstones: rotation moves both together.)
            entry = Entry(
                key,
                self.merge_operator.full_merge(key, None, [operand]),
                seqno,
                EntryKind.PUT,
                now,
            )
        elif buffered is None:
            entry = Entry(key, operand, seqno, EntryKind.MERGE, now)
        elif buffered.kind is EntryKind.PUT:
            entry = Entry(
                key,
                self.merge_operator.full_merge(key, buffered.value, [operand]),
                seqno,
                EntryKind.PUT,
                now,
            )
        elif buffered.kind is EntryKind.MERGE:
            combined = self.merge_operator.partial_merge(
                key, [buffered.value, operand]  # type: ignore[list-item]
            )
            if combined is None:
                raise ConfigError(
                    "merge operators used with this engine must implement "
                    "partial_merge"
                )
            entry = Entry(key, combined, seqno, EntryKind.MERGE, now)
        else:  # buffered tombstone: merge starts from an empty base
            entry = Entry(
                key,
                self.merge_operator.full_merge(key, None, [operand]),
                seqno,
                EntryKind.PUT,
                now,
            )
        self.stats.incr("merges")
        self._commit([entry])

    def write_batch(
        self, ops: List[Tuple[str, str, Optional[str]]]
    ) -> None:
        """Apply several writes as one atomic group commit (§2.1.1-A).

        ``ops`` is a list of ``(op, key, value)`` tuples where ``op`` is
        ``"put"`` (value required) or ``"delete"`` (value ignored). The
        whole batch claims consecutive sequence numbers under one
        acquisition of the write mutex and is journaled with a single
        WAL flush (:meth:`~repro.core.wal.WriteAheadLog.append_batch`),
        which is the engine-side half of the server's group commit. The
        batch is validated up front: a malformed op raises ``ValueError``
        before any entry is applied.
        """
        if not ops:
            return
        normalized = self._normalize_batch(ops)
        self._before_write()
        with self._write_mutex:
            entries = self._claim_batch(normalized)
            self._count_batch(entries)
            self._commit(entries)

    def _claim_batch(
        self, normalized: List[Tuple[EntryKind, str, Optional[str]]]
    ) -> List[Entry]:
        """Entries for a validated batch: one clock read and one seqno
        range claim for the whole batch instead of per entry. Caller
        holds the write mutex."""
        stamp = self.disk.now_us
        first_seqno = self._next_seqno
        self._next_seqno = first_seqno + len(normalized)
        return [
            Entry(key, value, first_seqno + offset, kind, stamp)
            for offset, (kind, key, value) in enumerate(normalized)
        ]

    def _count_batch(self, entries: List[Entry]) -> None:
        """Count a batch's verbs (batches hold puts and deletes only)."""
        put = EntryKind.PUT  # one enum-member lookup, not one per entry
        put_count = sum(1 for entry in entries if entry.kind is put)
        if put_count:
            self.stats.incr("puts", put_count)
        if put_count != len(entries):
            self.stats.incr("deletes", len(entries) - put_count)

    @staticmethod
    def _normalize_batch(
        ops: List[Tuple[str, str, Optional[str]]],
    ) -> List[Tuple[EntryKind, str, Optional[str]]]:
        """Validate a batch up front; a malformed op raises ``ValueError``
        before anything is applied."""
        normalized: List[Tuple[EntryKind, str, Optional[str]]] = []
        for op, key, value in ops:
            if not key:
                raise ValueError("keys must be non-empty")
            if op == "put":
                if value is None:
                    raise ValueError("put ops need a value")
                normalized.append((EntryKind.PUT, key, value))
            elif op == "delete":
                normalized.append((EntryKind.DELETE, key, None))
            else:
                raise ValueError(f"unknown batch op {op!r}")
        return normalized

    # ------------------------------------------------------------------
    # two-phase commit participant (cross-shard write_batch)
    # ------------------------------------------------------------------

    def txn_prepare(
        self, txn_id: int, ops: List[Tuple[str, str, Optional[str]]]
    ) -> None:
        """Phase one: durably journal a sub-batch without applying it.

        Claims consecutive seqnos and writes a PREPARE record
        (:meth:`~repro.core.wal.WriteAheadLog.append_prepare`); nothing
        enters the memtable and no commit hook fires until the
        coordinator decides. On success the call **keeps the write mutex
        held** — the same thread must settle the transaction with
        :meth:`txn_commit` or :meth:`txn_abort` (the mutex is reentrant,
        not transferable). Holding it across the window keeps the
        active segment from rotating away from its prepared record and
        blocks conflicting writers, which is what makes the decision
        point atomic store-wide. On failure the mutex is released and
        nothing was acknowledged.
        """
        normalized = self._normalize_batch(ops)
        if not normalized:
            raise ValueError("transactional sub-batch must be non-empty")
        self._before_write()
        self._write_mutex.acquire()
        try:
            self._check_open()
            entries = self._claim_batch(normalized)
            self._active_wal.append_prepare(txn_id, entries)
            self._pending_txns[txn_id] = entries
        except BaseException:
            self._write_mutex.release()
            raise

    def txn_commit(self, txn_id: int) -> None:
        """Phase two, commit side: apply the prepared group.

        The coordinator's COMMIT decision is already durable, so this is
        the commit :meth:`write_batch` would have made, with the WAL
        settling the prepared group instead of journaling a new one —
        acknowledge it (commit hook included), insert into the buffer,
        honor rotation/flush triggers — and then releases the write
        mutex taken by :meth:`txn_prepare`.

        One difference: an ``Exception`` from the commit hook (a failed
        replica ack, a self-fence) is held until the group has been
        applied, then re-raised. The transaction is decided and the
        coordinator applies the other shards regardless, so skipping
        this shard's insert would leave a committed batch visible on
        some shards and not others until the next restart. A
        ``BaseException`` (an injected crash) still propagates at once.
        """
        try:
            entries = self._pending_txns.pop(txn_id)
            self._count_batch(entries)
            self._commit(entries, settle_txn=txn_id)
        finally:
            self._write_mutex.release()

    def txn_abort(self, txn_id: int) -> None:
        """Phase two, abort side: drop the prepared group unapplied.

        The PREPARE record stays in the segment; replay rolls it back
        for lack of a commit decision. Releases the write mutex taken by
        :meth:`txn_prepare`. The claimed seqnos are simply burned.
        """
        try:
            self._pending_txns.pop(txn_id, None)
            self._active_wal.abort_prepared(txn_id)
        finally:
            self._write_mutex.release()

    def delete_range(self, lo: str, hi: str) -> None:
        """Logically delete every key in ``[lo, hi)`` (§2.3.3).

        Implemented as a range tombstone: an O(1) write that shadows all
        older versions of covered keys; the covered data is garbage
        collected by later compactions (bounded by the Lethe TTL when
        configured, since range-tombstone ages feed the same trigger).
        """
        if not lo or hi <= lo:
            raise ValueError("delete_range needs non-empty lo < hi")
        self._before_write()
        with self._write_mutex:
            # Range deletes are journaled like any write (value = end key).
            entry = Entry(
                lo,
                hi,
                self._claim_seqno(),
                EntryKind.RANGE_DELETE,
                self.disk.now_us,
            )
            self.stats.incr("range_deletes")
            self._commit([entry])

    def get(self, key: str, at: Optional[object] = None) -> Optional[str]:
        """Point lookup: the most recent value of ``key``, or ``None``.

        Traverses buffer → Level 0 → deeper levels, newest run first within
        each level, terminating at the first base entry (§2.1.2, "Get").
        One key digest is computed lazily and shared by every Bloom filter
        probed (hash sharing, §2.1.3). Along the way the lookup tracks the
        newest covering range tombstone (free metadata checks) and collects
        merge operands until their base value is reached.

        ``at=`` (a :class:`~repro.api.Snapshot`, its token, or a raw
        seqno) answers as of that snapshot instead of the latest state:
        versions and tombstones newer than the snapshot are invisible,
        and versions an overwrite dropped while the snapshot was open are
        read from the pin buffer. A snapshot below the expiry floor
        raises :class:`~repro.errors.SnapshotExpiredError`.
        """
        self._check_open()
        started_us = self._clock_us()
        ctx = ReadContext(self.disk, self.cache, self.heat, self.stats, "get")
        value = self._lookup(
            key, ctx, None if at is None else self._resolve_at(at)
        )
        self.stats.fold_read(
            ctx,
            gets=1,
            gets_found=value is not None,
            latency_us=self._clock_us() - started_us,
        )
        return value

    def scan(
        self,
        lo: str,
        hi: str,
        limit: Optional[int] = None,
        *,
        at: Optional[object] = None,
        allow_partial: bool = False,
    ) -> List[Tuple[str, str]]:
        """Range lookup: latest versions of all keys in ``[lo, hi)``.

        Merges one iterator per buffer and per sorted run (§2.1.2, "Scan"),
        returning only the newest visible version of each key. ``limit``
        (when given) caps the number of pairs returned — counted after
        tombstone resolution, so the caller always gets the first ``limit``
        *live* keys of the range — and stops the merge early, which is the
        point: a paginated reader does not pay for the whole range.

        ``at=`` answers as of a snapshot: versions and tombstones newer
        than it are invisible and pinned pre-overwrite versions fill the
        gaps (see :meth:`get`). ``allow_partial=True`` is accepted for
        protocol uniformity — a single tree has one routing unit, so the
        result is a complete :class:`~repro.api.PartialScanResult` with
        nothing skipped.
        """
        self._check_open()
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative (or None)")
        started_us = self._clock_us()
        at_seq = None if at is None else self._resolve_at(at)
        if at_seq is not None:
            self._check_snapshot_floor(at_seq, "scans")
        ctx = ReadContext(self.disk, self.cache, self.heat, self.stats, "scan")
        results = (
            [] if limit == 0 else self._scan_merge(lo, hi, limit, at_seq, ctx)
        )
        self.stats.fold_read(
            ctx, scans=1, latency_us=self._clock_us() - started_us
        )
        return self._scan_result(results, allow_partial)

    def _scan_merge(
        self,
        lo: str,
        hi: str,
        limit: Optional[int],
        at_seq: Optional[int],
        ctx: ReadContext,
    ) -> List[Tuple[str, str]]:
        """The scan merge: one heap over every component's range iterator.

        Pops entries in (key, newest-first) order; each pop advances the
        popped source at once, and a key is resolved when the first entry
        of the *next* key has been popped. Runs charge a block when the
        merge first needs an entry from it, so this order — including the
        one pop past the key a ``limit`` stops at — fixes the sequence of
        block reads. A key whose only version is a ``PUT``, with no range
        tombstone over the scan and no ``at=``, is appended as is; every
        other key takes :meth:`_visible_value`.
        """
        components, first_run = self._components()
        sources: List[Iterator[Entry]] = [
            memtable.scan(lo, hi) for memtable, _ in components[:first_run]
        ]
        if at_seq is not None:
            sources.append(self._pinned_source(lo, hi, at_seq))
        sources.extend(
            run.iter_range(lo, hi, ctx) for run, _ in components[first_run:]
        )
        # Read after the buffers were captured: a tombstone list only
        # grows, so no captured entry can postdate a tombstone missed here.
        tombstones = [
            tombstone
            for _source, attached in components
            for tombstone in attached
            if tombstone.overlaps(lo, hi)
            and (at_seq is None or tombstone.seqno <= at_seq)
        ]
        heap = []
        for order, source in enumerate(sources):
            first = next(source, None)
            if first is not None:
                heap.append((first.key, -first.seqno, order, first, source))
        # Every real key sorts below ``hi``: this entry-less sentinel pops
        # last and resolves the final key like any key change does.
        heap.append((hi, 0, len(sources), None, iter(())))
        heapq.heapify(heap)
        results: List[Tuple[str, str]] = []
        plain = at_seq is None and not tombstones
        put = EntryKind.PUT
        heappop, heapreplace = heapq.heappop, heapq.heapreplace
        current_key: Optional[str] = None
        newest: Optional[Entry] = None
        older: Optional[List[Entry]] = None  # all versions, once a 2nd shows
        while True:
            key, _neg, order, entry, source = heap[0]
            successor = next(source, None)
            if successor is None:
                heappop(heap)
            else:
                heapreplace(
                    heap,
                    (successor.key, -successor.seqno, order, successor, source),
                )
            if key == current_key:
                if older is None:
                    older = [newest]
                older.append(entry)
                continue
            if current_key is not None:
                if older is None and plain and newest.kind is put:
                    value = newest.value
                else:
                    value = self._visible_value(
                        current_key, older or [newest], tombstones, at_seq
                    )
                if value is not None:
                    results.append((current_key, value))
                    if len(results) == limit:
                        return results
            if entry is None:
                return results
            current_key, newest, older = key, entry, None

    def _visible_value(
        self,
        key: str,
        versions: List[Entry],
        tombstones: List[RangeTombstone],
        at_seq: Optional[int],
    ) -> Optional[str]:
        """General resolution of one key's versions: snapshot visibility,
        range-tombstone shadowing (strictly-older rule), then point
        tombstones and merge operands."""
        if at_seq is not None:
            versions = sorted(
                (v for v in versions if v.seqno <= at_seq),
                key=lambda entry: -entry.seqno,
            )
        cover_seqno = max_covering_seqno(tombstones, key)
        return self._resolve_versions(
            key, [v for v in versions if v.seqno > cover_seqno]
        )

    @staticmethod
    def _scan_result(
        pairs: List[Tuple[str, str]], allow_partial: bool
    ) -> List[Tuple[str, str]]:
        if not allow_partial:
            return pairs
        from ..api import PartialScanResult

        return PartialScanResult(pairs)

    def _resolve_versions(
        self, key: str, versions: List[Entry]
    ) -> Optional[str]:
        """Visible value of a newest-first version list (scan resolution)."""
        operands: List[str] = []
        base: Optional[Entry] = None
        for version in versions:
            if version.kind is EntryKind.MERGE:
                operands.append(version.value)  # type: ignore[arg-type]
                continue
            base = version
            break
        if operands:
            assert self.merge_operator is not None
            base_value = (
                base.value
                if base is not None and base.kind is EntryKind.PUT
                else None
            )
            return self.merge_operator.full_merge(
                key, base_value, list(reversed(operands))
            )
        if base is None or base.is_tombstone:
            return None
        return base.value

    def close(self) -> None:
        """Release WAL file handles. Further operations raise.

        In background mode, first drains every rotated buffer and pending
        compaction, then joins the workers; a worker failure is re-raised
        as :class:`~repro.errors.BackgroundError` after cleanup finishes.
        The active buffer is *not* flushed (same as sync mode) — its WAL
        segment survives for :meth:`recover`.
        """
        if self._closed:
            return
        background_error: Optional[BackgroundError] = None
        if self._background is not None:
            try:
                self._background.drain()
            except BackgroundError as exc:
                background_error = exc
            finally:
                self._background.stop()
        self._active_wal.close()
        for buffer in self._immutable:
            buffer.wal.close()
        self._closed = True
        if background_error is not None:
            raise background_error

    def kill(self) -> None:
        """Abandon the tree as a process crash would. Idempotent.

        No drain, no flush, no error propagation: background workers are
        told to stop, file handles are released (Python cannot safely
        leak them), and *no logical state is persisted* — the WAL files
        are line-buffered, so exactly the records already written survive.
        Recovery must work from what is on disk. This is the
        crash-consistency harness's "pull the plug" primitive.
        """
        if self._closed:
            return
        self._closed = True
        if self._background is not None:
            try:
                self._background.stop()
            except Exception:
                pass
        try:
            self._active_wal.close()
        except Exception:
            pass
        for buffer in self._immutable:
            try:
                buffer.wal.close()
            except Exception:
                pass

    def background_error(self) -> Optional[BaseException]:
        """The first background-worker failure, or ``None``.

        Non-raising health probe: lets a sharded store poll for dead
        workers without tripping the :class:`BackgroundError` contract.
        """
        if self._background is None:
            return None
        return self._background.pool.first_error

    def __enter__(self) -> "LSMTree":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internal operations (§2.1.2): flush and compaction
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Force the active buffer to disk (tests/benchmarks convenience).

        In background mode this rotates the active buffer and blocks until
        the flush workers have installed every rotated buffer in Level 0.
        """
        self._check_open()
        if self._background is not None:
            self._background.check_error()
            with self._write_mutex:
                self._background.rotate()
            self._background.wait_for_flushes()
            return
        self._rotate_active()
        while self._immutable:
            self._flush_oldest()

    def compact_all(self) -> None:
        """Major compaction: push every level's data to the bottom.

        In background mode the workers are first drained, then paused, so
        the manual plan/execute loop below owns the tree exclusively.
        """
        self._check_open()
        if self._background is not None:
            self._background.drain()
            self._background.pool.pause()
            try:
                with self._background.manifest_lock:
                    self._compact_all_levels()
            finally:
                self._background.pool.resume()
            return
        self._compact_all_levels()

    def _compact_all_levels(self) -> None:
        for index in range(len(self.levels)):
            while True:
                plan = self.planner.plan_manual(self.levels, index)
                if plan is None:
                    break
                self._ensure_level(plan.job.target_level)
                self.executor.execute(
                    plan.job, self.levels, plan.bottommost, plan.target_leveled
                )
                self._note_version_gc()
            self._run_compactions()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def seqno(self) -> int:
        """Next sequence number to be assigned."""
        return self._next_seqno

    # ------------------------------------------------------------------
    # snapshots (MVCC read points)
    # ------------------------------------------------------------------

    def snapshot(self) -> "object":
        """Capture a consistent read point for this tree.

        Returns a :class:`~repro.api.Snapshot` whose single routing unit
        ``0`` maps to the highest seqno assigned so far; ``get``/``scan``
        with ``at=`` that handle answer as of this instant. Release the
        handle (``close()``/``with``) so the tree can stop pinning
        overwritten versions.
        """
        from ..api import Snapshot

        seq = self.snapshot_pin()
        return Snapshot({0: seq}, release=lambda: self.snapshot_release(seq))

    def snapshot_pin(self) -> int:
        """Pin the current tip seqno and return it (refcounted).

        Building block for store-level snapshots: an aggregating store
        pins every shard and assembles one multi-unit handle. While any
        pin is live, in-buffer overwrites stash the version they would
        drop (bounded by the pin cap — overflow expires, never lies).
        """
        self._check_open()
        with self._write_mutex:
            seq = self._next_seqno - 1
            self._snapshots[seq] = self._snapshots.get(seq, 0) + 1
            return seq

    def snapshot_release(self, seq: int) -> None:
        """Drop one reference to a pinned seqno; releasing the last live
        pin discards the pinned-version buffer."""
        with self._write_mutex:
            count = self._snapshots.get(seq, 0)
            if count <= 1:
                self._snapshots.pop(seq, None)
            else:
                self._snapshots[seq] = count - 1
            if not self._snapshots:
                self._pinned.clear()

    def _resolve_at(self, at: object) -> int:
        """Accept a Snapshot handle, its token, or a raw seqno."""
        if isinstance(at, bool):
            raise TypeError("at= must be a Snapshot, token string, or seqno")
        if isinstance(at, int):
            return at
        from ..api import Snapshot

        return Snapshot.coerce(at).seqno_for(0)

    def _check_snapshot_floor(self, at_seq: int, counter: str) -> None:
        """Refuse a read below the expiry floor; the refused read still
        counts as one issued ``gets`` / ``scans``."""
        if at_seq < self._snap_floor:
            self.stats.incr(counter)
            raise SnapshotExpiredError(
                f"snapshot at seqno {at_seq} expired: versions below "
                f"{self._snap_floor} may have been garbage-collected",
                seqno=at_seq,
            )

    def _insert_active(self, entry: Entry) -> None:
        """Insert into the active buffer, first pinning the version the
        insert would drop if an open snapshot still needs it. Caller
        holds the write mutex. The snapshot check is one falsy-dict test
        when no snapshot is open — the common case stays free."""
        if self._snapshots:
            self._maybe_pin(entry)
        self._active.insert(entry)

    def _maybe_pin(self, entry: Entry) -> None:
        old = self._active.get(entry.key)
        if old is None or old.kind is EntryKind.MERGE:
            # Nothing dropped, or an eager-merge operand stack (snapshots
            # over merge operators are documented as unsupported).
            return
        if max(self._snapshots) < old.seqno:
            return  # no open snapshot can see the dropped version
        if len(self._pinned) >= _SNAPSHOT_PIN_CAP:
            # Pin budget exhausted: expire snapshots below this write
            # instead of silently losing their view.
            self._snap_floor = max(self._snap_floor, entry.seqno)
            return
        self._pinned.append(old)

    def _pinned_source(
        self, lo: str, hi: str, at_seq: int
    ) -> Iterator[Entry]:
        """Pinned versions in ``[lo, hi)`` visible at ``at_seq``, key
        sorted, newest surviving version per key (a scan source)."""
        with self._write_mutex:
            best: Dict[str, Entry] = {}
            for entry in self._pinned:
                if lo <= entry.key < hi and entry.seqno <= at_seq:
                    seen = best.get(entry.key)
                    if seen is None or entry.seqno > seen.seqno:
                        best[entry.key] = entry
        return iter(sorted(best.values(), key=lambda entry: entry.key))

    def backpressure(self) -> Dict[str, object]:
        """Non-blocking admission-control snapshot for serving layers.

        Returns a dict with ``state`` (``"ok"``, ``"slowdown"``, or
        ``"stop"``) plus the raw quantities behind it (Level-0 run count,
        immutable-queue depth, and the two triggers). In background mode
        the state mirrors exactly what :meth:`put` would experience —
        ``"stop"`` means a write issued now would block until workers
        drain — so a server can shed load *before* tying up a thread.
        The synchronous engine never blocks writers (it charges
        maintenance inline), so its state is always ``"ok"``.
        """
        if self._background is not None:
            return self._background.backpressure_state()
        with self._manifest():
            l0_runs = self.levels[0].run_count if self.levels else 0
            immutable = len(self._immutable)
        return {
            "state": "ok",
            "level0_runs": l0_runs,
            "immutable_buffers": immutable,
            "slowdown_trigger": self.config.level0_run_limit * 2,
            "stop_trigger": self.config.level0_run_limit * 4,
        }

    def total_disk_bytes(self) -> int:
        """Payload bytes currently on disk across all levels."""
        with self._manifest():
            return sum(level.data_bytes for level in self.levels)

    def total_run_count(self) -> int:
        """Number of sorted runs on disk (the quantity compaction bounds)."""
        with self._manifest():
            return sum(level.run_count for level in self.levels)

    def memory_footprint_bits(self) -> int:
        """RUM memory: buffers + filters + fence pointers, in bits."""
        with self._manifest():
            bits = 8 * self._active.size_bytes
            bits += sum(
                8 * buffer.memtable.size_bytes for buffer in self._immutable
            )
            for level in self.levels:
                for run in level.runs:
                    for table in run.tables:
                        if table.bloom is not None:
                            bits += table.bloom.memory_bits
                        if table.fence is not None:
                            bits += table.fence.memory_bits
            return bits

    def level_summary(self) -> List[Dict[str, object]]:
        """One dict per level: runs, files, bytes, capacity, tombstones."""
        with self._manifest():
            return [
                {
                    "level": level.index,
                    "runs": level.run_count,
                    "files": sum(len(run.tables) for run in level.runs),
                    "bytes": level.data_bytes,
                    "capacity": level.capacity_bytes,
                    "tombstones": level.tombstone_count,
                }
                for level in self.levels
            ]

    def space_breakdown(self) -> Dict[str, int]:
        """Live vs. logically-invalidated bytes on disk (space amp, §2.3).

        Walks every component without charging I/O (an analysis pass, not
        an engine operation). ``live_bytes`` counts materialized PUT
        versions; pending MERGE operand stacks and range-tombstone
        metadata count toward ``total_bytes`` only, so space amplification
        reads slightly conservative on merge-heavy workloads.
        """
        newest: Dict[str, Entry] = {}
        total_bytes = 0
        for source in self._all_components():
            for entry in source:
                total_bytes += entry.size
                seen = newest.get(entry.key)
                if seen is None or entry.seqno > seen.seqno:
                    newest[entry.key] = entry
        live_bytes = sum(
            entry.size
            for entry in newest.values()
            if entry.kind is EntryKind.PUT
        )
        return {
            "total_bytes": total_bytes,
            "live_bytes": live_bytes,
            "dead_bytes": total_bytes - live_bytes,
        }

    def space_amplification(self) -> float:
        """On-disk bytes per live byte (1.0 is perfect)."""
        breakdown = self.space_breakdown()
        if breakdown["live_bytes"] == 0:
            return 0.0
        disk_bytes = self.total_disk_bytes()
        return disk_bytes / breakdown["live_bytes"] if disk_bytes else 0.0

    def write_amplification(self) -> float:
        """Device bytes written (flush + compaction + WAL) per user byte."""
        return self.stats.write_amplification(self.disk.counters.bytes_written)

    def verify_invariants(self) -> None:
        """Assert the structural invariants of DESIGN.md §4.

        Used by the property-based tests; raises ``AssertionError`` with a
        diagnostic message on any violation.
        """
        last = last_data_level(self.levels)
        for level in self.levels:
            if level.index > 0:
                allowed = self.layout.max_runs(level.index, last)
                assert level.run_count <= max(1, allowed), (
                    f"level {level.index} holds {level.run_count} runs, "
                    f"layout allows {allowed}"
                )
        seen_seqno: Dict[str, int] = {}
        for source in self._all_components():
            source_seen: Dict[str, int] = {}
            for entry in source:
                assert entry.key not in source_seen, (
                    f"duplicate key {entry.key!r} within one component"
                )
                source_seen[entry.key] = entry.seqno
            for key, seqno in source_seen.items():
                if key in seen_seqno:
                    assert seqno < seen_seqno[key], (
                        f"LSM invariant violated for {key!r}: deeper seqno "
                        f"{seqno} >= shallower {seen_seqno[key]}"
                    )
                else:
                    seen_seqno[key] = seqno

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        config: Optional[LSMConfig],
        wal_dir: str,
        disk: Optional[SimulatedDisk] = None,
        merge_operator: Optional[MergeOperator] = None,
        committed_txns: Optional[set] = None,
        checkpoint_dir: Optional[str] = None,
    ) -> "LSMTree":
        """Restart a tree: its checkpoint, then every WAL segment.

        The one recovery loop. A tree keeps each WAL segment until a
        checkpoint covers it, so the durable state is the checkpoint in
        ``checkpoint_dir`` (when its ``MANIFEST.json`` exists; its stored
        config then overrides ``config``) plus every segment in
        ``wal_dir``, replayed from the manifest's covered seqno on.
        Entries keep their sequence numbers, so replay is idempotent.
        ``committed_txns`` (from the store's coordinator decision log)
        rolls prepared two-phase groups forward; all others roll back
        (:meth:`~repro.core.wal.WriteAheadLog.replay_groups`).

        Crash-safe ordering: every segment is decoded before anything is
        built (a refused WAL leaves the directory as found), then each
        uncovered group is re-journaled — one record and one sync, so it
        stays atomic — into a *fresh* segment numbered above all old
        ones, and only then are the old segments deleted. A crash at any
        point, ``wal.recover.before_delete`` included, leaves a WAL set
        that replays to the same state.
        """
        segments = _segment_names(wal_dir)
        groups: List[List[Entry]] = []
        for name in segments:
            groups.extend(
                WriteAheadLog.replay_groups(
                    os.path.join(wal_dir, name), committed_txns
                )
            )
        if checkpoint_dir is not None and os.path.exists(
            os.path.join(checkpoint_dir, "MANIFEST.json")
        ):
            from ..storage.persistence import restore

            tree = restore(
                checkpoint_dir, disk=disk, merge_operator=merge_operator
            )
        else:
            # A MANIFEST.json.tmp is an uncommitted checkpoint: ignored.
            tree = cls(config, disk=disk, merge_operator=merge_operator)
        covered = tree.seqno
        tree._active_wal.close()
        tree._wal_dir = wal_dir
        tree._wal_segment_id = int(segments[-1][4:-4]) + 1 if segments else 0
        tree._active_wal = tree._new_wal_segment()
        for group in groups:
            tree.apply_replicated(
                [entry for entry in group if entry.seqno >= covered]
            )
        for name in segments:
            path = os.path.join(wal_dir, name)
            fault_point("wal.recover.before_delete", path=path)
            if os.path.exists(path):
                os.remove(path)
        return tree

    # ------------------------------------------------------------------
    # replication taps
    # ------------------------------------------------------------------

    def set_wal_commit_hook(self, hook: Optional[CommitHook]) -> None:
        """Install (or clear) the post-commit WAL tap.

        The hook fires with the entries of each acknowledged commit group
        — after the group's WAL sync succeeded — and is carried across
        segment rotations. This is how a replicated store ships committed
        records off a primary; see
        :class:`~repro.core.wal.WriteAheadLog` for the exact contract.
        Taking the write mutex orders the install against in-flight
        writers: every group committed after this returns is observed.
        """
        with self._write_mutex:
            self._wal_commit_hook = hook
            self._active_wal.on_commit = hook

    def apply_replicated(self, entries: List[Entry]) -> None:
        """Apply one commit group that already carries its seqnos.

        A shipped group on a replica and a replayed group in recovery
        are the same operation: the entries keep the sequence numbers
        their first commit assigned (so re-applying is idempotent), and
        the whole group is one :meth:`_commit` — one WAL record — so
        this tree's own recovery preserves the group's atomicity: a torn
        tail drops the group whole, never half of it.
        """
        if not entries:
            return
        self._before_write()
        with self._write_mutex:
            self._check_open()
            self._next_seqno = max(
                self._next_seqno, max(entry.seqno for entry in entries) + 1
            )
            self._commit(entries)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("tree is closed")

    def _manifest(self) -> ContextManager:
        """The manifest lock in background mode; a no-op context in sync.

        Guards the tree's structural state: the active-buffer reference,
        the immutable queue, and every level's run list. Reads hold it only
        long enough to snapshot list references (runs and SSTables are
        immutable once built), giving version-style snapshot isolation.
        """
        if self._background is not None:
            return self._background.manifest_lock
        return _NO_LOCK

    def _before_write(self) -> None:
        """Background mode: surface worker errors, apply backpressure."""
        if self._background is not None:
            self._background.before_write()

    def _clock_us(self) -> float:
        """Clock for client-visible latencies.

        Sync mode uses the simulated disk clock (the write is charged its
        flush/compaction time). In background mode the simulated clock
        advances concurrently on worker threads, so client latencies are
        wall-clock instead.
        """
        if self._background is not None:
            return time.perf_counter() * 1e6
        return self.disk.now_us

    def _make_buffer(self) -> MemTable:
        """A fresh active memtable, lock-wrapped in background mode."""
        memtable = make_memtable(
            self.config.memtable_kind,
            self.config.seed + self._wal_segment_id,
        )
        if self.config.background_mode:
            return LockedMemTable(memtable)
        return memtable

    def _claim_seqno(self) -> int:
        self._check_open()
        seqno = self._next_seqno
        self._next_seqno += 1
        return seqno

    def _new_wal_segment(self) -> WriteAheadLog:
        path = None
        if self._wal_dir is not None:
            path = os.path.join(
                self._wal_dir, f"wal.{self._wal_segment_id:06d}.log"
            )
        self._wal_segment_id += 1
        return WriteAheadLog(
            self.disk,
            path,
            fsync=self.config.wal_fsync,
            on_commit=self._wal_commit_hook,
        )

    def _commit(
        self, entries: List[Entry], settle_txn: Optional[int] = None
    ) -> None:
        """Commit one group — the engine's only write step (§2.1.1-A/B).

        Journal the group as one WAL record (or, with ``settle_txn``,
        acknowledge the PREPARE record already there), make each entry
        visible, and hand a full buffer to flush. Caller holds the write
        mutex and has claimed the entries' seqnos.

        The commit hook fires inside the journal step, after the sync. An
        exception from it propagates at once and skips the insert — the
        group is durable but unreadable until replay — except for a
        settled transaction: its ``Exception`` is held until the group
        is applied, then re-raised (see :meth:`txn_commit` for why).
        """
        started_us = self._clock_us()
        hook_error: Optional[Exception] = None
        if settle_txn is None:
            self._active_wal.append_batch(entries)
        else:
            try:
                self._active_wal.commit_prepared(settle_txn)
            except Exception as exc:
                hook_error = exc
        self.stats.incr(
            "user_bytes_written", sum(entry.size for entry in entries)
        )
        range_delete = EntryKind.RANGE_DELETE
        for entry in entries:
            if entry.kind is range_delete:
                # The memtable holds only point entries.
                self._active_tombstones.append(
                    RangeTombstone(
                        entry.key,
                        entry.value,  # type: ignore[arg-type]
                        entry.seqno,
                        entry.stamp_us,
                    )
                )
            else:
                self._insert_active(entry)
        if self._active.size_bytes >= self.config.buffer_size_bytes:
            if self._background is not None:
                self._background.rotate()
            else:
                self._rotate_active()
        if self._background is None:
            while len(self._immutable) >= self.config.num_buffers:
                self._flush_oldest()
        # One latency sample per group: the group is one commit. Sync
        # mode charges it the inline flush/compaction time; background
        # mode is wall-clock — the writer pays WAL + buffer time only.
        self.stats.record_write_latency(self._clock_us() - started_us)
        if hook_error is not None:
            raise hook_error

    def _rotate_active(self) -> None:
        """Swap in a fresh buffer so ingestion never edits a flushing one.

        Background mode callers must hold both the write mutex and the
        manifest lock (:meth:`BackgroundCoordinator.rotate` does).
        """
        if len(self._active) == 0 and not self._active_tombstones:
            return
        self._immutable.append(
            ImmutableBuffer(
                self._active,
                self._active_wal,
                self._active_tombstones,
                self._rotation_seq,
            )
        )
        self._rotation_seq += 1
        self._active = self._make_buffer()
        self._active_wal = self._new_wal_segment()
        self._active_tombstones = []

    def _flush_oldest(self) -> None:
        """Flush the oldest immutable buffer into a new Level-0 run."""
        buffer = self._immutable.pop(0)
        entries = buffer.memtable.entries()
        tombstones = buffer.tombstones
        if entries or tombstones:
            level0 = self._ensure_level(0)
            stalled = level0.run_count >= self.config.level0_run_limit
            stall_started_us = self.disk.now_us
            if stalled:
                # Ingestion must wait for Level 0 to drain (§2.2.3): the
                # synchronous compactions below are the stall.
                self.stats.incr("stall_events")
                self._run_compactions()
                self.stats.incr(
                    "stall_us", self.disk.now_us - stall_started_us
                )
            fault_point("flush.build", scope=f"rot-{buffer.seq}")
            tables = self.executor.build_tables(
                entries, cause="flush", range_tombstones=dedupe(tombstones)
            )
            fault_point("flush.install", scope=f"rot-{buffer.seq}")
            self._ensure_level(0).add_run_newest(SortedRun(tables))
            self.stats.incr("flushes")
            self.stats.incr(
                "flushed_bytes", sum(table.data_bytes for table in tables)
            )
        buffer.wal.close()
        self._run_compactions()

    def checkpoint_cut(
        self,
    ) -> Tuple[List[List[List[SSTable]]], int, List[str]]:
        """One instant a checkpoint covers: ``(tables, covered, segments)``.

        ``tables`` holds each level's runs' tables; ``covered`` is the
        lowest seqno in none of them (every buffered entry is at or
        above it); ``segments`` are the WAL files of flushed buffers,
        whose entries are all in ``tables``. Taken in one step under the
        write mutex and the manifest lock, so a write or flush landing
        while the checkpoint writes files falls wholly after the cut.
        """
        with self._write_mutex, self._manifest():
            tables = [
                [list(run.tables) for run in level.runs]
                for level in self.levels
            ]
            buffered = [(self._active, self._active_tombstones)]
            buffered.extend(
                (buffer.memtable, buffer.tombstones)
                for buffer in self._immutable
            )
            covered = min(
                (
                    item.seqno
                    for memtable, tombstones in buffered
                    for items in (memtable.entries(), tombstones)
                    for item in items
                ),
                default=self._next_seqno,
            )
            flushed: List[str] = []
            if self._wal_dir is not None:
                live = {self._active_wal._path}
                live.update(buffer.wal._path for buffer in self._immutable)
                paths = (
                    os.path.join(self._wal_dir, name)
                    for name in _segment_names(self._wal_dir)
                )
                flushed = [path for path in paths if path not in live]
        return tables, covered, flushed

    def _ensure_level(self, index: int) -> Level:
        while len(self.levels) <= index:
            depth = len(self.levels)
            self.levels.append(
                Level(depth, self.config.level_capacity_bytes(depth))
            )
        return self.levels[index]

    def _run_compactions(self) -> None:
        """Apply compactions until the tree satisfies its layout (§2.1.2)."""
        while True:
            plan = self.planner.plan(self.levels, self.disk.now_us)
            if plan is None:
                return
            fault_point("compact.step", scope=f"L{plan.job.source_level}")
            self._ensure_level(plan.job.target_level)
            self.executor.execute(
                plan.job, self.levels, plan.bottommost, plan.target_leveled
            )
            self._note_version_gc()

    def _note_version_gc(self) -> None:
        """A compaction just ran and may have merged away superseded
        versions; raise the snapshot expiry floor to the current tip so
        older ``at=`` reads expire instead of answering from a
        half-merged history. (Conservative: a move-only compaction also
        bumps — at-reads trade availability for never being wrong.)"""
        self._snap_floor = max(self._snap_floor, self._next_seqno - 1)

    def _monkey_bits_for_level(self, level_index: int) -> float:
        """Monkey-optimal bits/key for tables landing at ``level_index``.

        Re-derived from the tree's current shape each time a table is
        built, so the allocation adapts as the tree deepens (§2.1.3).
        Empty or future levels are estimated geometrically.
        """
        with self._manifest():
            entry_counts = [level.entry_count for level in self.levels]
        depth = max(level_index + 1, len(entry_counts), 2)
        counts: List[int] = []
        previous = max(
            1, self.config.buffer_size_bytes // 64
        )  # rough entries-per-buffer estimate
        for index in range(depth):
            actual = (
                entry_counts[index] if index < len(entry_counts) else 0
            )
            estimate = previous * (
                self.config.size_ratio if index > 0 else 1
            )
            counts.append(max(actual, estimate, 1))
            previous = counts[-1]
        schedule = monkey_bits_per_key(counts, self.config.filter_bits_per_key)
        return schedule[level_index]

    def _components(
        self,
    ) -> Tuple[List[Tuple[object, List[RangeTombstone]]], int]:
        """One consistent view of the tree for a read: every component
        with its range tombstones, newest first, and the index of the
        first sorted run (buffers come before it).

        The list is snapshotted under the manifest lock, then read
        lock-free: runs and their SSTables are immutable, a rotated
        memtable is frozen and tombstone lists only ever grow, so the
        view stays valid however long the read takes (a compaction
        finishing mid-read only leaves it reading
        superseded-but-consistent runs).
        """
        with self._manifest():
            components: List[Tuple[object, List[RangeTombstone]]] = [
                (self._active, self._active_tombstones)
            ]
            for buffer in reversed(self._immutable):
                components.append((buffer.memtable, buffer.tombstones))
            first_run = len(components)
            for level in self.levels:
                for run in level.runs:
                    components.append((run, run.range_tombstones))
        return components, first_run

    def _lookup(
        self, key: str, ctx: ReadContext, at_seq: Optional[int]
    ) -> Optional[str]:
        """The probe loop of a point read: tombstones, range shadows, merges.

        Walks components newest-first, counting into ``ctx``; a covering
        range tombstone seen at any component shadows every strictly-older
        version below (the LSM invariant orders components by recency per
        key). Reading the latest state, the first base entry (PUT or point
        tombstone) ends the walk and MERGE operands met on the way are
        folded into it.

        Reading as of ``at_seq`` collects *every* stored version of the
        key at or below the snapshot — one probe per component plus the
        pin buffer — rather than stopping at the first base entry: the
        newest stored version may postdate the snapshot. Correctness over
        probe count; at-reads are not the hot path.
        """
        if at_seq is not None:
            self._check_snapshot_floor(at_seq, "gets")
        components, first_run = self._components()
        digest = key_digest(key) if self.config.filter_bits_per_key else None
        shadow_seqno = -1
        versions: List[Entry] = []  # newest first
        for index, (source, tombstones) in enumerate(components):
            if tombstones:
                if at_seq is not None:
                    tombstones = [t for t in tombstones if t.seqno <= at_seq]
                shadow_seqno = max(
                    shadow_seqno, max_covering_seqno(tombstones, key)
                )
            if index < first_run:
                entry = source.get(key)
            else:
                ctx.runs_probed += 1
                entry = source.probe(key, ctx, digest)
            if entry is None:
                continue
            if at_seq is not None:
                if entry.seqno <= at_seq:
                    versions.append(entry)
                continue
            if entry.seqno < shadow_seqno:
                break  # the newest version of this key is range-deleted
            if entry.kind is EntryKind.PUT and not versions:
                return entry.value
            versions.append(entry)
            if entry.kind is not EntryKind.MERGE:
                break
        if at_seq is not None:
            with self._write_mutex:
                versions.extend(
                    entry
                    for entry in self._pinned
                    if entry.key == key and entry.seqno <= at_seq
                )
            versions.sort(key=lambda entry: -entry.seqno)
        if not versions:
            return None
        return self._resolve_versions(
            key, [v for v in versions if v.seqno > shadow_seqno]
        )

    def all_range_tombstones(self) -> List[RangeTombstone]:
        """Every live range tombstone, deduplicated (analysis)."""
        components, _first_run = self._components()
        return dedupe(
            tombstone
            for _source, tombstones in components
            for tombstone in tombstones
        )

    def _all_components(self) -> Iterator[Iterator[Entry]]:
        """Every entry source, newest component first (analysis only)."""
        components, first_run = self._components()
        for index, (source, _tombstones) in enumerate(components):
            if index < first_run:
                yield iter(source.entries())
            else:
                yield source.iter_entries()
