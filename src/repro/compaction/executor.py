"""Compaction execution: sort-merge, garbage collection, I/O charging.

"When a level reaches capacity, all or part of its data is sort-merged with
data from the next level with an overlapping key-range" (§2.1.1-D). The
executor takes a planned :class:`~repro.compaction.primitives.CompactionJob`
and:

1. charges the device one sequential read of every input byte,
2. merges the inputs with one stable sort, keeping only the latest
   version per key (§2.1.2),
3. garbage-collects shadowed versions, annihilates single-delete pairs, and
   drops tombstones that have reached the bottommost overlapping level,
4. writes the merged output as new SSTables split at the target file size,
   carrying the inputs' key digests so no output filter hashes a key,
5. splices the level structure and invalidates/prefetches the block cache.

Trivial moves (no overlap in the target) relink the file with no I/O at
all, as LevelDB and RocksDB do.
"""

from __future__ import annotations

from itertools import compress, count, islice
from operator import attrgetter, eq
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..core.config import LSMConfig
from ..core.entry import Entry, EntryKind
from ..core.level import Level
from ..core.merge_operator import MergeOperator
from ..core.range_tombstone import RangeTombstone, dedupe, max_covering_seqno
from ..core.run import SortedRun
from ..core.sstable import SSTable, split_by_size
from ..core.stats import TreeStats
from ..errors import CompactionError
from ..faults.registry import fault_point
from ..filters.bloom import DIGEST_BYTES
from ..storage.block_cache import BlockCache, HeatTracker
from ..storage.disk import SimulatedDisk
from .primitives import CompactionJob

Span = Tuple[int, int]

#: By ``bottommost``: the kinds :func:`reconcile` changes when they are a
#: key's only version. At the bottom every tombstone drops; above it a
#: lone tombstone survives as it is, and only MERGE operands fold.
_CHANGED_ALONE = {
    True: frozenset(EntryKind) - {EntryKind.PUT},
    False: frozenset({EntryKind.MERGE}),
}


def merge_order(
    keys: Sequence[str], entries: Sequence[Entry]
) -> Tuple[List[int], List[Span]]:
    """Order the merge's inputs with one sort.

    ``keys`` / ``entries`` are the input streams laid end to end in source
    order (newest source first); each stream is sorted and key-unique, and
    across streams keys may repeat (that is the point of compaction).

    Returns ``(order, groups)``: ``order`` lists input positions by
    ascending key, each key's versions newest first, equal seqnos in
    source order; ``groups`` lists, in key order, the ``(start, stop)``
    spans of ``order`` holding a key with more than one version. The sort
    is stable, so a span is already in source order, which the LSM
    invariant makes newest first; only a span where an older version
    precedes a newer one is re-sorted by seqno.
    """
    key_at = keys.__getitem__
    order = sorted(range(len(keys)), key=key_at)
    groups: List[Span] = []
    misordered = set()
    # Index i repeats when ordered key i equals key i + 1 (compared
    # lazily: no list of ordered keys is built).
    following = map(key_at, islice(order, 1, None))
    for index in compress(count(), map(eq, map(key_at, order), following)):
        if groups and groups[-1][1] == index + 1:
            groups[-1] = (groups[-1][0], index + 2)
        else:
            groups.append((index, index + 2))
        if entries[order[index]].seqno < entries[order[index + 1]].seqno:
            misordered.add(groups[-1][0])
    for start, stop in groups:
        if start in misordered:
            order[start:stop] = sorted(
                order[start:stop],
                key=lambda position: entries[position].seqno,
                reverse=True,  # stable: equal seqnos keep source order
            )
    return order, groups


def reconcile(
    versions: List[Entry],
    bottommost: bool,
    operator: Optional[MergeOperator] = None,
) -> Tuple[Optional[Entry], int, int]:
    """Decide what one key's merged versions become.

    Args:
        versions: All versions of a key, newest first.
        bottommost: Whether the compaction output lands at the bottommost
            level overlapping this key — only then may tombstones be dropped
            (§2.1.2: entries are "garbage collected only after they are
            compacted with a matching tombstone" at the last level).
        operator: Merge operator for folding ``MERGE`` operand stacks
            (§2.2.6); required when any version is a merge operand.

    Returns:
        ``(survivor, garbage_collected, tombstones_dropped)`` where
        ``survivor`` is ``None`` when nothing is written out.
    """
    newest = versions[0]
    if newest.kind is EntryKind.MERGE:
        return _reconcile_merges(versions, bottommost, operator)
    older = len(versions) - 1
    if newest.kind is EntryKind.PUT:
        return newest, older, 0

    if newest.kind is EntryKind.SINGLE_DELETE:
        # A single-delete annihilates with the first matching older entry
        # as soon as they meet (§2.3.3 / RocksDB Single Delete): neither is
        # written out. With no older version yet, the tombstone survives
        # (unless it already reached the bottom, where it is moot).
        if older:
            return None, older, 1
        if bottommost:
            return None, 0, 1
        return newest, 0, 0

    # Regular DELETE tombstone: shadowed versions are garbage; the
    # tombstone itself survives until the bottommost overlapping level.
    if bottommost:
        return None, older, 1
    return newest, older, 0


def _reconcile_merges(
    versions: List[Entry],
    bottommost: bool,
    operator: Optional[MergeOperator],
) -> Tuple[Optional[Entry], int, int]:
    """Fold a newest-first stack of MERGE operands into its base (§2.2.6)."""
    if operator is None:
        raise CompactionError(
            "MERGE entries reached compaction without a merge operator"
        )
    key = versions[0].key
    operands_newest_first: List[str] = []
    base: Optional[Entry] = None
    consumed = 0
    for version in versions:
        consumed += 1
        if version.kind is EntryKind.MERGE:
            operands_newest_first.append(version.value)  # type: ignore[arg-type]
        else:
            base = version
            break
    oldest_first = list(reversed(operands_newest_first))
    garbage = len(versions) - 1

    if base is not None and base.kind is EntryKind.PUT:
        merged = operator.full_merge(key, base.value, oldest_first)
        survivor = Entry(
            key, merged, versions[0].seqno, EntryKind.PUT, versions[0].stamp_us
        )
        return survivor, garbage, 0

    if base is not None:  # DELETE or SINGLE_DELETE: merge from empty base.
        merged = operator.full_merge(key, None, oldest_first)
        survivor = Entry(
            key, merged, versions[0].seqno, EntryKind.PUT, versions[0].stamp_us
        )
        # The tombstone was applied (and is dropped): the merged PUT
        # shadows anything deeper just as the tombstone did.
        return survivor, garbage, 1

    if bottommost:
        merged = operator.full_merge(key, None, oldest_first)
        survivor = Entry(
            key, merged, versions[0].seqno, EntryKind.PUT, versions[0].stamp_us
        )
        return survivor, garbage, 0

    # No base reachable yet: fold the operands into one partial MERGE.
    combined = operator.partial_merge(key, oldest_first)
    if combined is None:
        raise CompactionError(
            "merge operator must implement partial_merge for baseless "
            "compaction of operand stacks"
        )
    survivor = Entry(
        key, combined, versions[0].seqno, EntryKind.MERGE, versions[0].stamp_us
    )
    return survivor, garbage, 0


class CompactionExecutor:
    """Stateless-per-job executor bound to one tree's device and caches."""

    def __init__(
        self,
        config: LSMConfig,
        disk: SimulatedDisk,
        stats: TreeStats,
        cache: Optional[BlockCache] = None,
        heat: Optional[HeatTracker] = None,
        merge_operator: Optional[MergeOperator] = None,
    ) -> None:
        self.config = config
        self.disk = disk
        self.stats = stats
        self.cache = cache
        self.heat = heat
        self.merge_operator = merge_operator
        #: Optional per-level bits/key override, installed by the tree when
        #: the Monkey filter allocation is configured (§2.1.3).
        self.bits_for_level: Optional[Callable[[int], float]] = None

    # -- public API --------------------------------------------------------

    def execute(
        self, job: CompactionJob, levels: List[Level], bottommost: bool,
        target_leveled: bool,
    ) -> List[SSTable]:
        """Run one compaction job against the level structure.

        Returns the output tables (empty when everything was GC'd or the
        job was a trivial move).
        """
        if self.trivial_move_applies(job, bottommost, target_leveled):
            self.trivial_move(job, levels)
            return list(job.source_tables)

        fault_point("compact.merge", scope=f"L{job.source_level}")
        output_tables = self.merge_job(job, bottommost)
        fault_point("compact.install", scope=f"L{job.source_level}")
        self.install_job(job, levels, output_tables, target_leveled)
        self.refresh_cache(job, output_tables)
        return output_tables

    def trivial_move_applies(
        self, job: CompactionJob, bottommost: bool, target_leveled: bool
    ) -> bool:
        """Whether the job can relink files instead of rewriting them.

        A trivial move must not happen when the job's purpose is garbage
        collection: a bottommost job carrying tombstones has to pass
        through the merge so they are actually dropped (otherwise a
        TTL-triggered bottom rewrite would relink forever without ever
        purging).
        """
        carries_tombstones = any(
            table.tombstone_count or table.range_tombstones
            for table in job.source_tables
        )
        return (
            job.is_trivial_move
            and not job.source_runs
            and target_leveled
            and not (bottommost and carries_tombstones)
        )

    def merge_job(self, job: CompactionJob, bottommost: bool) -> List[SSTable]:
        """Sort-merge the job's inputs into new tables (no level splicing).

        This is the long, I/O-heavy half of a compaction. It only *reads*
        the immutable input tables, so background workers run it without
        holding the tree's manifest lock; :meth:`install_job` then commits
        the result under the lock.
        """
        return self._merge_and_write(job, bottommost)

    def install_job(
        self,
        job: CompactionJob,
        levels: List[Level],
        outputs: List[SSTable],
        target_leveled: bool,
    ) -> None:
        """Atomically swap the job's inputs for ``outputs`` in the levels."""
        self._splice(job, levels, outputs, target_leveled)
        self.stats.incr("compactions")

    def trivial_move(self, job: CompactionJob, levels: List[Level]) -> None:
        """Relink non-overlapping files into the target level, I/O-free.

        Not counted in ``stats.compactions`` — a relink does no merge work.
        """
        self._trivial_move(job, levels)

    # -- internals ----------------------------------------------------------

    def _merge_and_write(
        self, job: CompactionJob, bottommost: bool
    ) -> List[SSTable]:
        self.disk.read(job.input_bytes, cause="compaction")
        self.stats.incr("compaction_bytes_read", job.input_bytes)

        # The inputs laid end to end in source order: source runs, source
        # tables, target tables. Their blocks' key and entry lists are
        # concatenated as they are (and, for the outputs, their packed
        # digests likewise).
        input_tables = [
            table for run in job.source_runs for table in run.tables
        ]
        input_tables += job.source_tables
        input_tables += job.target_tables
        keys: List[str] = []
        entries: List[Entry] = []
        for table in input_tables:
            for block in table.blocks:
                keys += block.keys
                entries += block.entries

        # Range tombstones travelling with the inputs (§2.3.3): they shadow
        # strictly older covered versions during the merge, and either move
        # to the outputs or drop at the bottommost level.
        job_tombstones = dedupe(
            tombstone
            for table in input_tables
            for tombstone in table.range_tombstones
        )

        # Each per-input list is dropped once its successor exists: the
        # merge's transient lists set each worker thread's heap high-water
        # mark, which stays resident.
        order, groups = merge_order(keys, entries)
        del keys
        ordered = list(map(entries.__getitem__, order))
        del entries
        # The spans reconcile must see, in key order: every multi-version
        # key and every lone version reconcile may change — or, under
        # range tombstones, every key, since any may be covered. Any
        # other version survives as it is.
        if job_tombstones:
            singles: Iterable[int] = range(len(ordered))
        else:
            changes_alone = _CHANGED_ALONE[bottommost].__contains__
            singles = compress(
                count(),
                map(changes_alone, map(attrgetter("kind"), ordered)),
            )
        grouped = {
            index for start, stop in groups for index in range(start, stop)
        }
        spans = sorted(
            groups
            + [(index, index + 1) for index in singles if index not in grouped]
        )

        # Survivors carry their input position, which locates their digest.
        # Counted locally and added to the shared stats once per job.
        survivors: List[Entry] = []
        positions: List[int] = []
        garbage_total = 0
        dropped_total = 0
        done = 0
        for start, stop in spans:
            survivors += ordered[done:start]
            positions += order[done:start]
            done = stop
            versions = ordered[start:stop]
            if job_tombstones:
                cover_seqno = max_covering_seqno(
                    job_tombstones, versions[0].key
                )
                if cover_seqno >= 0:
                    live = [v for v in versions if v.seqno > cover_seqno]
                    garbage_total += len(versions) - len(live)
                    versions = live
                    if not versions:
                        continue
            survivor, garbage, dropped = reconcile(
                versions, bottommost, self.merge_operator
            )
            garbage_total += garbage
            if dropped:
                dropped_total += dropped
                self.stats.add_sample(
                    "tombstone_drop_ages_us",
                    self.disk.now_us - versions[0].stamp_us,
                )
            if survivor is not None:
                survivors.append(survivor)
                positions.append(order[start])
        survivors += ordered[done:]
        positions += order[done:]
        del ordered, order
        self.stats.incr("entries_garbage_collected", garbage_total)
        if dropped_total:
            self.stats.incr("tombstones_dropped", dropped_total)

        if bottommost and job_tombstones:
            self.stats.incr("range_tombstones_dropped", len(job_tombstones))
            for tombstone in job_tombstones:
                self.stats.add_sample(
                    "range_tombstone_drop_ages_us",
                    self.disk.now_us - tombstone.stamp_us,
                )
            carried_tombstones: List[RangeTombstone] = []
        else:
            carried_tombstones = job_tombstones

        output_tables = self.build_tables(
            survivors,
            cause="compaction",
            level_index=job.target_level,
            range_tombstones=carried_tombstones,
            digests=b"".join([table.digests for table in input_tables]),
            positions=positions,
        )
        self.stats.incr(
            "compaction_bytes_written",
            sum(table.data_bytes for table in output_tables),
        )
        return output_tables

    def build_tables(
        self,
        entries: List[Entry],
        cause: str = "compaction",
        level_index: int = 0,
        range_tombstones: Optional[List[RangeTombstone]] = None,
        digests: Optional[bytes] = None,
        positions: Optional[List[int]] = None,
    ) -> List[SSTable]:
        """Split merged entries into SSTables of about the target file size.

        A compaction passes its inputs' packed ``digests`` and, per entry,
        the ``positions`` of its digest there: each output table's digests
        are gathered from them, so no key is hashed again. Without them
        (a flush) every table hashes its keys.

        Range tombstones are *fragmented* at the output file boundaries
        (RocksDB's approach): consecutive files own consecutive key slices
        whose union covers the whole effective range, and each file carries
        only its slice of each tombstone. Fragmenting keeps a later partial
        compaction of one file from dragging the tombstone's entire span
        along. When no point entries survive but tombstones must persist,
        one tombstone-only carrier file is emitted.
        """
        tombstones = list(range_tombstones or [])
        sizes = [entry.size for entry in entries]
        bounds = split_by_size(sizes, self.config.target_file_bytes)
        chunks = [entries[start:stop] for start, stop, _ in bounds]
        chunk_sizes = [sizes[start:stop] for start, stop, _ in bounds]
        chunk_digests: List[Optional[bytes]] = [None] * len(bounds)
        if digests is not None and positions is not None:
            width = DIGEST_BYTES
            chunk_digests = [
                b"".join([
                    digests[width * position:width * (position + 1)]
                    for position in positions[start:stop]
                ])
                for start, stop, _ in bounds
            ]

        if not tombstones:
            return [
                self._build_one(part, part_sizes, cause, level_index, None,
                                part_digests)
                for part, part_sizes, part_digests in zip(
                    chunks, chunk_sizes, chunk_digests
                )
            ]

        # Output-slice boundaries spanning the full effective range.
        span_lo = min(t.lo for t in tombstones)
        span_hi = max(t.hi for t in tombstones)
        if chunks:
            span_lo = min(span_lo, chunks[0][0].key)
            span_hi = max(span_hi, chunks[-1][-1].key + "\x00")
        if not chunks:
            return [
                self._build_one([], [], cause, level_index, tombstones)
            ]
        boundaries = [span_lo]
        boundaries += [part[0].key for part in chunks[1:]]
        boundaries.append(span_hi)

        outputs: List[SSTable] = []
        for index, part in enumerate(chunks):
            slice_lo, slice_hi = boundaries[index], boundaries[index + 1]
            fragments = []
            for tombstone in tombstones:
                lo = max(tombstone.lo, slice_lo)
                hi = min(tombstone.hi, slice_hi)
                if lo < hi:
                    fragments.append(
                        RangeTombstone(
                            lo, hi, tombstone.seqno, tombstone.stamp_us
                        )
                    )
            outputs.append(
                self._build_one(
                    part,
                    chunk_sizes[index],
                    cause,
                    level_index,
                    fragments or None,
                    chunk_digests[index],
                )
            )
        return outputs

    def _build_one(
        self,
        entries: List[Entry],
        sizes: List[int],
        cause: str,
        level_index: int,
        range_tombstones: Optional[List[RangeTombstone]] = None,
        digests: Optional[bytes] = None,
    ) -> SSTable:
        if self.bits_for_level is not None:
            bits_per_key = self.bits_for_level(level_index)
        else:
            bits_per_key = self.config.filter_bits_per_key
        return SSTable.build(
            entries,
            disk=self.disk,
            block_bytes=self.config.block_bytes,
            fence_pointers=self.config.fence_pointers,
            filter_bits_per_key=bits_per_key,
            cause=cause,
            range_tombstones=range_tombstones,
            sizes=sizes,
            digests=digests,
        )

    def _trivial_move(self, job: CompactionJob, levels: List[Level]) -> None:
        """Relink non-overlapping files into the target level, I/O-free."""
        source = levels[job.source_level]
        target = levels[job.target_level]
        self._drop_source_inputs(job, source)
        if target.runs:
            target.runs[0] = target.runs[0].replace_tables(
                [], job.source_tables
            )
        else:
            target.add_run_newest(SortedRun(job.source_tables))

    def _splice(
        self,
        job: CompactionJob,
        levels: List[Level],
        outputs: List[SSTable],
        target_leveled: bool,
    ) -> None:
        source = levels[job.source_level]
        target = levels[job.target_level]
        self._drop_source_inputs(job, source)

        if target_leveled:
            if target.runs:
                target.runs[0] = target.runs[0].replace_tables(
                    job.target_tables, outputs
                )
                if not target.runs[0].tables:
                    target.runs.pop(0)
            elif outputs:
                target.add_run_newest(SortedRun(outputs))
        else:
            if job.target_tables:
                raise ValueError(
                    "tiered targets never merge with existing runs"
                )
            if outputs:
                target.add_run_newest(SortedRun(outputs))

    @staticmethod
    def _drop_source_inputs(job: CompactionJob, source: Level) -> None:
        for run in job.source_runs:
            source.remove_run(run)
        if job.source_tables:
            drop_ids = {table.table_id for table in job.source_tables}
            remaining_runs: List[SortedRun] = []
            for run in source.runs:
                if any(table.table_id in drop_ids for table in run.tables):
                    new_run = run.replace_tables(job.source_tables, [])
                    if new_run.tables:
                        remaining_runs.append(new_run)
                else:
                    remaining_runs.append(run)
            source.runs = remaining_runs

    def refresh_cache(
        self, job: CompactionJob, outputs: List[SSTable]
    ) -> None:
        """Invalidate retired files; optionally prefetch hot output blocks.

        Dropping the inputs' cached blocks is the compaction-induced
        eviction of §2.1.3; the prefetch pass is the Leaper-style remedy.
        """
        if self.cache is None:
            return
        retired = list(job.source_tables) + list(job.target_tables)
        for run in job.source_runs:
            retired.extend(run.tables)
        for table in retired:
            self.cache.invalidate_table(table.table_id)

        if self.heat is None or not self.config.cache_prefetch:
            return
        for table in outputs:
            for block_index, block in enumerate(table.blocks):
                if self.heat.heat_of(block.first_key, block.last_key) >= 1.0:
                    # Leaper prefetches right after compaction: the read is
                    # charged off the query path, tagged separately.
                    self.disk.read(block.nbytes, cause="prefetch")
                    self.cache.insert(
                        (table.table_id, block_index), block.nbytes
                    )
                    self.cache.stats.prefetched_blocks += 1
