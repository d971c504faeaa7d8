"""The compaction merge decides what the heap merge decided, and a key is
hashed once in its lifetime.

The merge sorts the concatenated inputs once instead of draining a heap
of per-source iterators. Its oracle below is the heap merge kept
verbatim: ``reference_versions`` groups every version of every key
across the sources (newest first, equal seqnos in source order) and
``reference_merge`` runs the range-tombstone cover test, ``reconcile``
and the drop-age sample per group. The property test compares the two
on generated jobs: survivors in order, garbage-collected and dropped
counts, and the drop-age sample sequence.

The hash-once tests count ``blake2b`` calls rather than time anything:
a flush hashes each flushed key once, a compaction hashes nothing, and
every live table's digests and filter bytes are those of its keys.
"""

import hashlib
import heapq
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import LSMTree, rocksdb_like
from repro.compaction.executor import CompactionExecutor, reconcile
from repro.compaction.primitives import CompactionJob, Trigger
from repro.core.config import LSMConfig
from repro.core.entry import Entry, EntryKind
from repro.core.merge_operator import StringAppendOperator
from repro.core.range_tombstone import (
    RangeTombstone,
    dedupe,
    max_covering_seqno,
)
from repro.core.run import SortedRun
from repro.core.sstable import SSTable, split_by_size
from repro.core.stats import TreeStats
from repro.filters.bloom import BloomFilter, key_digests
from repro.storage.disk import SimulatedDisk


def reference_versions(sources):
    """Group every version of every key across sorted input streams:
    ``(key, versions)`` in key order, versions newest first."""
    heap = []
    for order, source in enumerate(sources):
        iterator = iter(source)
        first = next(iterator, None)
        if first is not None:
            heapq.heappush(
                heap, (first.key, -first.seqno, order, first, iterator)
            )
    current_key = None
    group = []
    while heap:
        key, _neg, order, entry, iterator = heap[0]
        successor = next(iterator, None)
        if successor is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(
                heap, (successor.key, -successor.seqno, order, successor,
                       iterator)
            )
        if key != current_key:
            if current_key is not None:
                yield current_key, group
            current_key = key
            group = []
        group.append(entry)
    if current_key is not None:
        yield current_key, group


def reference_merge(sources, bottommost, operator, job_tombstones):
    """Survivors, garbage, dropped and the drop-sample stamps, in order."""
    garbage_total = 0
    dropped_total = 0
    survivors = []
    drop_stamps = []
    for key, versions in reference_versions(sources):
        if job_tombstones:
            cover_seqno = max_covering_seqno(job_tombstones, key)
            if cover_seqno >= 0:
                live = [v for v in versions if v.seqno > cover_seqno]
                garbage_total += len(versions) - len(live)
                versions = live
                if not versions:
                    continue
        survivor, garbage, dropped = reconcile(versions, bottommost, operator)
        garbage_total += garbage
        if dropped:
            dropped_total += dropped
            drop_stamps.append(versions[0].stamp_us)
        if survivor is not None:
            survivors.append(survivor)
    return survivors, garbage_total, dropped_total, drop_stamps


# -- generated jobs ----------------------------------------------------------

KEYS = ["a", "b", "c", "d", "e", "f", "g", "é", "鍵"]
KINDS = [EntryKind.PUT, EntryKind.DELETE, EntryKind.SINGLE_DELETE,
         EntryKind.MERGE]


@st.composite
def sorted_stream(draw):
    """A key-unique sorted stream; small seqnos make equal-seqno ties
    across streams common."""
    keys = sorted(draw(st.sets(st.sampled_from(KEYS), min_size=1,
                               max_size=len(KEYS))))
    entries = []
    for key in keys:
        kind = draw(st.sampled_from(KINDS))
        seqno = draw(st.integers(0, 5))
        value = None
        if kind in (EntryKind.PUT, EntryKind.MERGE):
            value = f"{key}{seqno}{draw(st.sampled_from('xyz'))}"
        stamp = float(draw(st.integers(0, 40)))
        entries.append(Entry(key, value, seqno, kind, stamp))
    return entries


@st.composite
def range_tombstones(draw):
    tombstones = []
    for _ in range(draw(st.integers(0, 2))):
        lo, hi = sorted(draw(st.sets(st.sampled_from(KEYS), min_size=2,
                                     max_size=2)))
        tombstones.append(
            RangeTombstone(lo, hi, draw(st.integers(0, 5)),
                           float(draw(st.integers(0, 40))))
        )
    return tombstones


def tables_of(disk, entries, cut, tombstones=None):
    """One stream as one or two consecutive key-disjoint tables."""
    cut = min(cut, len(entries) - 1)
    parts = [entries[:cut], entries[cut:]] if cut > 0 else [entries]
    tables = [SSTable.build(part, disk=disk, block_bytes=24)
              for part in parts]
    if tombstones:
        tables[0] = SSTable.build(parts[0], disk=disk, block_bytes=24,
                                  range_tombstones=tombstones)
    return tables


@st.composite
def jobs(draw):
    disk = SimulatedDisk()
    runs = [
        SortedRun(tables_of(disk, draw(sorted_stream()),
                            draw(st.integers(0, 4)),
                            draw(range_tombstones())))
        for _ in range(draw(st.integers(0, 3)))
    ]
    source_tables = []
    if draw(st.booleans()):
        source_tables = tables_of(disk, draw(sorted_stream()),
                                  draw(st.integers(0, 4)),
                                  draw(range_tombstones()))
    target_tables = []
    if draw(st.booleans()) or not (runs or source_tables):
        target_tables = tables_of(disk, draw(sorted_stream()),
                                  draw(st.integers(0, 4)),
                                  draw(range_tombstones()))
    job = CompactionJob(
        source_level=1,
        target_level=2,
        source_runs=runs,
        source_tables=source_tables,
        target_tables=target_tables,
        trigger=Trigger.MANUAL,
    )
    return disk, job


def source_streams(job):
    """The heap merge's sources, in its order."""
    streams = [list(run.iter_entries()) for run in job.source_runs]
    streams += [list(table.iter_entries()) for table in job.source_tables]
    streams += [list(table.iter_entries()) for table in job.target_tables]
    return streams


def fields_of(entry):
    return (entry.key, entry.value, entry.seqno, entry.kind, entry.stamp_us)


class TestMergeMatchesHeapMerge:
    @given(generated=jobs(), bottommost=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_survivors_counts_and_samples(self, generated, bottommost):
        disk, job = generated
        operator = StringAppendOperator()
        tables = list(job.source_tables) + list(job.target_tables)
        for run in job.source_runs:
            tables.extend(run.tables)
        job_tombstones = dedupe(
            t for table in tables for t in table.range_tombstones
        )
        expected, garbage, dropped, stamps = reference_merge(
            source_streams(job), bottommost, operator, job_tombstones
        )

        stats = TreeStats()
        samples = []
        stats.add_sample = lambda series, value: samples.append(
            (series, value, disk.now_us)
        )
        executor = CompactionExecutor(
            LSMConfig(target_file_bytes=40, block_bytes=24),
            disk, stats, merge_operator=operator,
        )
        outputs = executor.merge_job(job, bottommost)
        merged = [
            entry
            for table in outputs
            for block in table.blocks
            for entry in block.entries
        ]
        assert [fields_of(e) for e in merged] == [
            fields_of(e) for e in expected
        ]
        assert stats.entries_garbage_collected == garbage
        assert stats.tombstones_dropped == dropped
        point_samples = [
            (value, now) for series, value, now in samples
            if series == "tombstone_drop_ages_us"
        ]
        assert [value for value, _ in point_samples] == [
            now - stamp for (_, now), stamp in zip(point_samples, stamps)
        ]
        assert len(point_samples) == len(stamps)


def reference_split(sizes, limit):
    """The greedy one-item-at-a-time splitter."""
    slices = []
    start = 0
    nbytes = 0
    for index, size in enumerate(sizes):
        if index > start and nbytes + size > limit:
            slices.append((start, index, nbytes))
            start = index
            nbytes = 0
        nbytes += size
    if start < len(sizes):
        slices.append((start, len(sizes), nbytes))
    return slices


class TestSplitBySize:
    @given(
        sizes=st.lists(st.integers(0, 60), max_size=80),
        limit=st.integers(0, 150),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_slices_as_the_greedy_loop(self, sizes, limit):
        assert split_by_size(sizes, limit) == reference_split(sizes, limit)


# -- hash once per key lifetime ------------------------------------------------


@pytest.fixture
def blake2b_calls(monkeypatch):
    """Count every ``hashlib.blake2b`` call made while the test runs."""
    calls = []
    real = hashlib.blake2b

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "blake2b", counted)
    return calls


def small_config(**overrides):
    shape = dict(buffer_size_bytes=4096, target_file_bytes=2048,
                 block_bytes=256)
    return rocksdb_like().with_overrides(**{**shape, **overrides})


def seeded_stream(tree, batches=1500, keys=4000, seed=26):
    """Puts, point deletes and range deletes over a small key space."""
    rng = random.Random(seed)
    for index in range(batches):
        ops = []
        for _ in range(8):
            name = f"k{rng.randrange(keys):06d}"
            if rng.random() < 0.1:
                ops.append(("delete", name, None))
            else:
                ops.append(("put", name, f"{name}:{index}:".ljust(40, "x")))
        tree.write_batch(ops)
        if index % 150 == 149:
            lo = rng.randrange(keys - 100)
            tree.delete_range(f"k{lo:06d}", f"k{lo + 40:06d}")


def live_tables(tree):
    return [
        table
        for level in tree.levels
        for run in level.runs
        for table in run.tables
    ]


def keys_of(table):
    return [key for block in table.blocks for key in block.keys]


class TestHashOnce:
    def test_compaction_hashes_nothing(self, blake2b_calls):
        tree = LSMTree(small_config())
        seeded_stream(tree, batches=600)
        tree.flush()
        compactions = tree.stats.compactions
        del blake2b_calls[:]
        tree.compact_all()
        assert tree.stats.compactions > compactions  # the phase merged
        assert len(blake2b_calls) == 0

    def test_flush_hashes_each_flushed_key_once(self, blake2b_calls):
        tree = LSMTree(small_config(buffer_size_bytes=1 << 20))
        names = [f"k{i:06d}" for i in range(0, 3000, 3)]
        tree.write_batch([("put", name, "v" * 20) for name in names])
        tree.write_batch([("put", names[0], "newer")])  # same key again
        tree.delete(names[1])
        del blake2b_calls[:]
        tree.flush()
        assert tree.stats.flushes == 1
        assert len(blake2b_calls) == len(names)

    @pytest.mark.parametrize("allocation", ["uniform", "monkey"])
    def test_live_tables_carry_their_keys_digests(self, allocation):
        tree = LSMTree(small_config(filter_allocation=allocation))
        seeded_stream(tree)
        tree.flush()
        tables = live_tables(tree)
        assert tree.stats.compactions > 0 and len(tables) > 1
        for table in tables:
            keys = keys_of(table)
            assert table.digests == key_digests(keys)
            if table.bloom is None:
                continue
            fresh = BloomFilter(table.bloom.num_bits, table.bloom.num_hashes)
            for key in keys:
                fresh.add(key)
            assert table.bloom._bits == fresh._bits
            if allocation == "uniform":
                rebuilt = BloomFilter.for_keys(
                    keys, tree.config.filter_bits_per_key
                )
                assert table.bloom._bits == rebuilt._bits
