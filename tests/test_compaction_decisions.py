"""Compaction decisions are pinned, and choosing a victim stays cheap.

A seeded write stream (puts, point deletes, range deletes, and reads of a
hot key range, which is what separates ``coldest`` from ``oldest``) runs
through a small
synchronous ``rocksdb_like()`` tree once per data-movement policy. Every
job is recorded as (source level, victim ``min_key``, target-table count,
output count) and the run ends with the tree's compaction counters and the
device's bytes written. The constants were recorded from the linear-scan
overlap implementation; planning by bisection must reproduce them exactly,
so a change to how compactions are *planned* cannot silently change what
they *do*.
"""

import hashlib
import random

import pytest

from repro import LSMTree, rocksdb_like
from repro.compaction.picker import LeastOverlapPicker, MostTombstonesPicker
from repro.core.entry import put
from repro.core.level import Level
from repro.core.run import SortedRun
from repro.core.sstable import SSTable

KEYS = 8000
BATCHES = 3000
BATCH_OPS = 8


def key(index):
    return f"k{index:06d}"


def drive(picker):
    """Run the seeded stream; return the job trace and the final totals."""
    config = rocksdb_like().with_overrides(
        buffer_size_bytes=4096,
        target_file_bytes=2048,
        block_bytes=256,
        picker=picker,
    )
    tree = LSMTree(config)
    jobs = []
    execute = tree.executor.execute

    def recording(job, levels, bottommost, target_leveled):
        outputs = execute(job, levels, bottommost, target_leveled)
        victim = job.source_tables[0].min_key if job.source_tables else None
        jobs.append(
            (job.source_level, victim, len(job.target_tables), len(outputs))
        )
        return outputs

    tree.executor.execute = recording
    rng = random.Random(25)
    for index in range(BATCHES):
        ops = []
        for _ in range(BATCH_OPS):
            name = key(rng.randrange(KEYS))
            if rng.random() < 0.1:
                ops.append(("delete", name, None))
            else:
                ops.append(("put", name, f"{name}:{index}:".ljust(40, "x")))
        tree.write_batch(ops)
        for _ in range(3):
            tree.get(key(rng.randrange(KEYS // 8)))
        if index % 150 == 149:
            lo = rng.randrange(KEYS - 100)
            tree.delete_range(key(lo), key(lo + rng.randrange(5, 60)))
    stats = tree.stats
    totals = (
        stats.compactions,
        stats.entries_garbage_collected,
        stats.tombstones_dropped,
        stats.flushes,
        tree.disk.counters.bytes_written,
    )
    return jobs, totals


def digest(jobs):
    return hashlib.sha256(repr(jobs).encode()).hexdigest()[:16]


#: picker -> (jobs, sha256 of the job trace, (compactions,
#: entries_garbage_collected, tombstones_dropped, flushes, bytes_written)).
GOLDEN = {
    "round_robin": (
        709, "7daf01b3d95ba3bc", (606, 11689, 1052, 295, 10761584)
    ),
    "least_overlap": (
        729, "b5a4596365ffb12c", (664, 11597, 1070, 295, 10772903)
    ),
    "most_tombstones": (
        701, "132445c09899972f", (692, 12786, 1507, 295, 12777089)
    ),
    "coldest": (
        640, "da2b2ba4a08d4047", (606, 14721, 1252, 295, 23328335)
    ),
    "oldest": (
        640, "cd2ae7d16152e6b3", (606, 14721, 1252, 295, 23328335)
    ),
}


@pytest.mark.parametrize("picker", sorted(GOLDEN))
def test_decision_trace_is_pinned(picker):
    jobs, totals = drive(picker)
    assert (len(jobs), digest(jobs), totals) == GOLDEN[picker]


class TestPickCost:
    """A pick asks one overlap question per victim candidate, answered by
    bisection: the per-table predicate is not evaluated per (file, file)
    pair. Counted, not timed."""

    @staticmethod
    def level_of(index, disk, starts, width):
        level = Level(index, 10**9)
        tables = [
            SSTable.build(
                [put(key(start + offset), "v", 1) for offset in range(width)],
                disk=disk,
            )
            for start in starts
        ]
        level.add_run_newest(SortedRun(tables))
        return level

    @pytest.mark.parametrize(
        "picker_class", [LeastOverlapPicker, MostTombstonesPicker]
    )
    def test_pick_does_not_scan_pairs(self, disk, monkeypatch, picker_class):
        # 64 source files against 211 target files over one key space.
        source = self.level_of(1, disk, range(0, 64 * 33, 33), 4)
        target = self.level_of(2, disk, range(0, 211 * 10, 10), 3)
        calls = []
        predicate = SSTable.key_range_overlaps

        def counted(table, lo, hi):
            calls.append(table)
            return predicate(table, lo, hi)

        monkeypatch.setattr(SSTable, "key_range_overlaps", counted)
        victim = picker_class().pick(source, target)
        assert victim in source.runs[0].tables
        assert len(calls) <= 64
