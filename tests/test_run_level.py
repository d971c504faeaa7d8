"""Unit tests for sorted runs and levels."""

import pytest

from repro.core.entry import put
from repro.core.level import Level
from repro.core.run import SortedRun
from repro.core.sstable import ReadContext, SSTable
from repro.core.tree import LSMTree


def table_for_range(disk, lo, hi, seqno_base=0):
    entries = [
        put(f"key{i:05d}", f"v{i}", seqno_base + i - lo) for i in range(lo, hi)
    ]
    return SSTable.build(entries, disk=disk, block_bytes=256)


class TestSortedRun:
    def test_orders_tables_by_min_key(self, disk):
        t_high = table_for_range(disk, 100, 150)
        t_low = table_for_range(disk, 0, 50)
        run = SortedRun([t_high, t_low])
        assert run.tables[0].min_key == "key00000"
        assert run.min_key == "key00000"
        assert run.max_key == "key00149"

    def test_rejects_overlapping_tables(self, disk):
        a = table_for_range(disk, 0, 60)
        b = table_for_range(disk, 50, 100)
        with pytest.raises(ValueError):
            SortedRun([a, b])

    def test_table_for_dispatches(self, disk):
        run = SortedRun(
            [table_for_range(disk, 0, 50), table_for_range(disk, 100, 150)]
        )
        assert run.table_for("key00010") is run.tables[0]
        assert run.table_for("key00120") is run.tables[1]
        assert run.table_for("key00075") is None  # in the gap
        assert run.table_for("zzz") is None

    def test_get(self, disk):
        run = SortedRun([table_for_range(disk, 0, 50)])
        ctx = ReadContext(disk)
        assert run.get("key00030", ctx).value == "v30"
        assert run.get("key00099", ctx) is None

    def test_aggregates(self, disk):
        run = SortedRun(
            [table_for_range(disk, 0, 50), table_for_range(disk, 100, 120)]
        )
        assert run.entry_count == 70
        assert run.data_bytes > 0
        assert run.tombstone_count == 0

    def test_iter_range_spans_files(self, disk):
        run = SortedRun(
            [table_for_range(disk, 0, 50), table_for_range(disk, 50, 100)]
        )
        ctx = ReadContext(disk)
        keys = [e.key for e in run.iter_range("key00045", "key00055", ctx)]
        assert keys == [f"key{i:05d}" for i in range(45, 55)]

    def test_replace_tables(self, disk):
        a = table_for_range(disk, 0, 50)
        b = table_for_range(disk, 50, 100)
        replacement = table_for_range(disk, 0, 40)
        run = SortedRun([a, b])
        updated = run.replace_tables([a], [replacement])
        assert len(updated) == 2
        assert updated.min_key == "key00000"
        assert updated.get("key00045", ReadContext(disk)) is None

    def test_overlapping_tables(self, disk):
        a = table_for_range(disk, 0, 50)
        b = table_for_range(disk, 100, 150)
        run = SortedRun([a, b])
        assert run.overlapping_tables("key00120", "key00200") == [b]
        assert run.overlapping_tables("key00000", "key00200") == [a, b]


class TestLevel:
    def test_validation(self):
        with pytest.raises(ValueError):
            Level(-1, 100)
        with pytest.raises(ValueError):
            Level(0, 0)

    def test_capacity_flag(self, disk):
        level = Level(1, 100)
        level.add_run_newest(SortedRun([table_for_range(disk, 0, 50)]))
        assert level.is_over_capacity

    def test_newest_run_wins_lookup(self, disk):
        stale = SSTable.build(
            [put("key1", "old", 1)], disk=disk, block_bytes=256
        )
        fresh = SSTable.build(
            [put("key1", "new", 2)], disk=disk, block_bytes=256
        )
        tree = LSMTree(disk=disk)
        level = tree._ensure_level(0)
        level.add_run_newest(SortedRun([stale]))
        level.add_run_newest(SortedRun([fresh]))
        assert tree.get("key1") == "new"
        assert tree.stats.runs_probed == 1  # terminated at the first match

    def test_probes_all_runs_on_miss(self, disk):
        tree = LSMTree(disk=disk)
        level = tree._ensure_level(0)
        level.add_run_newest(SortedRun([table_for_range(disk, 0, 10)]))
        level.add_run_newest(SortedRun([table_for_range(disk, 0, 10, 100)]))
        assert tree.get("zzz") is None
        assert tree.stats.runs_probed == 2

    def test_aggregates_and_removal(self, disk):
        level = Level(2, 10**6)
        run_a = SortedRun([table_for_range(disk, 0, 10)])
        run_b = SortedRun([table_for_range(disk, 20, 40, 100)])
        level.add_run_newest(run_a)
        level.add_run_oldest(run_b)
        assert level.run_count == 2
        assert level.entry_count == 30
        level.remove_run(run_a)
        assert level.run_count == 1
        assert not level.is_empty

    def test_overlapping_run_bytes(self, disk):
        level = Level(1, 10**6)
        level.add_run_newest(
            SortedRun(
                [table_for_range(disk, 0, 50), table_for_range(disk, 100, 150)]
            )
        )
        full = level.overlapping_run_bytes("key00000", "key00200")
        partial = level.overlapping_run_bytes("key00000", "key00049")
        assert 0 < partial < full
        assert level.overlapping_run_bytes("zz", "zzz") == 0
