"""Unit tests for sorted runs and levels."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.entry import put
from repro.core.level import Level
from repro.core.range_tombstone import RangeTombstone
from repro.core.run import SortedRun
from repro.core.sstable import ReadContext, SSTable
from repro.core.tree import LSMTree
from repro.storage.disk import SimulatedDisk


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


# -- overlap queries against the linear definition ---------------------------


def grid_key(index):
    return f"g{index:04d}"


def effective_bounds(table):
    """A table's effective range, derived here from its parts: point data
    widened by every range-tombstone span it carries."""
    los = [table.min_key] + [t.lo for t in table.range_tombstones]
    his = [table.max_key] + [t.hi for t in table.range_tombstones]
    return min(los), max(his)


def linear_overlap(tables, lo, hi):
    """The definition: every file whose effective range meets [lo, hi]."""
    hits = []
    for table in tables:
        eff_lo, eff_hi = effective_bounds(table)
        if eff_lo <= hi and lo <= eff_hi:
            hits.append(table)
    return hits


@st.composite
def run_specs(draw):
    """Key-disjoint files over a small key grid. Each file is plain points,
    points plus range-tombstone fragments reaching past them (into the gaps
    and over the neighbouring files), or a tombstone-only carrier."""
    points = sorted(
        draw(st.lists(st.integers(0, 300), max_size=40, unique=True))
    )
    files = []
    start = 0
    while start < len(points):
        size = draw(st.integers(1, 6))
        group = points[start:start + size]
        start += size
        kind = draw(st.sampled_from(["plain", "widened", "carrier"]))
        spans = []
        if kind == "carrier":
            lo = grid_key(group[0])
            spans.append((lo, grid_key(group[-1]) + "\x00"))
        elif kind == "widened":
            for _ in range(draw(st.integers(1, 3))):
                below = draw(st.integers(0, 40))
                above = draw(st.integers(1, 40))
                spans.append(
                    (
                        grid_key(max(0, group[0] - below)),
                        grid_key(group[-1] + above),
                    )
                )
        files.append((kind, group, spans))
    return files


def build_run(specs, disk, seqno=1):
    tables = []
    for kind, group, spans in specs:
        entries = (
            []
            if kind == "carrier"
            else [put(grid_key(i), "v" * (i % 7 + 1), seqno) for i in group]
        )
        tombstones = [
            RangeTombstone(lo, hi, seqno + 1, 0.0) for lo, hi in spans
        ]
        tables.append(
            SSTable.build(
                entries, disk, block_bytes=64, range_tombstones=tombstones
            )
        )
    return SortedRun(tables)


def query_keys(data, runs):
    """A query bound: any grid key, or one of the run's own boundaries (so
    queries land exactly on a ``min_key`` / ``max_key`` / span end)."""
    boundaries = [
        bound
        for run in runs
        for table in run.tables
        for bound in (table.min_key, table.max_key) + effective_bounds(table)
    ]
    choices = st.integers(0, 340).map(grid_key)
    if boundaries:
        choices = st.one_of(choices, st.sampled_from(boundaries))
    return data.draw(choices), data.draw(choices)


class TestOverlapMatchesLinearDefinition:
    @settings(max_examples=150, deadline=None)
    @given(specs=run_specs(), data=st.data())
    def test_overlapping_tables(self, specs, data):
        run = build_run(specs, SimulatedDisk())
        for _ in range(8):
            lo, hi = query_keys(data, [run])  # lo > hi is drawn too
            assert run.overlapping_tables(lo, hi) == linear_overlap(
                run.tables, lo, hi
            )
        for table in run.tables:
            assert (
                table.effective_min_key,
                table.effective_max_key,
            ) == effective_bounds(table)

    @settings(max_examples=100, deadline=None)
    @given(
        layers=st.lists(run_specs(), max_size=3),
        data=st.data(),
    )
    def test_overlapping_run_bytes(self, layers, data):
        disk = SimulatedDisk()
        level = Level(1, 10**9)  # zero runs: the empty level
        for depth, specs in enumerate(layers):
            level.add_run_oldest(build_run(specs, disk, seqno=10 * depth + 1))
        for _ in range(8):
            lo, hi = query_keys(data, level.runs)
            expected = sum(
                table.data_bytes
                for run in level.runs
                for table in linear_overlap(run.tables, lo, hi)
            )
            assert level.overlapping_run_bytes(lo, hi) == expected

    def test_boundary_queries(self, disk):
        # Points g0010..g0012 with a fragment reaching to g0020, then
        # g0030..g0031, then a carrier over g0040..g0045.
        run = build_run(
            [
                ("widened", [10, 12], [("g0010", "g0020")]),
                ("plain", [30, 31], []),
                ("carrier", [40, 45], [("g0040", "g0045\x00")]),
            ],
            disk,
        )
        first, second, carrier = run.tables
        assert run.overlapping_tables("g0020", "g0029") == [first]
        assert run.overlapping_tables("g0021", "g0029") == []
        assert run.overlapping_tables("g0025", "g0030") == [second]
        assert run.overlapping_tables("g0031", "g0040") == [second, carrier]
        assert run.overlapping_tables("g0045\x00", "zz") == [carrier]
        # lo > hi: matches exactly the files whose range holds [hi, lo].
        assert run.overlapping_tables("g0015", "g0011") == [first]
        assert run.overlapping_tables("g0035", "g0032") == []
        assert SortedRun([]).overlapping_tables("a", "z") == []
