"""Unit tests for compaction primitives, layouts, pickers, and reconcile."""

import itertools

import pytest

from repro.compaction.executor import merge_order, reconcile
from repro.compaction.layouts import (
    BushLayout,
    HybridLayout,
    LazyLevelingLayout,
    LevelingLayout,
    TieringLayout,
    make_layout,
)
from repro.compaction.picker import make_picker
from repro.compaction.primitives import (
    CompactionSpec,
    Granularity,
    enumerate_design_space,
)
from repro.core.config import LSMConfig
from repro.core.entry import put, single_delete, tombstone
from repro.core.level import Level
from repro.core.run import SortedRun
from repro.core.sstable import ReadContext, SSTable
from repro.errors import ConfigError


class TestLayouts:
    def test_leveling(self):
        layout = LevelingLayout(level0_run_limit=4)
        assert layout.max_runs(0, 3) == 4
        assert layout.max_runs(1, 3) == 1
        assert layout.is_leveled(2, 3)

    def test_tiering(self):
        layout = TieringLayout(size_ratio=5)
        assert layout.max_runs(1, 3) == 5
        assert not layout.is_leveled(3, 3)

    def test_lazy_leveling_last_level_leveled(self):
        layout = LazyLevelingLayout(size_ratio=4)
        assert layout.max_runs(1, 3) == 4
        assert layout.max_runs(3, 3) == 1
        assert layout.is_leveled(3, 3)
        assert not layout.is_leveled(2, 3)

    def test_hybrid(self):
        layout = HybridLayout(size_ratio=4, tiered_levels=2)
        assert layout.max_runs(0, 5) == 4
        assert layout.max_runs(1, 5) == 4
        assert layout.max_runs(2, 5) == 1

    def test_bush_caps_grow_toward_shallow(self):
        layout = BushLayout(size_ratio=3)
        last = 4
        caps = [layout.max_runs(i, last) for i in range(last + 1)]
        assert caps[-1] == 1
        assert all(a >= b for a, b in zip(caps, caps[1:]))
        assert caps[0] <= BushLayout.MAX_RUN_CAP

    def test_factory_covers_all(self):
        for name in ["leveling", "tiering", "lazy_leveling", "hybrid", "bush"]:
            layout = make_layout(LSMConfig(layout=name))
            assert layout.name == name


class TestReconcile:
    def test_put_survives(self):
        survivor, garbage, dropped = reconcile([put("a", "new", 5)], False)
        assert survivor.value == "new"
        assert garbage == 0 and dropped == 0

    def test_older_versions_counted_garbage(self):
        versions = [put("a", "v2", 5), put("a", "v1", 1)]
        survivor, garbage, dropped = reconcile(versions, False)
        assert survivor.value == "v2"
        assert garbage == 1

    def test_tombstone_survives_above_bottom(self):
        versions = [tombstone("a", 5), put("a", "v", 1)]
        survivor, garbage, dropped = reconcile(versions, False)
        assert survivor.is_tombstone
        assert garbage == 1 and dropped == 0

    def test_tombstone_dropped_at_bottom(self):
        versions = [tombstone("a", 5), put("a", "v", 1)]
        survivor, garbage, dropped = reconcile(versions, True)
        assert survivor is None
        assert garbage == 1 and dropped == 1

    def test_single_delete_annihilates_pair(self):
        versions = [single_delete("a", 5), put("a", "v", 1)]
        survivor, garbage, dropped = reconcile(versions, False)
        assert survivor is None
        assert dropped == 1

    def test_single_delete_waits_for_match(self):
        survivor, _garbage, dropped = reconcile([single_delete("a", 5)], False)
        assert survivor is not None and survivor.is_tombstone
        assert dropped == 0

    def test_single_delete_moot_at_bottom(self):
        survivor, _g, dropped = reconcile([single_delete("a", 5)], True)
        assert survivor is None
        assert dropped == 1


def all_versions(*sources):
    """``(key, versions)`` groups of the sources laid end to end, in the
    merge order :func:`merge_order` gives them."""
    entries = [entry for source in sources for entry in source]
    order, _groups = merge_order([e.key for e in entries], entries)
    ordered = [entries[position] for position in order]
    return [
        (key, list(versions))
        for key, versions in itertools.groupby(ordered, key=lambda e: e.key)
    ]


class TestIterAllVersions:
    def test_groups_by_key(self):
        s1 = [put("a", "new", 9), put("b", "b0", 1)]
        s2 = [put("a", "old", 2), put("c", "c0", 3)]
        groups = dict(all_versions(s1, s2))
        assert [e.value for e in groups["a"]] == ["new", "old"]
        assert list(groups) == ["a", "b", "c"]

    def test_versions_newest_first(self):
        s1 = [put("k", "v1", 1)]
        s2 = [put("k", "v9", 9)]
        s3 = [put("k", "v5", 5)]
        (_key, versions), = all_versions(s1, s2, s3)
        assert [e.seqno for e in versions] == [9, 5, 1]

    def test_multi_version_spans(self):
        s1 = [put("a", "a1", 1), put("b", "b1", 1), put("d", "d1", 1)]
        s2 = [put("b", "b2", 2), put("c", "c2", 2), put("d", "d2", 2)]
        entries = s1 + s2
        order, groups = merge_order([e.key for e in entries], entries)
        # a | b2 b1 | c | d2 d1: the spans of order holding two versions.
        assert order == [0, 3, 1, 4, 5, 2]
        assert groups == [(1, 3), (4, 6)]

    def test_equal_seqnos_keep_source_order(self):
        s1 = [put("k", "first", 4)]
        s2 = [put("k", "second", 4)]
        s3 = [put("k", "newest", 7)]
        (_key, versions), = all_versions(s1, s2, s3)
        assert [e.value for e in versions] == ["newest", "first", "second"]


def make_level_with_files(disk, index, ranges, seqno_base=0):
    """A leveled level with one run of key-disjoint files."""
    tables = []
    for n, (lo, hi) in enumerate(ranges):
        entries = [
            put(f"key{i:05d}", "x", seqno_base + n * 1000 + (i - lo))
            for i in range(lo, hi)
        ]
        tables.append(SSTable.build(entries, disk=disk, block_bytes=256))
    level = Level(index, 10**9)
    level.add_run_newest(SortedRun(tables))
    return level


class TestPickers:
    def test_factory_rejects_unknown(self):
        with pytest.raises(ConfigError):
            make_picker("alphabetical")

    def test_round_robin_cycles(self, disk):
        level = make_level_with_files(disk, 1, [(0, 10), (20, 30), (40, 50)])
        picker = make_picker("round_robin")
        picks = [picker.pick(level, None).min_key for _ in range(4)]
        assert picks == ["key00000", "key00020", "key00040", "key00000"]

    def test_least_overlap_prefers_gap(self, disk):
        level = make_level_with_files(disk, 1, [(0, 10), (100, 110)], seqno_base=10000)
        next_level = make_level_with_files(disk, 2, [(0, 50)])
        picker = make_picker("least_overlap")
        chosen = picker.pick(level, next_level)
        assert chosen.min_key == "key00100"  # zero overlap below

    def test_most_tombstones(self, disk):
        clean = SSTable.build(
            [put(f"a{i}", "v", i) for i in range(10)], disk=disk
        )
        dirty = SSTable.build(
            [tombstone(f"b{i}", 100 + i) for i in range(5)], disk=disk
        )
        level = Level(1, 10**9)
        level.add_run_newest(SortedRun([clean, dirty]))
        assert make_picker("most_tombstones").pick(level, None) is dirty

    def test_coldest(self, disk):
        level = make_level_with_files(disk, 1, [(0, 10), (20, 30)])
        hot = level.runs[0].tables[1]
        disk.advance(1000)
        hot.get("key00025", ReadContext(disk))
        chosen = make_picker("coldest").pick(level, None)
        assert chosen.min_key == "key00000"

    def test_oldest(self, disk):
        old = SSTable.build([put("a", "v", 0)], disk=disk)
        disk.advance(5000)
        new = SSTable.build([put("b", "v", 1)], disk=disk)
        level = Level(1, 10**9)
        level.add_run_newest(SortedRun([old, new]))
        assert make_picker("oldest").pick(level, None) is old

    def test_empty_level_raises(self, disk):
        with pytest.raises(ValueError):
            make_picker("round_robin").pick(Level(1, 100), None)


class TestDesignSpace:
    def test_enumeration_counts(self):
        specs = list(enumerate_design_space())
        # 4 layouts x (1 level-granularity + 3 pickers) = 16
        assert len(specs) == 16
        assert len({spec.describe() for spec in specs}) == 16

    def test_spec_describe(self):
        spec = CompactionSpec("tiering", Granularity.FILE, "coldest", 500.0)
        text = spec.describe()
        assert "tiering" in text and "coldest" in text and "ttl" in text
