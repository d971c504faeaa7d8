"""Unit tests for the compaction planner and executor internals."""

import pytest

from repro.compaction.executor import CompactionExecutor
from repro.compaction.layouts import make_layout
from repro.compaction.picker import make_picker
from repro.compaction.planner import CompactionPlanner, last_data_level
from repro.compaction.primitives import Trigger
from repro.core.config import LSMConfig
from repro.core.entry import put as put_entry, tombstone
from repro.core.level import Level
from repro.core.run import SortedRun
from repro.core.sstable import SSTable
from repro.core.stats import TreeStats
from repro.errors import CompactionError
from repro.storage.block_cache import BlockCache


def config_for(layout="leveling", **overrides):
    base = dict(
        buffer_size_bytes=1024,
        target_file_bytes=512,
        block_bytes=256,
        size_ratio=3,
        level0_run_limit=2,
        layout=layout,
        granularity="file" if layout == "leveling" else "level",
    )
    base.update(overrides)
    return LSMConfig(**base)


def make_planner(config):
    return CompactionPlanner(
        config, make_layout(config), make_picker(config.picker)
    )


def table_of(disk, lo, hi, seqno_base=0, tombstones_every=0):
    entries = []
    for index in range(lo, hi):
        if tombstones_every and index % tombstones_every == 0:
            entries.append(
                tombstone(f"key{index:05d}", seqno_base + index - lo)
            )
        else:
            entries.append(
                put_entry(f"key{index:05d}", "v" * 8, seqno_base + index - lo)
            )
    return SSTable.build(entries, disk=disk, block_bytes=256)


def levels_with(config, *level_specs):
    """Build levels from (index, [runs as [table,...]]) specs."""
    levels = []
    max_index = max(index for index, _ in level_specs)
    for index in range(max_index + 1):
        levels.append(Level(index, config.level_capacity_bytes(index)))
    for index, runs in level_specs:
        for tables in runs:
            levels[index].add_run_oldest(SortedRun(tables))
    return levels


class TestLastDataLevel:
    def test_empty_tree(self):
        assert last_data_level([]) == 1

    def test_deepest_nonempty(self, disk):
        config = config_for()
        levels = levels_with(
            config, (0, []), (1, []), (2, [[table_of(disk, 0, 10)]])
        )
        assert last_data_level(levels) == 2


class TestTriggers:
    def test_quiet_tree_plans_nothing(self, disk):
        config = config_for()
        levels = levels_with(config, (1, [[table_of(disk, 0, 10)]]))
        assert make_planner(config).plan(levels, 0.0) is None

    def test_l0_run_count_triggers_full_drain(self, disk):
        config = config_for()
        levels = levels_with(
            config,
            (0, [[table_of(disk, 0, 10, 100)],
                 [table_of(disk, 0, 10, 200)],
                 [table_of(disk, 5, 15, 300)]]),
        )
        plan = make_planner(config).plan(levels, 0.0)
        assert plan is not None
        assert plan.job.trigger is Trigger.RUN_COUNT
        assert plan.job.source_level == 0
        assert len(plan.job.source_runs) == 3  # all of L0, always

    def test_size_trigger_partial_for_leveled(self, disk):
        config = config_for()
        big = [
            table_of(disk, i * 20, i * 20 + 20, 1000 + i) for i in range(12)
        ]
        levels = levels_with(config, (1, [big]))
        assert levels[1].is_over_capacity
        plan = make_planner(config).plan(levels, 0.0)
        assert plan.job.trigger is Trigger.LEVEL_SATURATION
        assert len(plan.job.source_tables) == 1  # one victim file
        assert not plan.job.source_runs

    def test_size_trigger_drains_tiered_level(self, disk):
        config = config_for(layout="tiering")
        runs = [[table_of(disk, 0, 100, 1000 * i)] for i in range(1, 4)]
        levels = levels_with(config, (1, runs))
        assert levels[1].is_over_capacity  # size, not run count, triggers
        plan = make_planner(config).plan(levels, 0.0)
        assert plan is not None
        assert len(plan.job.source_runs) == 3
        assert plan.job.target_tables == []  # tiered target stacks

    def test_ttl_trigger_fires_only_when_expired(self, disk):
        config = config_for(tombstone_ttl_us=1000.0)
        table = table_of(disk, 0, 20, tombstones_every=5)
        levels = levels_with(config, (1, [[table]]))
        planner = make_planner(config)
        assert planner.plan(levels, now_us=500.0) is None
        plan = planner.plan(levels, now_us=5000.0)
        assert plan is not None
        assert plan.job.trigger is Trigger.TOMBSTONE_TTL

    def test_manual_plan(self, disk):
        config = config_for()
        levels = levels_with(config, (1, [[table_of(disk, 0, 10)]]))
        plan = make_planner(config).plan_manual(levels, 1)
        assert plan.job.trigger is Trigger.MANUAL
        assert make_planner(config).plan_manual(
            levels_with(config, (1, [])), 1
        ) is None

    def test_max_levels_guard(self, disk):
        config = config_for(max_levels=2)
        big = [table_of(disk, i * 20, i * 20 + 20, i) for i in range(12)]
        levels = levels_with(config, (1, [big]))
        with pytest.raises(CompactionError):
            make_planner(config).plan(levels, 0.0)


class TestBottommost:
    def test_true_when_nothing_deeper(self, disk):
        config = config_for()
        levels = levels_with(
            config,
            (0, [[table_of(disk, 0, 10, 100)],
                 [table_of(disk, 0, 10, 200)],
                 [table_of(disk, 0, 10, 300)]]),
            (1, []),
        )
        plan = make_planner(config).plan(levels, 0.0)
        assert plan.bottommost

    def test_false_when_deeper_data_exists(self, disk):
        config = config_for()
        levels = levels_with(
            config,
            (0, [[table_of(disk, 0, 10, 100)],
                 [table_of(disk, 0, 10, 200)],
                 [table_of(disk, 0, 10, 300)]]),
            (1, []),
            (2, [[table_of(disk, 0, 10, 1)]]),
        )
        plan = make_planner(config).plan(levels, 0.0)
        assert not plan.bottommost

    def test_false_when_target_sibling_run_overlaps(self, disk):
        config = config_for(layout="tiering")
        runs = [[table_of(disk, 0, 40, 100 * i)] for i in range(1, 5)]
        levels = levels_with(
            config, (1, runs), (2, [[table_of(disk, 0, 40, 1)]])
        )
        plan = make_planner(config).plan(levels, 0.0)
        # The tiered target holds an overlapping resident run that is not
        # merged, so tombstones must not drop.
        assert plan.job.target_level == 2
        assert not plan.bottommost


class TestExecutorStructure:
    def make_executor(self, config, disk, cache=None):
        return CompactionExecutor(config, disk, TreeStats(), cache=cache)

    def test_leveled_target_replaces_overlap(self, disk):
        config = config_for()
        executor = self.make_executor(config, disk)
        source = table_of(disk, 0, 30, 1000)
        target_a = table_of(disk, 0, 15, 1)
        target_b = table_of(disk, 100, 110, 50)
        levels = levels_with(
            config, (1, [[source]]), (2, [[target_a, target_b]])
        )
        plan = make_planner(config).plan_manual(levels, 1)
        assert target_a in plan.job.target_tables
        assert target_b not in plan.job.target_tables
        executor.execute(plan.job, levels, plan.bottommost, plan.target_leveled)
        assert levels[1].is_empty
        survivors = levels[2].runs[0].tables
        assert target_b in survivors
        assert target_a not in survivors

    def test_tiered_target_stacks_new_run(self, disk):
        config = config_for(layout="tiering")
        executor = self.make_executor(config, disk)
        resident = table_of(disk, 0, 100, 1)
        runs = [[table_of(disk, 0, 100, 1000 * i)] for i in range(1, 4)]
        levels = levels_with(config, (1, runs), (2, [[resident]]))
        plan = make_planner(config).plan(levels, 0.0)
        executor.execute(plan.job, levels, plan.bottommost, plan.target_leveled)
        assert levels[2].run_count == 2
        newest, resident_run = (
            max(entry.seqno for entry in run.iter_entries())
            for run in levels[2].runs
        )
        assert newest > resident_run

    def test_trivial_move_relinks_without_io(self, disk):
        from repro.compaction.primitives import CompactionJob

        config = config_for()
        executor = self.make_executor(config, disk)
        source = table_of(disk, 0, 10, 1000)
        far = table_of(disk, 500, 510, 1)
        levels = levels_with(config, (1, [[source]]), (2, [[far]]))
        # A single-file job whose key range misses everything below: the
        # partial-compaction shape that qualifies for a trivial move.
        job = CompactionJob(
            source_level=1,
            target_level=2,
            source_runs=[],
            source_tables=[source],
            target_tables=[],
            trigger=Trigger.MANUAL,
        )
        assert job.is_trivial_move
        before = disk.counters.snapshot()
        outputs = executor.execute(job, levels, False, True)
        delta = disk.counters.delta(before)
        assert delta.bytes_read == 0 and delta.bytes_written == 0
        assert outputs == [source]
        assert source in levels[2].runs[0].tables

    def test_bottommost_drops_tombstones(self, disk):
        config = config_for()
        executor = self.make_executor(config, disk)
        source = table_of(disk, 0, 20, 1000, tombstones_every=4)
        levels = levels_with(config, (1, [[source]]), (2, []))
        plan = make_planner(config).plan_manual(levels, 1)
        assert plan.bottommost
        outputs = executor.execute(
            plan.job, levels, plan.bottommost, plan.target_leveled
        )
        assert all(table.tombstone_count == 0 for table in outputs)
        assert executor.stats.tombstones_dropped == 5

    def test_cache_invalidation_on_compaction(self, disk):
        config = config_for()
        cache = BlockCache(1 << 20)
        executor = self.make_executor(config, disk, cache=cache)
        source = table_of(disk, 0, 30, 1000)
        cache.insert((source.table_id, 0), 100)
        levels = levels_with(config, (1, [[source]]), (2, []))
        plan = make_planner(config).plan_manual(levels, 1)
        executor.execute(plan.job, levels, plan.bottommost, plan.target_leveled)
        assert not cache.contains((source.table_id, 0))
        assert cache.stats.evictions_invalidated == 1

    def test_compaction_io_accounting(self, disk):
        config = config_for()
        executor = self.make_executor(config, disk)
        source = table_of(disk, 0, 30, 1000)
        target = table_of(disk, 0, 30, 1)
        levels = levels_with(config, (1, [[source]]), (2, [[target]]))
        plan = make_planner(config).plan_manual(levels, 1)
        executor.execute(plan.job, levels, plan.bottommost, plan.target_leveled)
        stats = executor.stats
        assert stats.compaction_bytes_read == source.data_bytes + target.data_bytes
        assert stats.compaction_bytes_written > 0
        assert stats.compactions == 1
        assert stats.entries_garbage_collected == 30  # every key shadowed
