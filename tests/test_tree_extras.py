"""Additional cross-module integration tests on the tree."""

import json

import pytest

from repro.core.config import LSMConfig
from repro.core.merge_operator import Int64AddOperator
from repro.core.stats import percentile
from repro.core.tree import LSMTree
from repro.errors import ConfigError
from repro.storage.persistence import checkpoint, restore

from .conftest import shuffled_keys


def config_with(**overrides):
    base = dict(
        buffer_size_bytes=1024,
        target_file_bytes=512,
        block_bytes=256,
        size_ratio=3,
    )
    base.update(overrides)
    return LSMConfig(**base)


class TestMonkeyIntegration:
    def test_deep_levels_get_fewer_bits_per_key(self):
        tree = LSMTree(
            config_with(filter_allocation="monkey", filter_bits_per_key=6.0)
        )
        for key in shuffled_keys(1500):
            tree.put(key, "v" * 16)
        assert len(tree.levels) >= 3

        def avg_bits(level):
            pairs = [
                (table.bloom.memory_bits, table.entry_count)
                for run in level.runs
                for table in run.tables
                if table.bloom is not None and table.entry_count
            ]
            if not pairs:
                return None
            return sum(b for b, _n in pairs) / sum(n for _b, n in pairs)

        shallow = next(
            bits
            for level in tree.levels
            if (bits := avg_bits(level)) is not None
        )
        deep = next(
            bits
            for level in reversed(tree.levels)
            if (bits := avg_bits(level)) is not None
        )
        assert shallow > deep  # Monkey spends where probes are cheap to save

    def test_monkey_engine_correctness(self):
        tree = LSMTree(config_with(filter_allocation="monkey"))
        keys = shuffled_keys(800)
        for key in keys:
            tree.put(key, "payload")
        for key in keys[::41]:
            assert tree.get(key) == "payload"
        tree.verify_invariants()


class TestBushLayout:
    def test_shallow_levels_stack_more_runs(self):
        tree = LSMTree(
            config_with(layout="bush", granularity="level", size_ratio=2)
        )
        for key in shuffled_keys(2500):
            tree.put(key, "v" * 12)
        tree.verify_invariants()
        last = max(
            (level.index for level in tree.levels if not level.is_empty),
            default=0,
        )
        # The bush discipline: last level single-run, shallow levels stack
        # far beyond the size ratio (merging newest data as rarely as
        # possible is the whole point).
        assert tree.levels[last].run_count == 1
        assert any(
            level.run_count > tree.config.size_ratio
            for level in tree.levels[:last]
        )


class TestBufferPipeline:
    def test_immutable_buffers_are_readable(self):
        tree = LSMTree(config_with(num_buffers=3, buffer_size_bytes=512))
        for index in range(60):
            tree.put(f"key{index:04d}", "value-payload")
        # With 3 buffers some data sits in immutable memtables; all of it
        # must be visible.
        assert tree._immutable  # the pipeline is actually in use
        for index in range(60):
            assert tree.get(f"key{index:04d}") == "value-payload"

    @pytest.mark.parametrize(
        "kind", ["vector", "skiplist", "hash_skiplist", "hash_linkedlist"]
    )
    def test_every_memtable_kind_drives_the_full_engine(self, kind):
        tree = LSMTree(config_with(memtable_kind=kind))
        keys = shuffled_keys(400, seed=11)
        for key in keys:
            tree.put(key, f"v-{key}")
        for key in keys[::3]:
            tree.delete(key)
        tree.verify_invariants()
        deleted = set(keys[::3])
        for key in keys[::17]:
            expected = None if key in deleted else f"v-{key}"
            assert tree.get(key) == expected


class TestCachePrefetchIntegration:
    def test_prefetch_engine_end_to_end(self):
        tree = LSMTree(
            config_with(block_cache_bytes=32 * 1024, cache_prefetch=True)
        )
        keys = shuffled_keys(800)
        for key in keys:
            tree.put(key, "v" * 16)
        hot = keys[:20]
        for _round in range(5):
            for key in hot:
                assert tree.get(key) == "v" * 16
        for key in shuffled_keys(800, seed=5):
            tree.put(key + "x", "w" * 16)  # churn => compactions
        assert tree.cache is not None and tree.heat is not None
        assert tree.cache.stats.hits > 0
        for key in hot:
            assert tree.get(key) == "v" * 16


class TestWalAccounting:
    def test_wal_pages_counted_in_write_amp(self):
        tree = LSMTree(config_with(buffer_size_bytes=1 << 20))  # never flush
        for index in range(500):
            tree.put(f"key{index:06d}", "some-payload-here")
        # Nothing flushed, so every device write is WAL traffic.
        assert tree.total_disk_bytes() == 0
        assert tree.disk.counters.writes_by_cause.get("wal", 0) > 0
        assert tree.write_amplification() > 0


class TestPercentileEdges:
    def test_empty_and_bounds(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.0) == 3.0
        assert percentile([3.0], 1.0) == 3.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_nearest_rank(self):
        samples = [float(value) for value in range(1, 101)]
        assert percentile(samples, 0.5) == pytest.approx(50.0, abs=1.0)
        assert percentile(samples, 0.99) == pytest.approx(99.0, abs=1.0)

    def test_latency_summary_keys(self):
        tree = LSMTree(config_with())
        tree.put("a", "1")
        tree.get("a")
        summary = tree.stats.to_dict()
        for side in ("write_latencies_summary_us", "read_latencies_summary_us"):
            assert {"count", "p50", "p99", "p999", "max"} == set(summary[side])
            assert summary[side]["count"] == 1


class TestConfigValidate:
    """validate() rejects incoherent knob combinations with clear errors."""

    def test_background_needs_immutable_queue_room(self):
        with pytest.raises(ConfigError, match="num_buffers"):
            LSMConfig(background_mode=True, num_buffers=1)

    def test_file_must_hold_at_least_one_block(self):
        with pytest.raises(ConfigError, match="target_file_bytes"):
            LSMConfig(target_file_bytes=128, block_bytes=4096)

    def test_monkey_needs_a_filter_budget(self):
        with pytest.raises(ConfigError, match="monkey"):
            LSMConfig(filter_allocation="monkey", filter_bits_per_key=0)

    def test_prefetch_needs_a_cache(self):
        with pytest.raises(ConfigError, match="cache_prefetch"):
            LSMConfig(cache_prefetch=True, block_cache_bytes=0)

    def test_tree_revalidates_a_mutated_config(self):
        """A config corrupted after construction cannot reach the engine."""
        config = config_with()
        object.__setattr__(config, "size_ratio", 1)
        with pytest.raises(ConfigError, match="size_ratio"):
            LSMTree(config)

    def test_coherent_combinations_pass(self):
        LSMConfig(background_mode=True, num_buffers=2).validate()
        LSMConfig(filter_allocation="monkey", filter_bits_per_key=8).validate()
        LSMConfig(cache_prefetch=True, block_cache_bytes=1 << 16).validate()


class TestStatsSnapshot:
    def test_to_dict_is_json_serializable_and_stable(self):
        tree = LSMTree(config_with())
        for index in range(300):
            tree.put(f"key{index:06d}", f"value-{index}")
        tree.get("key000007")
        tree.delete("key000008")
        snapshot = tree.stats.to_dict()
        json.dumps(snapshot)  # must round-trip as JSON
        assert snapshot["puts"] == 300
        assert snapshot["deletes"] == 1
        assert snapshot["gets"] == 1
        # Sample lists are summarized, never dumped raw.
        assert "write_latencies_us" not in snapshot
        summary = snapshot["write_latencies_summary_us"]
        assert summary["count"] > 0
        assert summary["p50"] <= summary["p99"] <= summary["max"]
        assert 0.0 <= snapshot["filter_skip_rate"] <= 1.0

    def test_snapshot_is_a_copy(self):
        tree = LSMTree(config_with())
        tree.put("a", "1")
        snapshot = tree.stats.to_dict()
        tree.put("b", "2")
        assert snapshot["puts"] == 1  # unaffected by later writes


class TestCheckpointWithNewEntryKinds:
    def test_merge_entries_survive_checkpoint(self, tmp_path):
        operator = Int64AddOperator()
        tree = LSMTree(config_with(), merge_operator=operator)
        tree.put("counter", "100")
        tree.flush()
        for _ in range(5):
            tree.merge("counter", "10")
        tree.flush()  # MERGE entries now live in SSTables
        checkpoint(tree, str(tmp_path))
        restored = restore(str(tmp_path), merge_operator=operator)
        assert restored.get("counter") == "150"
        restored.verify_invariants()
