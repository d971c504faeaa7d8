"""Range-partitioned forests: ``ShardedStore(boundaries=..., disk=...)``.

Range routing over one shared device (the E15 setup). The ``[range]``
half of ``test_shard.py::TestOperations`` runs the generic CRUD, scan and
rollup cases over per-shard devices; the two cases that were identical to
those (scan of an empty interval, stats rollup) live only there.
"""

import random

import pytest

from repro.core.config import LSMConfig
from repro.errors import ClosedError
from repro.shard import ShardedStore, range_boundaries
from repro.storage.disk import SimulatedDisk
from repro.workload.distributions import format_key


def small_config():
    return LSMConfig(
        buffer_size_bytes=1024, target_file_bytes=512, block_bytes=256
    )


def forest(boundaries):
    """A range-partitioned forest on one shared simulated device."""
    return ShardedStore(
        boundaries=boundaries, config=small_config(), disk=SimulatedDisk()
    )


class TestBoundaries:
    def test_even_split(self):
        bounds = range_boundaries(1000, 4)
        assert bounds == [format_key(250), format_key(500), format_key(750)]

    def test_single_shard(self):
        assert range_boundaries(100, 1) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            range_boundaries(100, 0)
        with pytest.raises(ValueError):
            range_boundaries(2, 4)


class TestRouting:
    def test_shard_for(self):
        store = forest(range_boundaries(100, 4))
        assert store.num_shards == 4
        assert store.shard_for(format_key(0)) is store.shards[0]
        assert store.shard_for(format_key(25)) is store.shards[1]
        assert store.shard_for(format_key(99)) is store.shards[3]
        assert store.shard_for("zzz") is store.shards[3]

    def test_unsorted_boundaries_rejected(self):
        with pytest.raises(ValueError):
            forest(["b", "a"])
        with pytest.raises(ValueError):
            forest(["a", "a"])


class TestOperations:
    @pytest.fixture
    def store(self):
        return forest(range_boundaries(400, 4))

    def test_put_get_roundtrip(self, store):
        keys = [format_key(i) for i in range(400)]
        random.Random(1).shuffle(keys)
        for key in keys:
            store.put(key, f"v-{key}")
        for key in keys[::23]:
            assert store.get(key) == f"v-{key}"

    def test_delete(self, store):
        store.put(format_key(10), "v")
        store.delete(format_key(10))
        assert store.get(format_key(10)) is None

    def test_scan_within_one_shard(self, store):
        for index in range(400):
            store.put(format_key(index), str(index))
        result = store.scan(format_key(10), format_key(15))
        assert [k for k, _v in result] == [format_key(i) for i in range(10, 15)]

    def test_scan_across_shards(self, store):
        for index in range(400):
            store.put(format_key(index), str(index))
        result = store.scan(format_key(95), format_key(205))
        assert [k for k, _v in result] == [
            format_key(i) for i in range(95, 205)
        ]
        assert [v for _k, v in result] == [str(i) for i in range(95, 205)]

    def test_scan_limit_stops_across_shards(self, store):
        for index in range(400):
            store.put(format_key(index), str(index))
        # The limit spans the shard-0/shard-1 boundary at key 100.
        result = store.scan(format_key(95), format_key(205), 10)
        assert [k for k, _v in result] == [
            format_key(i) for i in range(95, 105)
        ]
        assert store.scan(format_key(0), format_key(400), 0) == []
        with pytest.raises(ValueError):
            store.scan("a", "z", -1)

    def test_write_batch_routes_and_validates(self, store):
        ops = [("put", format_key(i), str(i)) for i in range(0, 400, 4)]
        ops.append(("delete", format_key(0), None))
        store.write_batch(ops)
        assert store.get(format_key(0)) is None
        assert store.get(format_key(200)) == "200"
        assert all(shard.stats.puts > 0 for shard in store.shards.values())
        before = store.stats.user_bytes_written
        with pytest.raises(ValueError):
            store.write_batch([("put", "good", "v"), ("put", "bad", None)])
        assert store.get("good") is None
        assert store.stats.user_bytes_written == before

    def test_backpressure_aggregate(self, store):
        state = store.backpressure()
        assert state["state"] == "ok"
        assert state["stop_trigger"] == 2 * state["slowdown_trigger"]

    def test_context_manager(self):
        with forest(range_boundaries(100, 2)) as store:
            store.put(format_key(1), "v")
            assert store.get(format_key(1)) == "v"

    def test_close(self, store):
        store.close()
        with pytest.raises(ClosedError):
            store.get(format_key(1))


class TestPartitioningBenefit:
    def test_more_shards_less_compaction_movement(self):
        keys = [format_key(i) for i in range(1200)]
        random.Random(7).shuffle(keys)

        def build(num_shards):
            store = forest(range_boundaries(1200, num_shards))
            for key in keys:
                store.put(key, "payload-" * 3)
            return store

        single = build(1)
        sharded = build(8)
        assert (
            sharded.stats.compaction_bytes_written
            < single.stats.compaction_bytes_written
        )
        assert sharded.max_depth() <= single.max_depth()
        assert sharded.write_amplification() < single.write_amplification()

    def test_shared_disk_is_counted_once(self):
        store = forest(range_boundaries(300, 4))
        for index in range(300):
            store.put(format_key(index), "payload-" * 3)
        assert all(s.disk is store.disk for s in store.shards.values())
        assert store.write_amplification() == pytest.approx(
            store.disk.counters.bytes_written
            / store.stats.user_bytes_written
        )

    def test_shard_summary(self):
        store = forest(range_boundaries(100, 2))
        for index in range(100):
            store.put(format_key(index), "v")
        summary = store.shard_summary()
        assert [row["shard"] for row in summary] == [0, 1]
        assert all(row["routing"] == "range" for row in summary)
        assert sum(row["disk_bytes"] for row in summary) == (
            store.total_disk_bytes()
        )

    def test_memory_footprint_scales_with_shards(self):
        one = forest([])
        four = forest(range_boundaries(100, 4))
        for index in range(100):
            one.put(format_key(index), "v")
            four.put(format_key(index), "v")
        assert four.memory_footprint_bits() >= one.memory_footprint_bits()
