"""Tests for the benchmark harness and report formatting."""

import pytest

from repro.bench.harness import Harness, apply_operation
from repro.bench.report import format_number, format_table, ratio
from repro.core.config import LSMConfig
from repro.core.tree import LSMTree
from repro.kvsep.wisckey import WiscKeyStore
from repro.shard import ShardedStore, range_boundaries
from repro.storage.disk import SimulatedDisk
from repro.workload.generator import Operation, OpKind, WorkloadSpec, ycsb_a


def small_config():
    return LSMConfig(
        buffer_size_bytes=1024, target_file_bytes=512, block_bytes=256
    )


class TestReport:
    def test_format_number(self):
        assert format_number(1234567) == "1,234,567"
        assert format_number(3.14159) == "3.14"
        assert format_number(0.00123) == "0.0012"
        assert format_number(0.0) == "0"
        assert format_number("text") == "text"

    def test_format_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["longer", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_format_table_validates_width(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_ratio(self):
        assert ratio(10, 2) == 5.0
        assert ratio(1, 0) == 0.0


class TestApplyOperation:
    def test_all_kinds_dispatch(self):
        tree = LSMTree(small_config())
        apply_operation(tree, Operation(OpKind.INSERT, "k", "v"))
        apply_operation(tree, Operation(OpKind.READ, "k"))
        apply_operation(tree, Operation(OpKind.UPDATE, "k", "v2"))
        apply_operation(tree, Operation(OpKind.SCAN, "a", end_key="z"))
        apply_operation(tree, Operation(OpKind.READ_MODIFY_WRITE, "k", "+x"))
        assert tree.get("k") == "v2+x"
        apply_operation(tree, Operation(OpKind.DELETE, "k"))
        assert tree.get("k") is None
        apply_operation(tree, Operation(OpKind.SINGLE_DELETE, "k2"))

    def test_single_delete_falls_back_for_other_stores(self):
        store = ShardedStore(
            boundaries=range_boundaries(10, 2), config=small_config()
        )
        store.put("key0000000001", "v")
        apply_operation(
            store, Operation(OpKind.SINGLE_DELETE, "key0000000001")
        )
        assert store.get("key0000000001") is None


class TestHarness:
    def test_run_spec_measures(self):
        tree = LSMTree(small_config())
        harness = Harness(tree)
        metrics = harness.run_spec(
            ycsb_a(num_ops=300, key_count=200, value_size=16)
        )
        assert metrics.operations == 300
        assert metrics.simulated_us > 0
        assert metrics.io.bytes_written > 0
        assert metrics.write_amplification > 0
        assert metrics.throughput_kops > 0
        assert "p99" in metrics.write_latencies_us

    def test_preload_not_measured(self):
        tree = LSMTree(small_config())
        harness = Harness(tree)
        spec = WorkloadSpec(
            num_ops=10,
            key_count=500,
            read_fraction=1.0,
            update_fraction=0.0,
            value_size=16,
        )
        metrics = harness.run_spec(spec)
        # 10 reads write almost nothing: preload writes were excluded.
        assert metrics.operations == 10
        assert metrics.user_bytes_written == 0

    def test_works_with_wisckey(self):
        store = WiscKeyStore(small_config(), separation_threshold=32)
        metrics = Harness(store).run_spec(
            ycsb_a(num_ops=100, key_count=100, value_size=64)
        )
        assert metrics.operations == 100
        assert metrics.write_amplification > 0

    def test_works_with_partitioned(self):
        store = ShardedStore(
            boundaries=range_boundaries(100, 2),
            config=small_config(),
            disk=SimulatedDisk(),
        )
        metrics = Harness(store).run_spec(
            ycsb_a(num_ops=100, key_count=100, value_size=16)
        )
        assert metrics.operations == 100
        assert metrics.write_amplification > 0

    def test_pages_read_per_op(self):
        tree = LSMTree(small_config())
        harness = Harness(tree)
        metrics = harness.run_spec(
            WorkloadSpec(
                num_ops=50,
                key_count=300,
                read_fraction=1.0,
                update_fraction=0.0,
                value_size=16,
            )
        )
        assert metrics.pages_read_per_op() >= 0.0

    def test_rejects_store_without_disk(self):
        with pytest.raises((TypeError, AttributeError)):
            Harness(object())
