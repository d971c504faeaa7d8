"""Workload replay harness: run an operation stream against any store.

The harness accepts anything with the tree-shaped surface (``put``/``get``/
``scan``/``delete`` — :class:`~repro.core.tree.LSMTree`,
:class:`~repro.kvsep.wisckey.WiscKeyStore`, a
:class:`~repro.shard.ShardedStore` built over one shared ``disk=``),
replays a generated workload, and reports the standard metric set every
experiment prints: write/read/space amplification, simulated throughput,
latency percentiles, and filter/cache effectiveness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from ..core.stats import percentile
from ..core.tree import LSMTree
from ..storage.disk import IOCounters, SimulatedDisk
from ..workload.generator import (
    Operation,
    OpKind,
    WorkloadSpec,
    generate,
    preload_operations,
)


def apply_operation(store: object, op: Operation) -> None:
    """Dispatch one workload operation to a tree-shaped store."""
    if op.kind is OpKind.READ:
        store.get(op.key)  # type: ignore[attr-defined]
    elif op.kind in (OpKind.INSERT, OpKind.UPDATE):
        store.put(op.key, op.value)  # type: ignore[attr-defined]
    elif op.kind is OpKind.SCAN:
        store.scan(op.key, op.end_key)  # type: ignore[attr-defined]
    elif op.kind is OpKind.DELETE:
        store.delete(op.key)  # type: ignore[attr-defined]
    elif op.kind is OpKind.SINGLE_DELETE:
        single = getattr(store, "single_delete", None)
        if single is not None:
            single(op.key)
        else:
            store.delete(op.key)  # type: ignore[attr-defined]
    elif op.kind is OpKind.READ_MODIFY_WRITE:
        current = store.get(op.key)  # type: ignore[attr-defined]
        merged = (current or "") + (op.value or "")
        store.put(op.key, merged[-256:])  # type: ignore[attr-defined]
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unhandled operation kind {op.kind}")


@dataclass
class RunMetrics:
    """Everything a benchmark reports about one measured phase."""

    operations: int = 0
    user_bytes_written: int = 0
    simulated_us: float = 0.0
    io: IOCounters = field(default_factory=IOCounters)
    write_latencies_us: Dict[str, float] = field(default_factory=dict)
    read_latencies_us: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def write_amplification(self) -> float:
        """Device bytes written per user byte in the measured phase."""
        if self.user_bytes_written == 0:
            return 0.0
        return self.io.bytes_written / self.user_bytes_written

    @property
    def throughput_kops(self) -> float:
        """Operations per simulated millisecond (kops/s of device time)."""
        if self.simulated_us <= 0:
            return 0.0
        return self.operations / (self.simulated_us / 1000.0)

    def pages_read_per_op(self) -> float:
        """Device pages read per operation in the measured phase."""
        if self.operations == 0:
            return 0.0
        return self.io.pages_read / self.operations


class Harness:
    """Replays workloads against a store over a shared simulated disk."""

    def __init__(self, store: object, disk: Optional[SimulatedDisk] = None):
        self.store = store
        self.disk = disk or getattr(store, "disk")
        if not isinstance(self.disk, SimulatedDisk):
            raise TypeError("harness needs the store's SimulatedDisk")

    def preload(self, spec: WorkloadSpec) -> None:
        """Load the initial key universe (not measured)."""
        for op in preload_operations(spec):
            apply_operation(self.store, op)

    def run(self, operations: Iterable[Operation]) -> RunMetrics:
        """Replay operations, measuring disk deltas and simulated time."""
        before = self.disk.counters.snapshot()
        started_us = self.disk.now_us
        user_bytes_before = self._user_bytes()
        tree_stats_before = self._latency_counts()

        count = 0
        for op in operations:
            apply_operation(self.store, op)
            count += 1

        metrics = RunMetrics(
            operations=count,
            user_bytes_written=self._user_bytes() - user_bytes_before,
            simulated_us=self.disk.now_us - started_us,
            io=self.disk.counters.delta(before),
        )
        self._fill_latencies(metrics, tree_stats_before)
        return metrics

    def run_spec(self, spec: WorkloadSpec, preload: bool = True) -> RunMetrics:
        """Preload (optionally) then measure the spec's operation mix."""
        if preload:
            self.preload(spec)
        return self.run(generate(spec))

    # -- store introspection ----------------------------------------------------

    def _tree(self) -> Optional[LSMTree]:
        if isinstance(self.store, LSMTree):
            return self.store
        inner = getattr(self.store, "tree", None)
        return inner if isinstance(inner, LSMTree) else None

    def _user_bytes(self) -> int:
        tree = self._tree()
        stats = getattr(self.store if tree is None else tree, "stats", None)
        return int(getattr(stats, "user_bytes_written", 0))

    def _latency_counts(self) -> Dict[str, int]:
        tree = self._tree()
        if tree is None:
            return {"writes": 0, "reads": 0}
        return {
            "writes": len(tree.stats.write_latencies_us),
            "reads": len(tree.stats.read_latencies_us),
        }

    def _fill_latencies(
        self, metrics: RunMetrics, before: Dict[str, int]
    ) -> None:
        tree = self._tree()
        if tree is None:
            return
        writes = tree.stats.write_latencies_us[before["writes"] :]
        reads = tree.stats.read_latencies_us[before["reads"] :]
        metrics.write_latencies_us = {
            "p50": percentile(writes, 0.50),
            "p99": percentile(writes, 0.99),
            "p999": percentile(writes, 0.999),
        }
        metrics.read_latencies_us = {
            "p50": percentile(reads, 0.50),
            "p99": percentile(reads, 0.99),
            "p999": percentile(reads, 0.999),
        }
