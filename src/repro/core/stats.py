"""Engine-level statistics: the observable performance space (§2.3).

The tutorial frames LSM performance as a multi-way tradeoff between read
cost, write cost, delete cost, memory footprint, and space utilization (the
RUM space and beyond). :class:`TreeStats` gathers the raw counters the
engine produces, and exposes the derived amplification metrics every
experiment reports:

* **Write amplification** — device bytes written per user byte ingested.
* **Read amplification** — pages read per point lookup.
* **Space amplification** — on-disk bytes per live user byte.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from .sstable import ReadContext


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    if not samples:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


@dataclass
class TreeStats:
    """Mutable counters accumulated by one :class:`~repro.core.tree.LSMTree`.

    All byte quantities are user-visible payload bytes; the paired
    :class:`~repro.storage.disk.SimulatedDisk` counters hold the
    device-level page-granular totals.

    Thread safety: in background mode (:mod:`repro.concurrency`) counters
    are bumped from client threads *and* flush/compaction workers, so
    every update serializes on an internal lock: :meth:`incr` /
    :meth:`add_sample` for single counters, and :meth:`fold_read` for a
    whole read — its probe counts are accumulated lock-free in the read's
    own :class:`~repro.core.sstable.ReadContext` and added here, together
    with the op count and latency sample, under one acquisition.
    """

    # -- write path -------------------------------------------------------
    puts: int = 0
    deletes: int = 0
    single_deletes: int = 0
    merges: int = 0
    range_deletes: int = 0
    user_bytes_written: int = 0
    flushes: int = 0
    flushed_bytes: int = 0
    stall_us: float = 0.0
    stall_events: int = 0
    #: Writes delayed (not stopped) by the L0 slowdown trigger (§2.2.3);
    #: only background mode produces these — the synchronous engine stalls.
    slowdown_us: float = 0.0
    slowdown_events: int = 0

    # -- compaction -------------------------------------------------------
    compactions: int = 0
    compaction_bytes_read: int = 0
    compaction_bytes_written: int = 0
    entries_garbage_collected: int = 0
    tombstones_dropped: int = 0
    #: Age (simulated us) of each tombstone at the moment it was persistently
    #: purged — the "time to persistent deletion" Lethe bounds (§2.3.3).
    tombstone_drop_ages_us: List[float] = field(default_factory=list)
    range_tombstones_dropped: int = 0
    #: Same ages for range tombstones — the latency bound the tutorial
    #: notes current systems fail to provide for range deletes (§2.3.3).
    range_tombstone_drop_ages_us: List[float] = field(default_factory=list)

    # -- background workers (background mode only) ------------------------
    #: Flush and compaction worker steps run, and how many of them found
    #: nothing to do: the wake protocol's useful outcomes ÷ attempts. An
    #: idle tree adds none: its workers sleep until kicked. Only a tree
    #: with ``tombstone_ttl_us`` set polls (two per ``IDLE_WAIT_S`` with
    #: the default one flush and one compaction worker).
    background_steps: int = 0
    background_idle_steps: int = 0

    # -- read path --------------------------------------------------------
    gets: int = 0
    gets_found: int = 0
    scans: int = 0
    runs_probed: int = 0
    filter_probes: int = 0
    filter_negatives: int = 0
    filter_false_positives: int = 0
    fence_misses: int = 0
    blocks_from_cache: int = 0
    blocks_from_disk: int = 0

    # -- latency samples (simulated us; wall-clock us in background mode) --
    write_latencies_us: List[float] = field(default_factory=list)
    read_latencies_us: List[float] = field(default_factory=list)

    #: Serializes cross-thread counter updates; excluded from equality and
    #: repr so two stats objects still compare by their counters alone.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def incr(self, counter: str, amount: float = 1) -> None:
        """Atomically add ``amount`` to the named counter."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def add_sample(self, series: str, value: float) -> None:
        """Atomically append ``value`` to the named sample list."""
        with self._lock:
            getattr(self, series).append(value)

    def fold_read(
        self,
        reads: "ReadContext",
        gets: int = 0,
        gets_found: int = 0,
        scans: int = 0,
        latency_us: Optional[float] = None,
    ) -> None:
        """Atomically add one read's probe counts, the ops it served and
        (when given) its latency sample."""
        with self._lock:
            self.gets += gets
            self.gets_found += gets_found
            self.scans += scans
            self.runs_probed += reads.runs_probed
            self.filter_probes += reads.filter_probes
            self.filter_negatives += reads.filter_negatives
            self.filter_false_positives += reads.filter_false_positives
            self.fence_misses += reads.fence_misses
            self.blocks_from_cache += reads.blocks_from_cache
            self.blocks_from_disk += reads.blocks_from_disk
            if latency_us is not None:
                self.read_latencies_us.append(latency_us)

    def count_background_step(self, did_work: bool) -> None:
        """Atomically count one worker step and whether it was idle."""
        with self._lock:
            self.background_steps += 1
            if not did_work:
                self.background_idle_steps += 1

    def record_write_latency(self, micros: float) -> None:
        """Record the latency of one external write."""
        self.add_sample("write_latencies_us", micros)

    @classmethod
    def merged(cls, parts: List["TreeStats"]) -> "TreeStats":
        """A rollup: every counter summed, every sample list concatenated.

        Aggregating stores (:class:`~repro.shard.ShardedStore` and the
        stores built on it) expose this as their ``stats``, so
        ``store.stats.to_dict()`` has the same shape no matter how many
        trees sit behind the store. Each part is copied
        under its own lock, so the rollup is per-shard consistent even
        while background workers are bumping counters.
        """
        total = cls()
        for part in parts:
            with part._lock:
                for spec in fields(cls):
                    if spec.name.startswith("_"):
                        continue
                    value = getattr(part, spec.name)
                    if isinstance(value, list):
                        getattr(total, spec.name).extend(value)
                    else:
                        setattr(
                            total,
                            spec.name,
                            getattr(total, spec.name) + value,
                        )
        return total

    def write_amplification(self, device_bytes_written: int) -> float:
        """Device bytes written per user byte ingested."""
        if self.user_bytes_written == 0:
            return 0.0
        return device_bytes_written / self.user_bytes_written

    @property
    def filter_skip_rate(self) -> float:
        """Fraction of filter probes that saved a run probe."""
        if self.filter_probes == 0:
            return 0.0
        return self.filter_negatives / self.filter_probes

    def to_dict(self) -> Dict[str, object]:
        """A stable, JSON-serializable snapshot of every counter.

        Scalar counters appear under their field names; the latency and
        tombstone-age sample lists are summarized (count + percentiles)
        rather than dumped raw, so the snapshot stays small no matter how
        long the tree has run. Taken atomically under the stats lock, so
        the snapshot is internally consistent even while background
        workers are bumping counters — this is what the server's ``INFO``
        command and the benchmark reports consume.
        """
        scalars: Dict[str, object] = {}
        samples: Dict[str, List[float]] = {}
        with self._lock:
            for spec in fields(self):
                if spec.name.startswith("_"):
                    continue
                value = getattr(self, spec.name)
                if isinstance(value, list):
                    samples[spec.name] = list(value)
                else:
                    scalars[spec.name] = value
        for name, series in samples.items():
            scalars[name.replace("_us", "") + "_summary_us"] = {
                "count": len(series),
                "p50": percentile(series, 0.50),
                "p99": percentile(series, 0.99),
                "p999": percentile(series, 0.999),
                "max": max(series) if series else 0.0,
            }
        scalars["filter_skip_rate"] = self.filter_skip_rate
        return scalars
