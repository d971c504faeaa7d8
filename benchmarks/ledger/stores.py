"""What every workload shares: the engine configuration, the scratch
directory, and counter snapshots read from the stores' public stats.

Engine configuration (the flush policy, identical on every commit):
``rocksdb_like()`` — hybrid layout, file granularity, ``least_overlap``
picker, 10 bits/key uniform filters, 256 KiB block cache — with
``wal_fsync=True`` and ``wal_preserve_segments=True`` over a WAL directory
inside the checkout (a real filesystem, so group commit's amortisation of
``fdatasync`` stays visible). Embedded workloads run synchronously (flush
and compaction charged to the triggering write, counts exact); served
workloads use background mode with 4 buffers and one flush and one
compaction thread.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from typing import Callable, Dict, Iterable, Mapping, Optional

from repro import LSMConfig, LSMTree, rocksdb_like
from repro.core.wal import WriteAheadLog

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(LEDGER_DIR, "_work")
OUT_DIR = os.path.join(LEDGER_DIR, "_out")

#: TreeStats counters a run takes deltas of.
_STAT_FIELDS = (
    "user_bytes_written", "flushes", "stall_us", "compactions",
    "entries_garbage_collected", "gets", "scans", "runs_probed",
    "filter_probes", "filter_negatives", "filter_false_positives",
    "fence_misses", "blocks_from_cache", "blocks_from_disk",
)


def engine_config(background: bool) -> LSMConfig:
    overrides: Dict[str, object] = {
        "wal_fsync": True,
        "wal_preserve_segments": True,
    }
    if background:
        overrides.update(
            background_mode=True, num_buffers=4, flush_threads=1,
            compaction_threads=1,
        )
    return rocksdb_like().with_overrides(**overrides)


def recovery_config() -> LSMConfig:
    """Configuration recoveries run under: the same tree shape, but
    synchronous and without a sync per replayed entry (replay re-journals
    entry by entry; syncing each would time the disk, not the replay)."""
    return engine_config(False).with_overrides(wal_fsync=False)


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
        self._count = 0

    def fresh(self, name: str) -> str:
        """A new empty subdirectory (one per set-up)."""
        self._count += 1
        path = os.path.join(self.path, f"{name}-{self._count}")
        os.makedirs(path)
        return path

    def __enter__(self) -> "WorkDir":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is using it


def snapshot(trees: Iterable[LSMTree]) -> Dict[str, float]:
    """Summed public counters of ``trees``: TreeStats fields, device bytes
    written, and device pages by cause (``w.<cause>`` / ``r.<cause>``)."""
    total: Dict[str, float] = {}

    def add(name: str, amount: float) -> None:
        total[name] = total.get(name, 0) + amount

    for tree in trees:
        for name in _STAT_FIELDS:
            add(name, getattr(tree.stats, name))
        counters = tree.disk.counters
        add("device_bytes_written", counters.bytes_written)
        page = tree.disk.page_size
        for cause, pages in counters.writes_by_cause.items():
            add(f"w.{cause}", pages * page)
        for cause, pages in counters.reads_by_cause.items():
            add(f"r.{cause}", pages)
    return total


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


def ratio(numerator: float, denominator: float) -> Optional[float]:
    """``None`` when the layer did no such work in this stream."""
    return numerator / denominator if denominator else None


def counter_layers(
    moved: Dict[str, float], ops: int, trees: Iterable[LSMTree]
) -> Dict[str, Optional[float]]:
    """The per-layer metrics sourced from counters (``C``), from the
    counter delta ``moved`` over a stream of ``ops`` user ops."""
    get = moved.get
    gets = get("gets", 0)
    user = get("user_bytes_written", 0)
    # Write-side rates are per op of a stream that wrote; None otherwise.
    write_kops = ops / 1000.0 if user else 0
    false_pos = get("filter_false_positives", 0)
    cached, fetched = get("blocks_from_cache", 0), get("blocks_from_disk", 0)
    return {
        "wal.bytes_per_user_byte": ratio(get("w.wal", 0), user),
        "disk.flush_bytes_per_user_byte": ratio(get("w.flush", 0), user),
        "disk.compaction_bytes_per_user_byte": ratio(
            get("w.compaction", 0), user
        ),
        "tree.runs_probed_per_get": ratio(get("runs_probed", 0), gets),
        "sstable.fence_misses_per_get": ratio(get("fence_misses", 0), gets),
        "tree.stall_us_per_op": ratio(get("stall_us", 0),
                                      1000 * write_kops),
        "tree.flushes_per_kop": ratio(get("flushes", 0), write_kops),
        "tree.depth": float(max(
            sum(1 for level in tree.levels if level.run_count)
            for tree in trees
        )),
        "bloom.false_positive_rate": ratio(
            false_pos, false_pos + get("filter_negatives", 0)
        ),
        "bloom.skip_rate": ratio(get("filter_negatives", 0),
                                 get("filter_probes", 0)),
        "cache.hit_rate": ratio(cached, cached + fetched),
        "cache.blocks_from_disk_per_get": ratio(
            fetched, gets + get("scans", 0)
        ),
        "compaction.count_per_kop": ratio(get("compactions", 0), write_kops),
        "compaction.entries_gc_per_kop": ratio(
            get("entries_garbage_collected", 0), write_kops
        ),
    }


def write_amp(moved: Dict[str, float]) -> Optional[float]:
    return ratio(moved.get("device_bytes_written", 0),
                 moved.get("user_bytes_written", 0))


def read_amp(moved: Dict[str, float]) -> Optional[float]:
    return ratio(moved.get("r.get", 0) + moved.get("r.scan", 0),
                 moved.get("gets", 0) + moved.get("scans", 0))


def space_amp(trees: Iterable[LSMTree]) -> float:
    """On-disk bytes per live byte over ``trees`` (flushed beforehand)."""
    disk = live = 0
    for tree in trees:
        disk += tree.total_disk_bytes()
        live += tree.space_breakdown()["live_bytes"]
    return disk / live


def read_back(get: Callable[[str], Optional[str]],
              expected: Mapping[str, Optional[str]]) -> int:
    """Mismatches between a store and the model, over every model key, in
    a fixed scattered order (key order would make the block cache hit on
    all but the first read of every block)."""
    keys = list(expected)
    random.Random(0).shuffle(keys)
    return sum(get(key) != expected[key] for key in keys)


def replay_rate(wal_dirs: Iterable[str]) -> Optional[float]:
    """Entries per second ``WriteAheadLog.replay`` decodes from the
    segments a recovery of ``wal_dirs`` will read."""
    count = 0
    started = time.perf_counter()
    for wal_dir in wal_dirs:
        for name in sorted(os.listdir(wal_dir)):
            if name.startswith("wal.") and name.endswith(".log"):
                path = os.path.join(wal_dir, name)
                for _entry in WriteAheadLog.replay(path):
                    count += 1
    return ratio(count, time.perf_counter() - started)


def fs_type(path: str) -> str:
    """Filesystem type of the mount holding ``path`` (``unknown`` off Linux)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", "r", encoding="utf-8") as handle:
            for line in handle:
                _dev, mount, fstype = line.split()[:3]
                if path.startswith(mount.rstrip("/") + "/") or mount == "/":
                    if len(mount) >= len(best):
                        best, kind = mount, fstype
    except OSError:
        pass
    return kind
