"""Tuning knobs for the LSM engine.

The tutorial stresses that "commercial LSM-engines expose hundreds of tuning
knobs" (§2.3) and that these knobs *are* the design space. This module
gathers every knob the engine understands into one validated, immutable
:class:`LSMConfig`. Each field corresponds to a design decision discussed in
the paper; the reference to the relevant section is given inline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from ..errors import ConfigError

#: Recognized memory-buffer implementations (§2.2.1; RocksDB's memtable
#: choices: vector, skiplist, hash-skiplist, hash-linkedlist).
MEMTABLE_KINDS = ("vector", "skiplist", "hash_skiplist", "hash_linkedlist")

#: Recognized disk data layouts (§2.1.2 and §2.2.2).
LAYOUT_KINDS = ("leveling", "tiering", "lazy_leveling", "hybrid", "bush")

#: Recognized compaction granularities (§2.2.3-§2.2.4): compact a whole
#: level at once (AsterixDB-style) or one file at a time (partial).
GRANULARITY_KINDS = ("level", "file")

#: Recognized victim-file picking policies for partial compaction (§2.2.3).
PICKER_KINDS = (
    "round_robin",
    "least_overlap",
    "most_tombstones",
    "coldest",
    "oldest",
)

#: Recognized per-level Bloom-filter memory allocation schemes (§2.1.3).
FILTER_ALLOCATION_KINDS = ("none", "uniform", "monkey")


@dataclass(frozen=True)
class LSMConfig:
    """Immutable engine configuration.

    Attributes:
        buffer_size_bytes: Capacity of one memory buffer before it is rotated
            and flushed (§2.1.1-A). Larger buffers trade memory for fewer,
            bigger flushes.
        num_buffers: How many buffers may exist at once (one active plus
            immutable ones awaiting flush). More buffers absorb ingestion
            bursts without stalling (§2.2.1).
        memtable_kind: Buffer implementation, one of :data:`MEMTABLE_KINDS`.
        size_ratio: Growth factor ``T`` between adjacent level capacities
            (§2.1.1-D). ``T`` is the primary read-write tradeoff knob (§2.3.1).
        layout: Disk data layout, one of :data:`LAYOUT_KINDS`:

            * ``leveling`` — ≤1 run per level (LevelDB-style).
            * ``tiering`` — up to ``T`` runs per level (Cassandra-style).
            * ``lazy_leveling`` — tiered intermediate levels, leveled last
              level (Dostoevsky, §2.2.2).
            * ``hybrid`` — tiered first ``hybrid_tiered_levels`` levels,
              leveled rest (RocksDB default shape, §2.2.2).
            * ``bush`` — run capacity doubles with depth, last level leveled
              (LSM-bush-style continuum point, §2.3.1).
        hybrid_tiered_levels: For ``layout="hybrid"``, how many shallow
            levels keep a tiered layout.
        level0_run_limit: Number of runs allowed in Level 0 (the flush
            target) before ingestion stalls waiting on compaction. Models
            RocksDB's L0 file trigger / stall knobs (§2.2.3).
        granularity: Compaction granularity, one of
            :data:`GRANULARITY_KINDS`.
        picker: Victim-selection policy under partial (``file``) granularity,
            one of :data:`PICKER_KINDS` (§2.2.3).
        target_file_bytes: Maximum SSTable size; leveled runs are partitioned
            into files of about this size so partial compaction has units to
            pick from (§2.2.3).
        block_bytes: Data-block size inside an SSTable; the unit of fence
            pointers and of block-cache residency (§2.1.3).
        fence_pointers: Whether per-block fence pointers are built (§2.1.3).
            Disabling them exists purely so experiment E4 can measure their
            benefit.
        filter_bits_per_key: Bloom-filter budget in bits per key. ``0``
            disables filters.
        filter_allocation: How the filter budget is spread across levels,
            one of :data:`FILTER_ALLOCATION_KINDS`; ``monkey`` applies the
            Monkey-optimal allocation (§2.1.3).
        block_cache_bytes: Capacity of the shared block cache; ``0`` disables
            caching (§2.1.3).
        cache_prefetch: Enable the Leaper-style hot-range prefetch after
            compactions (§2.1.3).
        tombstone_ttl_us: Lethe-style bound: a persistence deadline for
            tombstones. When positive, compactions are also triggered by
            tombstones older than the TTL (§2.3.3).
        max_levels: Safety cap on tree depth.
        seed: Seed for any randomized tie-breaking, for reproducibility.
        background_mode: Run flushes and compactions on background worker
            threads (§2.1.2, §2.2.3) instead of charging them to the
            triggering write. The default keeps the engine synchronous so
            experiments stay deterministic; background mode trades that
            determinism for real SILK-style asynchrony with write-stall
            backpressure (see :mod:`repro.concurrency`).
        flush_threads: Background flush workers (``background_mode`` only).
        compaction_threads: Background compaction workers
            (``background_mode`` only). Disjoint-level jobs run in
            parallel; flushes and L0→L1 jobs take priority (SILK, §2.2.3).
        slowdown_sleep_us: Wall-clock delay injected per write while
            Level 0 is at its run limit but below the stop trigger
            (RocksDB's slowdown trigger, §2.2.3). ``0`` disables the
            slowdown; writes then only block at the hard stop.
        wal_fsync: ``os.fsync`` the real WAL file on every commit (only
            meaningful when the tree is given a ``wal_dir``). This is the
            durability cost that group commit
            (:meth:`~repro.core.wal.WriteAheadLog.append_batch`)
            amortizes: one sync per batch instead of one per write.
        wal_preserve_segments: Must stay ``True``. A tree with a
            ``wal_dir`` keeps each WAL segment until a checkpoint
            (:func:`~repro.storage.persistence.checkpoint`) covers it,
            because flushed tables are not durable before that. Nothing
            bounds the retained WAL yet: it grows until ``checkpoint``.
    """

    buffer_size_bytes: int = 64 * 1024
    num_buffers: int = 2
    memtable_kind: str = "skiplist"
    size_ratio: int = 4
    layout: str = "leveling"
    hybrid_tiered_levels: int = 1
    level0_run_limit: int = 4
    granularity: str = "file"
    picker: str = "least_overlap"
    target_file_bytes: int = 16 * 1024
    block_bytes: int = 4096
    fence_pointers: bool = True
    filter_bits_per_key: float = 10.0
    filter_allocation: str = "uniform"
    block_cache_bytes: int = 0
    cache_prefetch: bool = False
    tombstone_ttl_us: float = 0.0
    max_levels: int = 16
    seed: int = 7
    background_mode: bool = False
    flush_threads: int = 1
    compaction_threads: int = 1
    slowdown_sleep_us: float = 500.0
    wal_fsync: bool = False
    wal_preserve_segments: bool = True
    extras: Tuple[Tuple[str, object], ...] = field(default=())

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject invalid values *and* incoherent combinations.

        Called automatically at construction and again by
        :class:`~repro.core.tree.LSMTree` before it wires components
        together, so a config that was built via ``__new__``/pickling or
        mutated through ``object.__setattr__`` still cannot reach the
        engine. Raises :class:`~repro.errors.ConfigError` with an
        actionable message naming the offending knob(s).
        """
        if self.buffer_size_bytes <= 0:
            raise ConfigError("buffer_size_bytes must be positive")
        if self.num_buffers < 1:
            raise ConfigError("num_buffers must be at least 1")
        if self.memtable_kind not in MEMTABLE_KINDS:
            raise ConfigError(
                f"unknown memtable_kind {self.memtable_kind!r}; "
                f"expected one of {MEMTABLE_KINDS}"
            )
        if self.size_ratio < 2:
            raise ConfigError("size_ratio must be at least 2")
        if self.layout not in LAYOUT_KINDS:
            raise ConfigError(
                f"unknown layout {self.layout!r}; expected one of {LAYOUT_KINDS}"
            )
        if self.hybrid_tiered_levels < 0:
            raise ConfigError("hybrid_tiered_levels must be non-negative")
        if self.level0_run_limit < 1:
            raise ConfigError("level0_run_limit must be at least 1")
        if self.granularity not in GRANULARITY_KINDS:
            raise ConfigError(
                f"unknown granularity {self.granularity!r}; "
                f"expected one of {GRANULARITY_KINDS}"
            )
        if self.picker not in PICKER_KINDS:
            raise ConfigError(
                f"unknown picker {self.picker!r}; expected one of {PICKER_KINDS}"
            )
        if self.target_file_bytes <= 0:
            raise ConfigError("target_file_bytes must be positive")
        if self.block_bytes <= 0:
            raise ConfigError("block_bytes must be positive")
        if self.filter_bits_per_key < 0:
            raise ConfigError("filter_bits_per_key must be non-negative")
        if self.filter_allocation not in FILTER_ALLOCATION_KINDS:
            raise ConfigError(
                f"unknown filter_allocation {self.filter_allocation!r}; "
                f"expected one of {FILTER_ALLOCATION_KINDS}"
            )
        if self.block_cache_bytes < 0:
            raise ConfigError("block_cache_bytes must be non-negative")
        if self.tombstone_ttl_us < 0:
            raise ConfigError("tombstone_ttl_us must be non-negative")
        if self.max_levels < 2:
            raise ConfigError("max_levels must be at least 2")
        if self.flush_threads < 1:
            raise ConfigError("flush_threads must be at least 1")
        if self.compaction_threads < 1:
            raise ConfigError("compaction_threads must be at least 1")
        if self.slowdown_sleep_us < 0:
            raise ConfigError("slowdown_sleep_us must be non-negative")
        if not self.wal_preserve_segments:
            raise ConfigError(
                "wal_preserve_segments=False is gone: a flushed WAL segment "
                "is kept until a checkpoint covers it"
            )
        # -- cross-field coherence ---------------------------------------
        if self.background_mode and self.num_buffers < 2:
            raise ConfigError(
                "background_mode=True with num_buffers=1 leaves a "
                "zero-size immutable queue: every rotation would hit the "
                "write-stop trigger immediately; use num_buffers >= 2"
            )
        if self.target_file_bytes < self.block_bytes:
            raise ConfigError(
                f"target_file_bytes ({self.target_file_bytes}) smaller "
                f"than block_bytes ({self.block_bytes}) would make "
                "SSTables smaller than one data block; raise "
                "target_file_bytes or shrink block_bytes"
            )
        if self.filter_allocation == "monkey" and self.filter_bits_per_key == 0:
            raise ConfigError(
                "filter_allocation='monkey' with filter_bits_per_key=0 "
                "allocates a zero filter budget; give the filters bits or "
                "use filter_allocation='none'"
            )
        if self.cache_prefetch and self.block_cache_bytes == 0:
            raise ConfigError(
                "cache_prefetch=True needs a block cache to prefetch "
                "into; set block_cache_bytes > 0"
            )

    def with_overrides(self, **overrides: object) -> "LSMConfig":
        """Return a copy with the given fields replaced (re-validated)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    def level_capacity_bytes(self, level_index: int) -> int:
        """Capacity assigned to on-disk level ``level_index`` (0-based).

        Capacities grow exponentially with the size ratio (§2.1.1-D):
        Level 0 holds ``level0_run_limit`` buffer-sized runs, and every
        deeper level holds ``size_ratio`` times its parent.
        """
        if level_index < 0:
            raise ValueError("level_index must be non-negative")
        if level_index == 0:
            return self.buffer_size_bytes * self.level0_run_limit
        return (
            self.buffer_size_bytes
            * self.level0_run_limit
            * self.size_ratio**level_index
        )


def rocksdb_like() -> LSMConfig:
    """The RocksDB-default-shaped point of the design space.

    Tiering in the first level, leveling in the rest (§2.2.2), partial
    compaction with least-overlap picking (§2.2.3), 10 bits/key Bloom
    filters, and a block cache.
    """
    return LSMConfig(
        layout="hybrid",
        hybrid_tiered_levels=1,
        granularity="file",
        picker="least_overlap",
        block_cache_bytes=256 * 1024,
    )


def cassandra_like() -> LSMConfig:
    """A size-tiered point of the design space (Apache Cassandra, §2.2.2)."""
    return LSMConfig(layout="tiering", granularity="level")


def leveldb_like() -> LSMConfig:
    """A purely leveled point of the design space (LevelDB, §2.1.2)."""
    return LSMConfig(layout="leveling", granularity="file", picker="round_robin")


def dostoevsky_like() -> LSMConfig:
    """Lazy leveling: tiered intermediates, leveled last level (§2.2.2)."""
    return LSMConfig(layout="lazy_leveling", granularity="level")


#: A reasonable default configuration used throughout tests and examples.
DEFAULT_CONFIG: LSMConfig = LSMConfig()
