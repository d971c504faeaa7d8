"""Sorted-string tables: the immutable on-disk files of the tree (§2.1.1-C).

An SSTable holds a sorted, key-unique slice of a run, split into fixed-size
data blocks. Every table carries its own auxiliary structures:

* a :class:`~repro.core.fence.FenceIndex` over block key bounds (§2.1.3),
* an optional per-table Bloom filter sized by the level's bits/key budget
  (§2.1.3; Monkey varies this budget per level),
* summary statistics (entry/tombstone counts, age of oldest tombstone) that
  drive compaction picking (§2.2.3) and Lethe TTL triggers (§2.3.3).

Tables are immutable: "modifications to an entry entail re-writing of the
corresponding file anew" — compactions build new tables and retire old ones.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

from ..filters.bloom import BloomFilter, Digest, key_digest, key_digests
from ..storage.block_cache import BlockCache, HeatTracker
from ..storage.disk import SimulatedDisk
from .entry import TOMBSTONE_KINDS, Entry
from .fence import BlockBounds, FenceIndex
from .range_tombstone import RangeTombstone
from .stats import TreeStats

_table_ids = itertools.count(1)


def reset_table_ids(start: int = 1) -> None:
    """Restart the process-global table-id counter (crash-simulation hook).

    Checkpoint filenames derive from table ids, and a real process
    restart resets the counter — so crash harnesses that simulate many
    boots inside one process call this before each simulated boot to
    keep runs byte-for-byte reproducible.
    """
    global _table_ids
    _table_ids = itertools.count(start)


class ReadContext:
    """Everything a read needs — the device, caches, and stat counters —
    and the record of what the read did with them.

    Bundled so that deep call chains (tree -> run -> table) stay explicit
    without six positional arguments at every hop. The probe counts
    (``runs_probed`` … ``blocks_from_disk``, named after the
    :class:`~repro.core.stats.TreeStats` counters they feed) are plain
    attributes of this per-read object, so the probe loop bumps them
    without a lock; they reach ``stats`` in one
    :meth:`~repro.core.stats.TreeStats.fold_read` when the read ends.
    """

    __slots__ = (
        "disk",
        "cache",
        "heat",
        "stats",
        "cause",
        "runs_probed",
        "filter_probes",
        "filter_negatives",
        "filter_false_positives",
        "fence_misses",
        "blocks_from_cache",
        "blocks_from_disk",
    )

    def __init__(
        self,
        disk: SimulatedDisk,
        cache: Optional[BlockCache] = None,
        heat: Optional[HeatTracker] = None,
        stats: Optional[TreeStats] = None,
        cause: str = "get",
    ) -> None:
        self.disk = disk
        self.cache = cache
        self.heat = heat
        self.stats = stats
        self.cause = cause
        self._zero_counts()

    def _zero_counts(self) -> None:
        self.runs_probed = 0
        self.filter_probes = 0
        self.filter_negatives = 0
        self.filter_false_positives = 0
        self.fence_misses = 0
        self.blocks_from_cache = 0
        self.blocks_from_disk = 0

    def fold(self) -> None:
        """Add the counts so far to ``stats`` (if any) and zero them: how
        a lookup made outside a tree read reports its work."""
        if self.stats is not None:
            self.stats.fold_read(self)
        self._zero_counts()

    def read_block(self, table: "SSTable", block_index: int) -> None:
        """Fetch one data block, through the cache when present."""
        block = table.blocks[block_index]
        block_id = (table.table_id, block_index)
        cache = self.cache
        if cache is not None and cache.probe(block_id):
            self.blocks_from_cache += 1
        else:
            self.disk.read(block.nbytes, self.cause)
            self.blocks_from_disk += 1
            if cache is not None:
                cache.insert(block_id, block.nbytes)
        if self.heat is not None:
            self.heat.record_access(block.first_key, block.last_key)
        table.last_access_us = self.disk.now_us


def split_by_size(
    sizes: Sequence[int], limit: int
) -> List[Tuple[int, int, int]]:
    """Cut a sequence of non-negative item sizes greedily into ``(start,
    stop, nbytes)`` slices of at most ``limit`` bytes; an item larger than
    ``limit`` gets a slice of its own. Blocks within a table and tables
    within a compaction's output are both cut this way.

    Each slice is one bisection over the prefix sums: the longest run
    from ``start`` whose bytes stay within ``limit``, at least one item.
    """
    ends = list(itertools.accumulate(sizes, initial=0))
    slices: List[Tuple[int, int, int]] = []
    start = 0
    while start < len(sizes):
        stop = bisect.bisect_right(ends, ends[start] + limit, start + 2) - 1
        slices.append((start, stop, ends[stop] - ends[start]))
        start = stop
    return slices


class Block:
    """One data block: a contiguous, sorted slice of a table's entries
    and, aligned with them, their keys (for bisection and for the
    compaction merge's sort)."""

    __slots__ = ("entries", "nbytes", "keys")

    def __init__(
        self,
        entries: Sequence[Entry],
        nbytes: Optional[int] = None,
        keys: Optional[List[str]] = None,
    ) -> None:
        """``nbytes``/``keys`` may be precomputed by the caller (the
        table builder already has both) to skip a second pass here."""
        if not entries:
            raise ValueError("a block holds at least one entry")
        self.entries = list(entries)
        self.nbytes = (
            sum(entry.size for entry in self.entries)
            if nbytes is None
            else nbytes
        )
        self.keys = (
            [entry.key for entry in self.entries] if keys is None else keys
        )

    @property
    def first_key(self) -> str:
        """Smallest key in the block."""
        return self.entries[0].key

    @property
    def last_key(self) -> str:
        """Largest key in the block."""
        return self.entries[-1].key

    def find(self, key: str) -> Optional[Entry]:
        """Binary-search the block for ``key``."""
        pos = bisect.bisect_left(self.keys, key)
        if pos < len(self.keys) and self.keys[pos] == key:
            return self.entries[pos]
        return None


class SSTable:
    """An immutable sorted file with fence pointers and a Bloom filter.

    Build tables with :meth:`build` (which charges the flush/compaction
    write to the simulated disk) rather than the constructor.
    """

    def __init__(
        self,
        blocks: List[Block],
        fence: Optional[FenceIndex],
        bloom: Optional[BloomFilter],
        created_us: float,
        range_tombstones: Optional[List[RangeTombstone]],
        tombstone_stamps: List[float],
        digests: bytes,
    ) -> None:
        """``tombstone_stamps`` holds the creation stamp of every point
        tombstone among the blocks' entries (gathered by :meth:`build` in
        its one pass over them); ``digests`` their keys' packed
        :func:`~repro.filters.bloom.key_digests`."""
        if not blocks and not range_tombstones:
            raise ValueError(
                "an SSTable holds at least one block or range tombstone"
            )
        self.table_id = next(_table_ids)
        self.blocks = blocks
        self.fence = fence
        self.bloom = bloom
        #: The entries' key digests, packed and in entry order: hashed once
        #: when a key is flushed, then carried by every compaction that
        #: rewrites it, so the output filters are built without hashing.
        self.digests = digests
        #: Range-deletion metadata (the range-del block, §2.3.3): consulted
        #: before point data, replicated with the table through compactions.
        self.range_tombstones: List[RangeTombstone] = list(
            range_tombstones or []
        )
        self.created_us = created_us
        #: Simulated time of the most recent block read from this table;
        #: drives the "coldest" compaction picker (§2.2.3).
        self.last_access_us = created_us
        if blocks:
            self.min_key = blocks[0].first_key
            self.max_key = blocks[-1].last_key
        else:
            # A tombstone-only carrier file: its key range is its spans'.
            self.min_key = min(t.lo for t in self.range_tombstones)
            self.max_key = max(t.hi for t in self.range_tombstones)
        #: Smallest and largest key the table *affects*: point data plus
        #: tombstone spans. Compaction overlap uses effective ranges so a
        #: newer range tombstone can never sink below older data it covers.
        self.effective_min_key = min(
            [self.min_key] + [t.lo for t in self.range_tombstones]
        )
        self.effective_max_key = max(
            [self.max_key] + [t.hi for t in self.range_tombstones]
        )
        self.entry_count = sum(len(block.entries) for block in blocks)
        self.data_bytes = sum(block.nbytes for block in blocks) + sum(
            tombstone.size for tombstone in self.range_tombstones
        )
        self.tombstone_count = len(tombstone_stamps)
        stamps = tombstone_stamps + [t.stamp_us for t in self.range_tombstones]
        #: Creation stamp of the oldest (point or range) tombstone still in
        #: this file, or ``None`` when it holds none (drives Lethe TTL —
        #: the TTL therefore bounds range-delete persistence too, §2.3.3).
        self.oldest_tombstone_us: Optional[float] = (
            min(stamps) if stamps else None
        )

    @classmethod
    def build(
        cls,
        entries: Sequence[Entry],
        disk: SimulatedDisk,
        block_bytes: int = 4096,
        fence_pointers: bool = True,
        filter_bits_per_key: float = 10.0,
        cause: str = "flush",
        charge_io: bool = True,
        range_tombstones: Optional[List[RangeTombstone]] = None,
        sizes: Optional[Sequence[int]] = None,
        digests: Optional[bytes] = None,
    ) -> "SSTable":
        """Materialize a table from sorted, key-unique entries.

        Charges the device with one sequential write of the table's payload
        under the given ``cause`` tag (``flush`` or ``compaction``), unless
        ``charge_io`` is false (used when *restoring* already-persistent
        tables from a checkpoint). ``sizes`` are the entries' charged
        sizes when the caller already has them (the output splitter of
        :meth:`~repro.compaction.executor.CompactionExecutor.build_tables`
        does). ``digests`` are the keys' packed digests when the caller
        carries them (a compaction does); otherwise they are computed
        here, which is the one hash of a key's lifetime on the write path.

        Raises:
            ValueError: If ``entries`` is unsorted or has duplicate keys —
                a sorted run never contains either — or if both ``entries``
                and ``range_tombstones`` are empty.
        """
        if not entries and not range_tombstones:
            raise ValueError("cannot build an empty SSTable")
        # One pass over the entries collects the keys and the point
        # tombstones' stamps; the block splitter, the Block constructors,
        # the fence index, and the Bloom filter all reuse the keys and the
        # charged sizes instead of re-deriving them per entry.
        keys: List[str] = []
        tombstone_stamps: List[float] = []
        for entry in entries:
            keys.append(entry.key)
            if entry.kind in TOMBSTONE_KINDS:
                tombstone_stamps.append(entry.stamp_us)
        for left, right in zip(keys, keys[1:]):
            if left >= right:
                raise ValueError("entries must be strictly sorted by key")
        if sizes is None:
            sizes = [entry.size for entry in entries]
        blocks = [
            Block(entries[start:stop], nbytes, keys[start:stop])
            for start, stop, nbytes in split_by_size(sizes, block_bytes)
        ]

        fence = None
        if fence_pointers:
            fence = FenceIndex(
                [BlockBounds(blk.first_key, blk.last_key) for blk in blocks]
            )
        if digests is None:
            digests = key_digests(keys)
        bloom = BloomFilter.for_keys(keys, filter_bits_per_key, digests)
        table = cls(
            blocks,
            fence,
            bloom,
            created_us=disk.now_us,
            range_tombstones=range_tombstones,
            tombstone_stamps=tombstone_stamps,
            digests=digests,
        )
        if charge_io:
            disk.write(table.data_bytes, cause)
        return table

    def __len__(self) -> int:
        return self.entry_count

    def __repr__(self) -> str:
        return (
            f"SSTable(id={self.table_id}, [{self.min_key!r}..{self.max_key!r}], "
            f"entries={self.entry_count}, bytes={self.data_bytes})"
        )

    def key_range_overlaps(self, lo: str, hi: str) -> bool:
        """Whether the table's *effective* range intersects ``[lo, hi]``."""
        return self.effective_min_key <= hi and lo <= self.effective_max_key

    def overlaps_table(self, other: "SSTable") -> bool:
        """Whether two tables' effective key ranges intersect."""
        return self.key_range_overlaps(
            other.effective_min_key, other.effective_max_key
        )

    def get(
        self, key: str, ctx: ReadContext, digest: Optional[Digest] = None
    ) -> Optional[Entry]:
        """Point lookup inside this table: :meth:`probe`, then fold the
        counts into ``ctx.stats``. (A tree read probes many tables and
        folds once itself.)"""
        found = self.probe(key, ctx, digest)
        ctx.fold()
        return found

    def probe(
        self, key: str, ctx: ReadContext, digest: Optional[Digest] = None
    ) -> Optional[Entry]:
        """Counted point probe, charging I/O and counting into ``ctx``.

        The probe order mirrors a real engine (§2.1.3): key-range check
        (free), Bloom filter (in-memory), fence pointers (in-memory), then
        at most one data block from cache or disk. Without fence pointers
        the lookup must fetch blocks sequentially until the key's position
        is passed — the superfluous I/O experiment E4 quantifies.
        """
        if key < self.min_key or key > self.max_key:
            return None
        bloom = self.bloom
        if bloom is not None:
            if digest is None:
                digest = key_digest(key)
            ctx.filter_probes += 1
            if not bloom.may_contain_digest(digest):
                ctx.filter_negatives += 1
                return None

        if self.fence is not None:
            block_index = self.fence.locate(key)
            if block_index is None:
                # Key falls in a gap between blocks: fence pointers answer
                # without any disk access, but the Bloom filter said maybe.
                ctx.fence_misses += 1
                if bloom is not None:
                    ctx.filter_false_positives += 1
                return None
            ctx.read_block(self, block_index)
            found = self.blocks[block_index].find(key)
        else:
            found = None
            for block_index, block in enumerate(self.blocks):
                ctx.read_block(self, block_index)
                if block.last_key >= key:
                    found = block.find(key)
                    break

        if found is None and bloom is not None:
            ctx.filter_false_positives += 1
        return found

    def iter_entries(self) -> Iterator[Entry]:
        """All entries in key order, without charging I/O (compaction and
        flush charge reads explicitly at the job level)."""
        for block in self.blocks:
            yield from block.entries

    def iter_range(self, lo: str, hi: str, ctx: ReadContext) -> Iterator[Entry]:
        """Entries with ``lo <= key < hi``, charging block reads lazily:
        a block is charged when the consumer first needs an entry of it."""
        return itertools.chain.from_iterable(self.iter_block_slices(lo, hi, ctx))

    def iter_block_slices(
        self, lo: str, hi: str, ctx: ReadContext
    ) -> Iterator[List[Entry]]:
        """Per overlapping block, in order: charge it, then yield its
        entries within ``[lo, hi)`` as one list (bisected, not filtered
        entry by entry)."""
        if lo >= hi:
            return
        if self.fence is not None:
            start, stop = self.fence.overlap(lo, hi)
        else:
            start, stop = 0, len(self.blocks)
        for block_index in range(start, stop):
            block = self.blocks[block_index]
            keys = block.keys
            if keys[-1] < lo:
                continue
            if keys[0] >= hi:
                break
            ctx.read_block(self, block_index)
            begin = bisect.bisect_left(keys, lo)
            end = bisect.bisect_left(keys, hi, begin)
            yield block.entries[begin:end]
            if end < len(keys):
                return
