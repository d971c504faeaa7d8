"""The four memory-buffer implementations the tutorial discusses (§2.2.1).

RocksDB exposes the memtable representation as a knob because the choice
constructs a small read-write tradeoff *inside* the buffer:

* :class:`VectorMemTable` — an append-only unsorted array. Highest ingestion
  throughput (O(1) appends, one sort at flush), but point reads degenerate
  to a reverse linear scan, so "its performance degrades in presence of
  interleaved reads".
* :class:`SkipListMemTable` — the common default; O(log n) for everything,
  "better performance for such mixed workloads".
* :class:`HashSkipListMemTable` — hash-sharded skip lists: near-O(1) point
  operations, ordered iteration requires merging the shards at flush time.
* :class:`HashLinkedListMemTable` — hash of per-bucket linked lists, the
  cheapest inserts after the vector; ordered iteration sorts at flush.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..entry import Entry
from .base import MemTable
from .skiplist import SkipList


class VectorMemTable(MemTable):
    """Append-only unsorted buffer (RocksDB's ``vector`` memtable).

    Appends are O(1). Because the vector cannot replace an older version in
    place cheaply, duplicates accumulate and the *latest* append wins; both
    point reads and flush reconcile duplicates (reads scan from the tail,
    flush keeps the highest sequence number per key).
    """

    def __init__(self) -> None:
        super().__init__()
        self._items: List[Entry] = []
        self._live: Dict[str, int] = {}

    def insert(self, entry: Entry) -> None:
        # A real vector memtable blindly appends; we additionally track live
        # counts so size accounting matches the other variants.
        previous_index = self._live.get(entry.key)
        replaced = (
            self._items[previous_index] if previous_index is not None else None
        )
        self._items.append(entry)
        self._live[entry.key] = len(self._items) - 1
        self._account_insert(entry, replaced)

    def get(self, key: str) -> Optional[Entry]:
        # Emulates the linear reverse scan a vector memtable performs; the
        # index is used only to keep tests fast while preserving semantics.
        index = self._live.get(key)
        if index is None:
            return None
        return self._items[index]

    def entries(self) -> List[Entry]:
        latest = {
            entry.key: entry
            for entry in self._items  # later appends overwrite earlier ones
        }
        return sorted(latest.values(), key=lambda entry: entry.key)

    @property
    def supports_point_reads_cheaply(self) -> bool:
        return False


class SkipListMemTable(MemTable):
    """Skip-list buffer: balanced reads and writes (the default)."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._list: SkipList[Entry] = SkipList(seed=seed)

    def insert(self, entry: Entry) -> None:
        replaced = self._list.insert(entry.key, entry)
        self._account_insert(entry, replaced)

    def get(self, key: str) -> Optional[Entry]:
        return self._list.get(key)

    def entries(self) -> List[Entry]:
        return [entry for _key, entry in self._list.items()]

    def scan(self, lo: str, hi: str) -> Iterator[Entry]:
        """Seek to ``lo`` in O(log n) instead of walking from the head."""
        for key, entry in self._list.items_from(lo):
            if key >= hi:
                break
            yield entry

    @property
    def supports_point_reads_cheaply(self) -> bool:
        return True


class HashSkipListMemTable(MemTable):
    """Hash-sharded skip lists (RocksDB's ``hash_skiplist``).

    Keys are hashed into ``num_shards`` independent skip lists; point
    operations touch one small list, and flush merges the shards.
    """

    def __init__(self, num_shards: int = 16, seed: int = 0) -> None:
        super().__init__()
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self._shards: List[SkipList[Entry]] = [
            SkipList(seed=seed + shard) for shard in range(num_shards)
        ]

    def _shard_for(self, key: str) -> SkipList[Entry]:
        return self._shards[hash(key) % len(self._shards)]

    def insert(self, entry: Entry) -> None:
        replaced = self._shard_for(entry.key).insert(entry.key, entry)
        self._account_insert(entry, replaced)

    def get(self, key: str) -> Optional[Entry]:
        return self._shard_for(key).get(key)

    def entries(self) -> List[Entry]:
        merged: List[Entry] = []
        for shard in self._shards:
            merged.extend(entry for _key, entry in shard.items())
        merged.sort(key=lambda entry: entry.key)
        return merged

    @property
    def supports_point_reads_cheaply(self) -> bool:
        return True


class HashLinkedListMemTable(MemTable):
    """Hash of per-bucket insertion-ordered lists (``hash_linkedlist``).

    Point operations are near-O(1); ordered iteration is the most expensive
    of the four because flush must collect and sort every bucket.
    """

    def __init__(self, num_buckets: int = 64) -> None:
        super().__init__()
        if num_buckets < 1:
            raise ValueError("num_buckets must be at least 1")
        self._buckets: List[Dict[str, Entry]] = [
            {} for _ in range(num_buckets)
        ]

    def _bucket_for(self, key: str) -> Dict[str, Entry]:
        return self._buckets[hash(key) % len(self._buckets)]

    def insert(self, entry: Entry) -> None:
        bucket = self._bucket_for(entry.key)
        replaced = bucket.get(entry.key)
        bucket[entry.key] = entry
        self._account_insert(entry, replaced)

    def get(self, key: str) -> Optional[Entry]:
        return self._bucket_for(key).get(key)

    def entries(self) -> List[Entry]:
        collected: List[Entry] = []
        for bucket in self._buckets:
            collected.extend(bucket.values())
        collected.sort(key=lambda entry: entry.key)
        return collected

    @property
    def supports_point_reads_cheaply(self) -> bool:
        return True


def make_memtable(kind: str, seed: int = 0) -> MemTable:
    """Factory mapping an :class:`~repro.core.config.LSMConfig` knob to an
    implementation.

    Args:
        kind: One of ``vector``, ``skiplist``, ``hash_skiplist``,
            ``hash_linkedlist``.
        seed: Seed for randomized structures, for reproducibility.
    """
    if kind == "vector":
        return VectorMemTable()
    if kind == "skiplist":
        return SkipListMemTable(seed=seed)
    if kind == "hash_skiplist":
        return HashSkipListMemTable(seed=seed)
    if kind == "hash_linkedlist":
        return HashLinkedListMemTable()
    raise ValueError(f"unknown memtable kind {kind!r}")
