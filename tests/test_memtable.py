"""Unit tests for the four memtable variants (§2.2.1)."""

import random

import pytest

from repro.core.config import MEMTABLE_KINDS
from repro.core.entry import put, tombstone
from repro.core.memtable import (
    HashLinkedListMemTable,
    HashSkipListMemTable,
    LockedMemTable,
    MemTable,
    SkipListMemTable,
    VectorMemTable,
    make_memtable,
)

ALL_KINDS = list(MEMTABLE_KINDS)


@pytest.fixture(params=ALL_KINDS)
def memtable(request):
    return make_memtable(request.param)


class TestCommonBehaviour:
    def test_insert_then_get(self, memtable):
        memtable.insert(put("a", "1", 0))
        found = memtable.get("a")
        assert found is not None and found.value == "1"

    def test_get_missing_returns_none(self, memtable):
        assert memtable.get("nope") is None

    def test_update_replaces_in_place(self, memtable):
        memtable.insert(put("a", "old", 0))
        memtable.insert(put("a", "new", 1))
        assert memtable.get("a").value == "new"
        assert len(memtable) == 1

    def test_tombstone_visible_in_buffer(self, memtable):
        memtable.insert(put("a", "1", 0))
        memtable.insert(tombstone("a", 1))
        assert memtable.get("a").is_tombstone

    def test_entries_sorted_unique(self, memtable):
        for index, key in enumerate(["m", "a", "z", "a", "q"]):
            memtable.insert(put(key, f"v{index}", index))
        entries = memtable.entries()
        keys = [entry.key for entry in entries]
        assert keys == sorted(set(keys))
        by_key = {entry.key: entry for entry in entries}
        assert by_key["a"].value == "v3"  # the later insert wins

    def test_scan_respects_bounds(self, memtable):
        for index, key in enumerate(["a", "b", "c", "d"]):
            memtable.insert(put(key, key, index))
        assert [entry.key for entry in memtable.scan("b", "d")] == ["b", "c"]

    @pytest.mark.parametrize("locked", [False, True])
    def test_scan_equals_base_walk_on_random_ranges(self, memtable, locked):
        """A kind may override ``scan`` with a seek (the skip list does);
        every kind must still agree with the base walk over ``entries``,
        bare or behind the background-mode lock."""
        rng = random.Random(11)
        for seqno in range(400):
            key = f"k{rng.randrange(300):04d}"
            entry = (
                tombstone(key, seqno)
                if rng.random() < 0.1
                else put(key, f"v{seqno}", seqno)
            )
            memtable.insert(entry)
        scanned = LockedMemTable(memtable) if locked else memtable
        bounds = [f"k{index:04d}" for index in range(0, 301, 7)] + ["", "k", "l"]
        for _ in range(200):
            lo, hi = rng.choice(bounds), rng.choice(bounds)
            assert list(scanned.scan(lo, hi)) == list(
                MemTable.scan(memtable, lo, hi)
            )

    def test_size_accounting_tracks_replacement(self, memtable):
        memtable.insert(put("a", "short", 0))
        first = memtable.size_bytes
        memtable.insert(put("a", "a-much-longer-value", 1))
        assert memtable.size_bytes > first
        memtable.insert(put("a", "s", 2))
        assert memtable.size_bytes < first

    def test_len_counts_live_keys(self, memtable):
        memtable.insert(put("a", "1", 0))
        memtable.insert(put("b", "2", 1))
        memtable.insert(put("a", "3", 2))
        assert len(memtable) == 2


class TestVariantSpecifics:
    def test_factory_types(self):
        assert isinstance(make_memtable("vector"), VectorMemTable)
        assert isinstance(make_memtable("skiplist"), SkipListMemTable)
        assert isinstance(make_memtable("hash_skiplist"), HashSkipListMemTable)
        assert isinstance(
            make_memtable("hash_linkedlist"), HashLinkedListMemTable
        )

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_memtable("btree")

    def test_vector_reports_expensive_point_reads(self):
        assert not VectorMemTable().supports_point_reads_cheaply
        assert SkipListMemTable().supports_point_reads_cheaply

    def test_hash_skiplist_shard_validation(self):
        with pytest.raises(ValueError):
            HashSkipListMemTable(num_shards=0)

    def test_hash_linkedlist_bucket_validation(self):
        with pytest.raises(ValueError):
            HashLinkedListMemTable(num_buckets=0)

    def test_vector_keeps_all_appends_but_resolves_latest(self):
        table = VectorMemTable()
        for seqno in range(5):
            table.insert(put("k", f"v{seqno}", seqno))
        assert table.get("k").value == "v4"
        assert [entry.value for entry in table.entries()] == ["v4"]


class TestManyKeys:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_thousand_keys_roundtrip(self, kind):
        table = make_memtable(kind)
        for index in range(1000):
            table.insert(put(f"key{index:05d}", str(index), index))
        assert len(table) == 1000
        assert table.get("key00500").value == "500"
        entries = table.entries()
        assert len(entries) == 1000
        assert entries[0].key == "key00000"
        assert entries[-1].key == "key00999"
