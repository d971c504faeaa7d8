"""Unit tests for the Bloom filter and hash sharing."""

import hashlib

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import FilterError
from repro.filters.bloom import (
    BloomFilter,
    bits_for_fpr,
    key_digest,
    key_digests,
    optimal_num_hashes,
    theoretical_fpr,
)


class TestDigest:
    def test_stable(self):
        assert key_digest("hello") == key_digest("hello")

    def test_distinct_keys_differ(self):
        assert key_digest("a") != key_digest("b")

    def test_second_lane_is_odd(self):
        for key in ["a", "b", "xyz"]:
            assert key_digest(key)[1] % 2 == 1


class TestBitLayout:
    """The bit array and its positions are a fixed format: the reference
    below is the definition (two 64-bit lanes of one blake2b digest, double
    hashing modulo the bit count, little-endian bit order within a byte),
    kept here in its plainest form for the inlined probe and build loops
    to be compared against."""

    @staticmethod
    def reference_positions(key, num_bits, num_hashes):
        raw = hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest()
        h1 = int.from_bytes(raw[:8], "little")
        h2 = int.from_bytes(raw[8:], "little") | 1
        return [
            ((h1 + i * h2) & ((1 << 64) - 1)) % num_bits
            for i in range(num_hashes)
        ]

    @pytest.mark.parametrize("bits_per_key", [2.0, 10.0, 13.5])
    def test_build_and_probe_match_the_reference(self, bits_per_key):
        keys = [f"key{i:05d}" for i in range(0, 600, 2)]
        bloom = BloomFilter.for_keys(keys, bits_per_key)
        expected = bytearray((bloom.num_bits + 7) // 8)
        for key in keys:
            for pos in self.reference_positions(
                key, bloom.num_bits, bloom.num_hashes
            ):
                expected[pos >> 3] |= 1 << (pos & 7)
        assert bloom._bits == expected
        for index in range(600):
            key = f"key{index:05d}"
            assert bloom.may_contain(key) == all(
                expected[pos >> 3] & (1 << (pos & 7))
                for pos in self.reference_positions(
                    key, bloom.num_bits, bloom.num_hashes
                )
            )

    @pytest.mark.parametrize(
        "bits_per_key", [0.5, 1.0, 2.0, 4.5, 10.0, 13.5, 24.0]
    )
    def test_bulk_add_sets_exactly_the_bits_of_add(self, bits_per_key):
        keys = [f"key{i:05d}" for i in range(0, 900, 3)]
        keys += ["", "ключ", "鍵", "key00003"]  # empty, non-ASCII, repeat
        num_bits = max(8, int(bits_per_key * len(keys)))
        num_hashes = optimal_num_hashes(bits_per_key)
        bulk = BloomFilter(num_bits, num_hashes)
        bulk.add_all(iter(keys))  # any iterable, consumed once
        one_by_one = BloomFilter(num_bits, num_hashes)
        for key in keys:
            one_by_one.add(key)
        assert bulk._bits == one_by_one._bits
        assert bulk._num_added == one_by_one._num_added == len(keys)
        empty = BloomFilter(num_bits, num_hashes)
        empty.add_all([])
        assert empty._bits == bytearray(len(empty._bits))
        assert empty._num_added == 0

    def test_key_digest_lanes(self):
        raw = hashlib.blake2b(b"user42", digest_size=16).digest()
        assert key_digest("user42") == (
            int.from_bytes(raw[:8], "little"),
            int.from_bytes(raw[8:], "little") | 1,
        )


#: Any keys, non-ASCII included (the default alphabet has no surrogates,
#: so every key encodes as UTF-8).
some_keys = st.lists(st.text(max_size=12), max_size=40)


class TestBulkDigests:
    """The lane-parallel bulk path sets exactly the bits a loop of
    :meth:`BloomFilter.add` sets, on empty and on non-empty filters."""

    @given(
        first=some_keys,
        second=some_keys,
        bits_per_key=st.integers(1, 20),
        extra_bits=st.integers(0, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_bulk_calls_match_add(
        self, first, second, bits_per_key, extra_bits
    ):
        # num_bits covers every residue mod 8, not only whole bytes.
        count = max(1, len(first) + len(second))
        num_bits = max(8, bits_per_key * count) + extra_bits
        num_hashes = optimal_num_hashes(bits_per_key)
        bulk = BloomFilter(num_bits, num_hashes)
        bulk.add_digests(key_digests(first))
        bulk.add_all(iter(second))  # any iterable, consumed once
        one_by_one = BloomFilter(num_bits, num_hashes)
        for key in first + second:
            one_by_one.add(key)
        assert bulk._bits == one_by_one._bits
        assert bulk._num_added == one_by_one._num_added == len(first + second)

    @given(keys=some_keys)
    @settings(max_examples=100, deadline=None)
    def test_packed_digests_are_key_digest(self, keys):
        packed = key_digests(keys)
        assert len(packed) == 16 * len(keys)
        for index, key in enumerate(keys):
            both = int.from_bytes(packed[16 * index:16 * index + 16], "little")
            assert (both & ((1 << 64) - 1), (both >> 64) | 1) == key_digest(key)

    @pytest.mark.parametrize("bits_per_key", [1.0, 7.5, 10.0])
    def test_for_keys_with_digests_is_for_keys(self, bits_per_key):
        keys = [f"key{i:05d}" for i in range(300)] + ["ключ", "鍵"]
        fresh = BloomFilter.for_keys(keys, bits_per_key)
        given_digests = BloomFilter.for_keys(
            keys, bits_per_key, key_digests(keys)
        )
        assert given_digests._bits == fresh._bits
        assert given_digests.num_bits == fresh.num_bits
        assert given_digests._num_added == fresh._num_added == len(keys)

    def test_empty_input_sets_nothing(self):
        bloom = BloomFilter(77, 3)
        bloom.add_digests(b"")
        bloom.add_all([])
        assert bloom._bits == bytearray(len(bloom._bits))
        assert bloom._num_added == 0


class TestSizing:
    def test_optimal_hashes(self):
        assert optimal_num_hashes(10) == 7
        assert optimal_num_hashes(1) == 1
        assert optimal_num_hashes(0) == 0

    def test_bits_for_fpr_monotone(self):
        assert bits_for_fpr(1000, 0.01) > bits_for_fpr(1000, 0.1)

    def test_bits_for_fpr_validates(self):
        with pytest.raises(FilterError):
            bits_for_fpr(10, 1.5)

    def test_theoretical_fpr_bounds(self):
        assert theoretical_fpr(100, 0) == 1.0
        assert theoretical_fpr(0, 100) == 0.0
        assert 0 < theoretical_fpr(100, 1000) < 1


class TestNoFalseNegatives:
    def test_every_added_key_found(self):
        keys = [f"key{i}" for i in range(500)]
        bloom = BloomFilter.for_keys(keys, bits_per_key=10)
        for key in keys:
            assert bloom.may_contain(key)

    def test_digest_probe_matches_key_probe(self):
        keys = [f"key{i}" for i in range(100)]
        bloom = BloomFilter.for_keys(keys, bits_per_key=8)
        probes = [f"key{i}" for i in range(200)]
        for key in probes:
            assert bloom.may_contain(key) == bloom.may_contain_digest(
                key_digest(key)
            )


class TestFalsePositiveRate:
    def test_near_theoretical(self):
        keys = [f"member{i}" for i in range(2000)]
        bloom = BloomFilter.for_keys(keys, bits_per_key=10)
        negatives = [f"absent{i}" for i in range(5000)]
        false_positives = sum(bloom.may_contain(key) for key in negatives)
        observed = false_positives / len(negatives)
        # 10 bits/key => ~0.8-1% theoretical; allow generous slack.
        assert observed < 0.05

    def test_more_bits_fewer_false_positives(self):
        keys = [f"m{i}" for i in range(1000)]
        negatives = [f"a{i}" for i in range(4000)]

        def observed_fpr(bits_per_key):
            bloom = BloomFilter.for_keys(keys, bits_per_key=bits_per_key)
            return sum(bloom.may_contain(k) for k in negatives) / len(negatives)

        assert observed_fpr(12) <= observed_fpr(4) <= observed_fpr(1) + 0.05

    def test_expected_fpr_reporting(self):
        bloom = BloomFilter.for_keys([f"k{i}" for i in range(100)], 10)
        assert 0 < bloom.expected_fpr() < 0.1
        assert BloomFilter(64, 1).expected_fpr() == 0.0


class TestConstruction:
    def test_for_keys_disabled(self):
        assert BloomFilter.for_keys(["a"], 0) is None

    def test_with_fpr_builds(self):
        bloom = BloomFilter.with_fpr([f"k{i}" for i in range(100)], 0.01)
        assert bloom is not None
        assert all(bloom.may_contain(f"k{i}") for i in range(100))

    def test_with_fpr_one_means_no_filter(self):
        assert BloomFilter.with_fpr(["a"], 1.0) is None

    def test_invalid_params(self):
        with pytest.raises(FilterError):
            BloomFilter(0, 1)
        with pytest.raises(FilterError):
            BloomFilter(10, 0)

    def test_memory_bits(self):
        bloom = BloomFilter(1024, 3)
        assert bloom.memory_bits == 1024

    def test_repr(self):
        assert "BloomFilter" in repr(BloomFilter(64, 2))
