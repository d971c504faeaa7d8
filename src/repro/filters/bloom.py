"""Bloom filters, the workhorse point-query filter of LSM engines (§2.1.3).

State-of-the-art LSM engines maintain one Bloom filter per sorted run so a
point lookup can skip probing a run altogether on a negative. This module
provides:

* :class:`BloomFilter` — a standard k-hash Bloom filter over a ``bytearray``
  bit array, built either from a bits-per-key budget or an explicit false
  positive rate.
* **Hash sharing** (§2.1.3, Zhu et al.): :func:`key_digest` computes a
  single 128-bit digest per key that every filter in the tree re-uses via
  :meth:`BloomFilter.may_contain_digest`, so a lookup hashes the key once
  rather than once per level — the CPU optimization the tutorial highlights.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Optional, Tuple

from ..errors import FilterError
from .base import PointFilter

#: Digest type shared across filters: two independent 64-bit lanes used for
#: double hashing (h_i = h1 + i * h2).
Digest = Tuple[int, int]

_MASK64 = (1 << 64) - 1


def key_digest(key: str) -> Digest:
    """One stable 128-bit digest of ``key``, split into two 64-bit lanes.

    Computing this once per lookup and sharing it across every level's
    filter implements the hash-sharing technique of §2.1.3.
    """
    both = int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest(), "little"
    )
    return (both & _MASK64, (both >> 64) | 1)  # odd => full-period stride


def optimal_num_hashes(bits_per_key: float) -> int:
    """The k minimizing the false positive rate for a given bits/key."""
    if bits_per_key <= 0:
        return 0
    return max(1, round(bits_per_key * math.log(2)))


def bits_for_fpr(num_keys: int, fpr: float) -> int:
    """Bits needed so ``num_keys`` keys yield false-positive rate ``fpr``."""
    if not 0 < fpr < 1:
        raise FilterError("false positive rate must be in (0, 1)")
    if num_keys <= 0:
        return 8
    return max(8, math.ceil(-num_keys * math.log(fpr) / (math.log(2) ** 2)))


def theoretical_fpr(num_keys: int, num_bits: int) -> float:
    """Expected false-positive rate of an optimally-hashed Bloom filter."""
    if num_bits <= 0:
        return 1.0
    if num_keys <= 0:
        return 0.0
    return math.exp(-(num_bits / num_keys) * (math.log(2) ** 2))


class BloomFilter(PointFilter):
    """A standard Bloom filter with double hashing over a byte-array bit set.

    Probe ``i`` of a digest ``(h1, h2)`` is bit ``((h1 + i * h2) mod 2^64)
    mod num_bits``; bit ``p`` lives at ``_bits[p >> 3] & (1 << (p & 7))``.

    Args:
        num_bits: Size of the bit array. Rounded up to at least 8.
        num_hashes: Number of probe positions per key.

    Use :meth:`for_keys` or :meth:`with_fpr` rather than the raw constructor
    when building from a budget.
    """

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits < 1:
            raise FilterError("a Bloom filter needs at least one bit")
        if num_hashes < 1:
            raise FilterError("a Bloom filter needs at least one hash")
        self._num_bits = max(8, int(num_bits))
        self._num_hashes = int(num_hashes)
        self._bits = bytearray((self._num_bits + 7) // 8)
        self._num_added = 0

    @classmethod
    def for_keys(
        cls, keys: Iterable[str], bits_per_key: float
    ) -> Optional["BloomFilter"]:
        """Build a filter sized at ``bits_per_key`` over ``keys``.

        Returns ``None`` when ``bits_per_key`` is zero (filters disabled) —
        callers treat a missing filter as "always maybe".
        """
        if bits_per_key <= 0:
            return None
        key_list = list(keys)
        num_bits = max(8, math.ceil(bits_per_key * max(1, len(key_list))))
        bloom = cls(num_bits, optimal_num_hashes(bits_per_key))
        bloom.add_all(key_list)
        return bloom

    @classmethod
    def with_fpr(cls, keys: Iterable[str], fpr: float) -> Optional["BloomFilter"]:
        """Build a filter targeting false-positive rate ``fpr`` over ``keys``.

        Returns ``None`` for ``fpr >= 1`` — a filter that admits everything
        is no filter at all, which is exactly what the Monkey allocation
        assigns to the deepest levels under tight memory (§2.1.3).
        """
        if fpr >= 1.0:
            return None
        key_list = list(keys)
        num_bits = bits_for_fpr(len(key_list), fpr)
        bits_per_key = num_bits / max(1, len(key_list))
        bloom = cls(num_bits, optimal_num_hashes(bits_per_key))
        bloom.add_all(key_list)
        return bloom

    @property
    def num_bits(self) -> int:
        """Size of the bit array."""
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        """Probes per key."""
        return self._num_hashes

    @property
    def memory_bits(self) -> int:
        return self._num_bits

    def add(self, key: str) -> None:
        self.add_digest(key_digest(key))

    def add_digest(self, digest: Digest) -> None:
        """Insert a pre-hashed key (hash-sharing write path)."""
        probe, stride = digest
        bits, num_bits = self._bits, self._num_bits
        for _ in range(self._num_hashes):
            pos = (probe & _MASK64) % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
            probe += stride
        self._num_added += 1

    def add_all(self, keys: Iterable[str]) -> None:
        """Bulk insert: sets exactly the bits :meth:`add` would, key by
        key, with :func:`key_digest` and the probe loop inlined (the table
        builder's path, one call per built table)."""
        bits, num_bits = self._bits, self._num_bits
        probes = range(self._num_hashes)
        blake2b, from_bytes, mask = hashlib.blake2b, int.from_bytes, _MASK64
        added = 0
        for key in keys:
            both = from_bytes(
                blake2b(key.encode("utf-8"), digest_size=16).digest(), "little"
            )
            probe, stride = both & mask, (both >> 64) | 1
            for _ in probes:
                pos = (probe & mask) % num_bits
                bits[pos >> 3] |= 1 << (pos & 7)
                probe += stride
            added += 1
        self._num_added += added

    def may_contain(self, key: str) -> bool:
        return self.may_contain_digest(key_digest(key))

    def may_contain_digest(self, digest: Digest) -> bool:
        """Probe with a pre-computed digest (hash-sharing read path)."""
        probe, stride = digest
        bits, num_bits = self._bits, self._num_bits
        for _ in range(self._num_hashes):
            pos = (probe & _MASK64) % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            probe += stride
        return True

    def expected_fpr(self) -> float:
        """Theoretical false-positive rate at the current load."""
        if self._num_added == 0:
            return 0.0
        exponent = -self._num_hashes * self._num_added / self._num_bits
        return (1.0 - math.exp(exponent)) ** self._num_hashes

    def __repr__(self) -> str:
        return (
            f"BloomFilter(bits={self._num_bits}, hashes={self._num_hashes}, "
            f"keys={self._num_added})"
        )
