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
  The write path shares it too: :func:`key_digests` packs many keys'
  digests into one ``bytes``, a table keeps its keys' packed digests, and
  :meth:`BloomFilter.add_digests` builds a filter from them, so a key is
  hashed once when it is flushed and never again by compaction.
"""

from __future__ import annotations

import hashlib
import math
import sys
from array import array
from typing import Iterable, Optional, Tuple

from ..errors import FilterError
from .base import PointFilter

#: Digest type shared across filters: two independent 64-bit lanes used for
#: double hashing (h_i = h1 + i * h2).
Digest = Tuple[int, int]

_MASK64 = (1 << 64) - 1

#: Bytes per key in a packed digest array (:func:`key_digests`).
DIGEST_BYTES = 16

#: One 128-bit lane of a packed array with only its lowest bit set.
_ODD_BIT = b"\x01" + b"\x00" * 15

#: Maps a one-byte-per-bit flag (0 or 1) to the digit ``int(..., 2)`` reads.
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")

_BIG_ENDIAN_HOST = sys.byteorder == "big"


def key_digest(key: str) -> Digest:
    """One stable 128-bit digest of ``key``, split into two 64-bit lanes.

    Computing this once per lookup and sharing it across every level's
    filter implements the hash-sharing technique of §2.1.3.
    """
    both = int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=16).digest(), "little"
    )
    return (both & _MASK64, (both >> 64) | 1)  # odd => full-period stride


def key_digests(keys: Iterable[str]) -> bytes:
    """:func:`key_digest` of every key, packed :data:`DIGEST_BYTES`
    little-endian bytes per key: the low 8 bytes are the first lane, the
    high 8 the second (whose odd bit is forced where it is used)."""
    blake2b = hashlib.blake2b
    return b"".join(
        [blake2b(key.encode("utf-8"), digest_size=16).digest() for key in keys]
    )


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
        cls,
        keys: Iterable[str],
        bits_per_key: float,
        digests: Optional[bytes] = None,
    ) -> Optional["BloomFilter"]:
        """Build a filter sized at ``bits_per_key`` over ``keys``.

        ``digests`` is ``key_digests(keys)`` when the caller already has
        it (a table keeps its keys'); ``keys`` is then not read.

        Returns ``None`` when ``bits_per_key`` is zero (filters disabled) —
        callers treat a missing filter as "always maybe".
        """
        if bits_per_key <= 0:
            return None
        if digests is None:
            digests = key_digests(keys)
        count = len(digests) // DIGEST_BYTES
        num_bits = max(8, math.ceil(bits_per_key * max(1, count)))
        bloom = cls(num_bits, optimal_num_hashes(bits_per_key))
        bloom.add_digests(digests)
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
        """Bulk insert: :meth:`add_digests` of :func:`key_digests`."""
        self.add_digests(key_digests(keys))

    def add_digests(self, packed: bytes) -> None:
        """Bulk insert of pre-hashed keys packed by :func:`key_digests`:
        sets exactly the bits :meth:`add_digest` would, key by key (the
        table builder's path, one call per built table).

        Probe ``i`` of every key advances at once: the keys' probes are
        the 128-bit lanes of one Python int and their strides those of
        another, so the next probe is one big-int add, masked back to 64
        bits per lane, and its positions one Barrett reduction modulo
        ``num_bits`` over all lanes (no lane ever carries into the next).
        Each probe's positions land in a one-byte-per-bit scratch array,
        which one ``int(..., 2)`` packs into the bit set.
        """
        count = len(packed) // DIGEST_BYTES
        if not count:
            return
        num_bits = self._num_bits
        width = DIGEST_BYTES * count
        odd = int.from_bytes(_ODD_BIT * count, "little")
        low = odd * _MASK64  # each lane's low 64 bits
        both = int.from_bytes(packed, "little")
        probe = both & low
        stride = (both >> 64) & low | odd
        # x mod m for x < 2^64: q = (x * floor(2^64 / m)) >> 64 is the
        # quotient or one less, so x - q * m is below 2 * m, and adding
        # 2^64 - m carries into bit 64 exactly when one more m is due.
        reciprocal = (1 << 64) // num_bits
        complement = odd * ((1 << 64) - num_bits)
        flags = bytearray(num_bits)
        for probe_index in range(self._num_hashes):
            if probe_index:
                probe = (probe + stride) & low
            rest = probe - ((probe * reciprocal >> 64) & low) * num_bits
            rest -= ((rest + complement) >> 64 & odd) * num_bits
            lanes = array("Q", rest.to_bytes(width, "little"))
            if _BIG_ENDIAN_HOST:
                lanes.byteswap()
            # Even 64-bit words hold the positions, odd ones zeros.
            for position in lanes[::2]:
                flags[position] = 1
        bits = self._bits
        added = int(flags[::-1].translate(_FLAG_DIGITS), 2)
        bits[:] = (int.from_bytes(bits, "little") | added).to_bytes(
            len(bits), "little"
        )
        self._num_added += count

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
