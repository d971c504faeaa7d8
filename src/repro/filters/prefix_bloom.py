"""Prefix Bloom filter: the long-range-query filter (§2.1.3).

"Prefix filters use fixed-length key-prefixes to answer long range
membership queries." A Bloom filter is built over the length-``p`` prefix of
every key. The filter can then answer exactly the queries RocksDB's prefix
Bloom answers:

* *prefix queries* — "any key starting with P?" — with one probe;
* *range queries contained in one prefix bucket* — one probe;
* *narrow ranges spanning a few sibling buckets* — one probe per bucket.

Anything wider conservatively returns "maybe": a prefix filter cannot rule
out arbitrary ranges, which is exactly why it suits long prefix-aligned
ranges and why Rosetta was built for the short arbitrary ones (§2.1.3).
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..errors import FilterError
from .base import RangeFilter
from .bloom import BloomFilter

#: Keys shorter than the prefix length are padded with NUL, which sorts
#: before every printable character, so bucket order matches key order.
_PAD = "\x00"


def common_prefix_length(lo: str, hi: str) -> int:
    """Length of the longest shared prefix of two strings."""
    length = 0
    for left, right in zip(lo, hi):
        if left != right:
            break
        length += 1
    return length


def next_prefix(prefix: str) -> Optional[str]:
    """Smallest string greater than every string starting with ``prefix``.

    ``None`` when no such string exists (prefix is all U+10FFFF).
    """
    chars = list(prefix)
    while chars:
        code = ord(chars[-1])
        if code < 0x10FFFF:
            chars[-1] = chr(code + 1)
            return "".join(chars)
        chars.pop()
    return None


class PrefixBloomFilter(RangeFilter):
    """Bloom filter over fixed-length key prefixes.

    Args:
        prefix_length: Characters of each key hashed into the filter.
        expected_keys: Sizing hint; distinct prefixes never exceed keys.
        bits_per_key: Filter budget per added key.
        max_probes: How many sibling buckets a narrow range query may
            probe before giving up and answering "maybe".
    """

    def __init__(
        self,
        prefix_length: int,
        expected_keys: int,
        bits_per_key: float = 10.0,
        max_probes: int = 64,
    ) -> None:
        if prefix_length < 1:
            raise FilterError("prefix_length must be at least 1")
        if max_probes < 1:
            raise FilterError("max_probes must be at least 1")
        self.prefix_length = prefix_length
        self.max_probes = max_probes
        num_bits = max(64, int(bits_per_key * max(1, expected_keys)))
        self._bloom = BloomFilter(num_bits, max(1, round(bits_per_key * 0.69)))
        self._prefixes_added = 0

    @property
    def memory_bits(self) -> int:
        return self._bloom.memory_bits

    def _bucket(self, key: str) -> str:
        return key[: self.prefix_length].ljust(self.prefix_length, _PAD)

    def add(self, key: str) -> None:
        self._bloom.add(self._bucket(key))
        self._prefixes_added += 1

    def add_all(self, keys: Iterable[str]) -> None:
        """Bulk insert through :meth:`BloomFilter.add_all`: the same bits
        as :meth:`add` key by key."""
        buckets = [self._bucket(key) for key in keys]
        self._bloom.add_all(buckets)
        self._prefixes_added += len(buckets)

    def may_contain_prefix(self, prefix: str) -> bool:
        """One-probe prefix query: "may any added key start with this?"

        ``prefix`` must be exactly ``prefix_length`` characters — that is
        the granularity the filter was built at.
        """
        if len(prefix) != self.prefix_length:
            raise FilterError(
                f"probe prefixes must have length {self.prefix_length}"
            )
        return self._bloom.may_contain(prefix)

    def may_contain_range(self, lo: str, hi: str) -> bool:
        """``False`` only if no added key falls in ``[lo, hi)``.

        Decides the query only when it touches at most ``max_probes``
        prefix buckets that the filter can enumerate (a shared prefix of at
        least ``prefix_length - 1`` characters); wider ranges return
        ``True`` ("maybe"), never a false negative.
        """
        if lo >= hi:
            return False
        shared = common_prefix_length(lo, hi)
        if shared >= self.prefix_length:
            return self._bloom.may_contain(self._bucket(lo))
        if shared < self.prefix_length - 1:
            return True  # too wide for a fixed-prefix filter to decide

        # Endpoints differ in the bucket's final character: the query spans
        # sibling buckets lo_char .. hi_char that can be probed one by one.
        position = self.prefix_length - 1
        lo_code = ord(lo[position]) if len(lo) > position else 0
        if len(hi) > position:
            # Bucket hi[:p] itself is included only if hi extends past it.
            hi_code = ord(hi[position]) + (1 if len(hi) > position + 1 else 0)
        else:
            hi_code = 0
        if hi_code - lo_code > self.max_probes:
            return True
        stem = lo[:position].ljust(position, _PAD)
        for code in range(lo_code, hi_code):
            if self._bloom.may_contain(stem + chr(code)):
                return True
        return False
