"""Key-choice distributions for synthetic workloads.

The cited workload studies (YCSB, the Facebook RocksDB study [23]) describe
key popularity with a handful of canonical distributions; this module
implements them with O(1) sampling:

* :class:`UniformKeys` — every key equally likely.
* :class:`ZipfianKeys` — heavy-tailed popularity (the YCSB "zipfian"
  generator, Gray et al.'s algorithm), with optional hash-scrambling so the
  hot keys are scattered across the key space.
* :class:`LatestKeys` — recency-skewed: recently inserted keys are hot.
* :class:`SequentialKeys` — monotonically increasing inserts (time-series
  style), the LSM best case.
"""

from __future__ import annotations

import abc
import random

#: Default zero-padded key format used across the library's experiments.
KEY_FORMAT = "key{:010d}"


def format_key(index: int) -> str:
    """Render a key index in the library's canonical zero-padded format."""
    return KEY_FORMAT.format(index)


class KeyDistribution(abc.ABC):
    """Maps a random stream onto key indexes in ``[0, key_count)``."""

    def __init__(self, key_count: int, seed: int = 0) -> None:
        if key_count < 1:
            raise ValueError("key_count must be positive")
        self.key_count = key_count
        self._rng = random.Random(seed)

    @abc.abstractmethod
    def next_index(self) -> int:
        """Sample one key index."""

    def next_key(self) -> str:
        """Sample one formatted key."""
        return format_key(self.next_index())

    def notice_insert(self, index: int) -> None:
        """Hook: the workload inserted a new largest index (for "latest")."""


class UniformKeys(KeyDistribution):
    """Uniformly random keys."""

    def next_index(self) -> int:
        return self._rng.randrange(self.key_count)


class ZipfianKeys(KeyDistribution):
    """Zipf-distributed keys via the Gray et al. / YCSB constant-time
    generator.

    Args:
        key_count: Size of the key universe.
        theta: Skew in (0, 1); YCSB's default 0.99 makes the hottest key
            ~10% of accesses for a million keys.
        scramble: Hash the rank onto the key space so popular keys are not
            clustered at the low end (YCSB's "scrambled zipfian").
        seed: RNG seed.
    """

    def __init__(
        self,
        key_count: int,
        theta: float = 0.99,
        scramble: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__(key_count, seed)
        if not 0 < theta < 1:
            raise ValueError("theta must be in (0, 1)")
        self.theta = theta
        self.scramble = scramble
        self._zetan = self._zeta(key_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1 - (2.0 / key_count) ** (1 - theta)) / (
            1 - self._zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(count: int, theta: float) -> float:
        return sum(1.0 / (i**theta) for i in range(1, count + 1))

    def next_index(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + 0.5**self.theta:
            rank = 1
        else:
            rank = int(
                self.key_count * (self._eta * u - self._eta + 1) ** self._alpha
            )
        rank = min(rank, self.key_count - 1)
        if not self.scramble:
            return rank
        return (rank * 0x9E3779B97F4A7C15 + 0x7F4A7C15) % self.key_count


class LatestKeys(KeyDistribution):
    """Recency-skewed choice: zipfian over distance from the newest key."""

    def __init__(self, key_count: int, theta: float = 0.99, seed: int = 0) -> None:
        super().__init__(key_count, seed)
        self._zipf = ZipfianKeys(key_count, theta, scramble=False, seed=seed)
        self._max_index = key_count - 1

    def notice_insert(self, index: int) -> None:
        self._max_index = max(self._max_index, index)

    def next_index(self) -> int:
        offset = self._zipf.next_index()
        return max(0, self._max_index - offset)


class SequentialKeys(KeyDistribution):
    """Monotonically increasing keys (wraps at ``key_count``)."""

    def __init__(self, key_count: int, seed: int = 0) -> None:
        super().__init__(key_count, seed)
        self._cursor = 0

    def next_index(self) -> int:
        index = self._cursor
        self._cursor = (self._cursor + 1) % self.key_count
        return index


def make_distribution(
    name: str, key_count: int, seed: int = 0, theta: float = 0.99
) -> KeyDistribution:
    """Factory: ``uniform`` | ``zipfian`` | ``latest`` | ``sequential``."""
    if name == "uniform":
        return UniformKeys(key_count, seed)
    if name == "zipfian":
        return ZipfianKeys(key_count, theta=theta, seed=seed)
    if name == "latest":
        return LatestKeys(key_count, theta=theta, seed=seed)
    if name == "sequential":
        return SequentialKeys(key_count, seed)
    raise ValueError(f"unknown distribution {name!r}")


def zipf_hot_fraction(key_count: int, theta: float, hot_keys: int) -> float:
    """Analytic share of accesses landing on the ``hot_keys`` hottest keys."""
    zetan = sum(1.0 / (i**theta) for i in range(1, key_count + 1))
    hot = sum(1.0 / (i**theta) for i in range(1, hot_keys + 1))
    return hot / zetan if zetan else 0.0


def estimate_theta_for_hot_share(
    key_count: int, hot_fraction_keys: float, target_share: float
) -> float:
    """Find the zipf skew where ``hot_fraction_keys`` of keys get
    ``target_share`` of accesses (bisection; used to calibrate workloads)."""
    if not 0 < hot_fraction_keys < 1 or not 0 < target_share < 1:
        raise ValueError("fractions must be in (0, 1)")
    hot_keys = max(1, int(key_count * hot_fraction_keys))
    lo, hi = 0.01, 0.999
    for _ in range(40):
        mid = (lo + hi) / 2
        if zipf_hot_fraction(key_count, mid, hot_keys) < target_share:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
