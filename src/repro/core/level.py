"""Levels: capacity-bounded collections of sorted runs (§2.1.1-D).

Each on-disk level is assigned a capacity that grows exponentially with
depth. How many *runs* a level may stack before compaction is the data
layout knob: one for leveling, up to ``T`` for tiering, and anything in
between for the hybrid layouts of §2.2.2. Runs are ordered newest-first, so
point lookups "move from the most to the least recent tier" (§2.1.2).
"""

from __future__ import annotations

from typing import List

from .run import SortedRun


class Level:
    """One on-disk level holding zero or more sorted runs, newest first."""

    def __init__(self, index: int, capacity_bytes: int) -> None:
        if index < 0:
            raise ValueError("level index must be non-negative")
        if capacity_bytes <= 0:
            raise ValueError("level capacity must be positive")
        self.index = index
        self.capacity_bytes = capacity_bytes
        self.runs: List[SortedRun] = []

    def __repr__(self) -> str:
        return (
            f"Level({self.index}, runs={len(self.runs)}, "
            f"bytes={self.data_bytes}/{self.capacity_bytes})"
        )

    @property
    def data_bytes(self) -> int:
        """Total payload bytes across the level's runs."""
        return sum(run.data_bytes for run in self.runs)

    @property
    def entry_count(self) -> int:
        """Total entries across the level's runs."""
        return sum(run.entry_count for run in self.runs)

    @property
    def tombstone_count(self) -> int:
        """Total tombstones across the level's runs."""
        return sum(run.tombstone_count for run in self.runs)

    @property
    def run_count(self) -> int:
        """Number of sorted runs currently stacked."""
        return len(self.runs)

    @property
    def is_empty(self) -> bool:
        """Whether the level holds no data."""
        return not self.runs

    @property
    def is_over_capacity(self) -> bool:
        """Whether the level's bytes exceed its assigned capacity."""
        return self.data_bytes > self.capacity_bytes

    def add_run_newest(self, run: SortedRun) -> None:
        """Stack a run as the most recent of the level."""
        self.runs.insert(0, run)

    def add_run_oldest(self, run: SortedRun) -> None:
        """Append a run as the least recent (used when merging downward)."""
        self.runs.append(run)

    def remove_run(self, run: SortedRun) -> None:
        """Remove a specific run object from the level."""
        self.runs.remove(run)

    def overlapping_run_bytes(self, lo: str, hi: str) -> int:
        """Bytes of this level's files overlapping ``[lo, hi]``.

        Used by the least-overlap compaction picker (§2.2.3).
        """
        return sum(
            table.data_bytes
            for run in self.runs
            for table in run.overlapping_tables(lo, hi)
        )
