"""Data-movement policies: which file does partial compaction move? (§2.2.3)

With partial compaction "the design decision on which file(s) to compact
affects ingestion performance". The policies here mirror the ones the
tutorial names:

* ``round_robin`` — cycle through the key space (LevelDB's cursor).
* ``least_overlap`` — pick the file with the least overlapping data in the
  next level, minimizing merge work per byte moved.
* ``most_tombstones`` — pick the file densest in tombstones, purging
  logically invalidated entries early (delete-aware picking; RocksDB's
  compensated size, Lethe's KIWI-style picking).
* ``coldest`` — pick the least recently read file, protecting the block
  cache's hot set from compaction-induced eviction.
* ``oldest`` — pick the oldest file (age-based staleness).
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional

from ..core.level import Level
from ..core.sstable import SSTable
from ..errors import ConfigError


class FilePicker(abc.ABC):
    """Chooses the victim file when a leveled level must shed data."""

    #: Name matching :data:`repro.core.config.PICKER_KINDS`.
    name: str = ""

    @abc.abstractmethod
    def pick(self, level: Level, next_level: Optional[Level]) -> SSTable:
        """Select one victim file from ``level``.

        Args:
            level: Over-capacity leveled level (holds exactly one run).
            next_level: The level the victim merges into, or ``None`` when
                the target does not exist yet.

        Raises:
            ValueError: If the level holds no files.
        """

    @staticmethod
    def _files_of(level: Level) -> List[SSTable]:
        files = [table for run in level.runs for table in run.tables]
        if not files:
            raise ValueError(f"level {level.index} holds no files to pick")
        return files

    @staticmethod
    def _overlap_ratio(table: SSTable, next_level: Optional[Level]) -> float:
        """Next-level bytes overlapping ``table``'s key range, per byte
        the table would move (0 when there is no next level)."""
        if next_level is None:
            return 0.0
        overlap = next_level.overlapping_run_bytes(table.min_key, table.max_key)
        return overlap / table.data_bytes


class RoundRobinPicker(FilePicker):
    """Cycle through the key space with one cursor per level."""

    name = "round_robin"

    def __init__(self) -> None:
        self._cursors: Dict[int, str] = {}

    def pick(self, level: Level, next_level: Optional[Level]) -> SSTable:
        files = self._files_of(level)
        cursor = self._cursors.get(level.index, "")
        chosen = next(
            (table for table in files if table.min_key > cursor), files[0]
        )
        self._cursors[level.index] = chosen.min_key
        return chosen


class LeastOverlapPicker(FilePicker):
    """Minimize next-level overlap per byte moved (§2.2.3, [38, 71])."""

    name = "least_overlap"

    def pick(self, level: Level, next_level: Optional[Level]) -> SSTable:
        files = self._files_of(level)
        return min(
            files,
            key=lambda table: (
                self._overlap_ratio(table, next_level),
                table.min_key,
            ),
        )


class MostTombstonesPicker(FilePicker):
    """Maximize tombstone density, purging invalidated data early.

    Ties (in particular the all-zero-density case of delete-free phases)
    fall back to least overlap, mirroring RocksDB's compensated-size
    ordering: delete-awareness perturbs, rather than replaces, the
    efficiency-driven choice.
    """

    name = "most_tombstones"

    def pick(self, level: Level, next_level: Optional[Level]) -> SSTable:
        files = self._files_of(level)

        def score(table: SSTable):
            density = table.tombstone_count / max(1, table.entry_count)
            overlap = self._overlap_ratio(table, next_level)
            return (-density, overlap, table.min_key)

        return min(files, key=score)


class ColdestPicker(FilePicker):
    """Move the least recently read file, sparing the cache's hot set."""

    name = "coldest"

    def pick(self, level: Level, next_level: Optional[Level]) -> SSTable:
        files = self._files_of(level)
        return min(
            files, key=lambda table: (table.last_access_us, table.min_key)
        )


class OldestPicker(FilePicker):
    """Move the file written longest ago (staleness-based)."""

    name = "oldest"

    def pick(self, level: Level, next_level: Optional[Level]) -> SSTable:
        files = self._files_of(level)
        return min(files, key=lambda table: (table.created_us, table.min_key))


def make_picker(name: str) -> FilePicker:
    """Build the picker an :class:`~repro.core.config.LSMConfig` names."""
    pickers = {
        "round_robin": RoundRobinPicker,
        "least_overlap": LeastOverlapPicker,
        "most_tombstones": MostTombstonesPicker,
        "coldest": ColdestPicker,
        "oldest": OldestPicker,
    }
    if name not in pickers:
        raise ConfigError(f"unknown picker {name!r}")
    return pickers[name]()
