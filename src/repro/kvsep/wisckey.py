"""WiscKey-style store: an LSM-tree of keys over a value log (§2.2.2).

:class:`WiscKeyStore` wraps an ordinary :class:`~repro.core.tree.LSMTree`:
values at or above ``separation_threshold`` go to the
:class:`~repro.kvsep.vlog.ValueLog` and the tree stores only a pointer;
small values stay inline (RocksDB's BlobDB draws the same line). The paper's
headline numbers — "significantly reduces (4×) write amplification during
ingestion, while facilitating up to 100× faster data loading" — come from
compactions no longer rewriting the value bytes; experiment E6 reproduces
the shape.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.config import LSMConfig
from ..core.tree import LSMTree
from ..storage.disk import SimulatedDisk
from .vlog import ValueLog, ValuePointer


class WiscKeyStore:
    """Key-value store with WiscKey-style key/value separation.

    Args:
        config: Configuration for the underlying key tree.
        disk: Shared device; defaults to a fresh SSD profile.
        separation_threshold: Values of at least this many bytes are
            separated into the value log; smaller ones stay inline.
        gc_trigger_garbage_fraction: A GC pass runs when at least this
            fraction of the log is estimated dead.
        gc_window_bytes: Tail window each GC pass scans.

    The public surface mirrors :class:`~repro.core.tree.LSMTree` (put/get/
    scan/delete) so benchmarks can swap the two implementations.
    """

    def __init__(
        self,
        config: Optional[LSMConfig] = None,
        disk: Optional[SimulatedDisk] = None,
        separation_threshold: int = 128,
        gc_trigger_garbage_fraction: float = 0.5,
        gc_window_bytes: int = 64 * 1024,
    ) -> None:
        if separation_threshold < 1:
            raise ValueError("separation_threshold must be positive")
        if not 0.0 < gc_trigger_garbage_fraction <= 1.0:
            raise ValueError("gc_trigger_garbage_fraction must be in (0, 1]")
        self.disk = disk or SimulatedDisk()
        self.tree = LSMTree(config, disk=self.disk)
        self.vlog = ValueLog(self.disk)
        self.separation_threshold = separation_threshold
        self.gc_trigger_garbage_fraction = gc_trigger_garbage_fraction
        self.gc_window_bytes = gc_window_bytes
        self._live_value_bytes = 0
        self.user_bytes_written = 0

    # -- external operations -------------------------------------------------

    def put(self, key: str, value: str) -> None:
        """Insert or update, separating large values into the log."""
        self.user_bytes_written += len(key) + len(value)
        if len(value) >= self.separation_threshold:
            pointer = self.vlog.append(key, value)
            self.tree.put(key, pointer.encode())
            self._live_value_bytes += pointer.size
            self._maybe_collect()
        else:
            self.tree.put(key, value)

    def get(self, key: str) -> Optional[str]:
        """Point lookup; dereferences a log pointer when present."""
        stored = self.tree.get(key)
        if stored is None or not ValuePointer.is_pointer(stored):
            return stored
        return self.vlog.get(ValuePointer.decode(stored))

    def scan(self, lo: str, hi: str) -> List[Tuple[str, str]]:
        """Range scan; each separated value costs one log point-read —
        WiscKey's documented range-query penalty."""
        results = []
        for key, stored in self.tree.scan(lo, hi):
            if ValuePointer.is_pointer(stored):
                results.append(
                    (key, self.vlog.get(ValuePointer.decode(stored), "scan"))
                )
            else:
                results.append((key, stored))
        return results

    def delete(self, key: str) -> None:
        """Logical delete; dead log space is reclaimed by GC later."""
        stored = self.tree.get(key)
        if stored is not None and ValuePointer.is_pointer(stored):
            self._live_value_bytes -= ValuePointer.decode(stored).size
        self.tree.delete(key)
        self._maybe_collect()

    # -- metrics --------------------------------------------------------------

    def write_amplification(self) -> float:
        """Device bytes written per user byte, across tree + log + WAL."""
        if self.user_bytes_written == 0:
            return 0.0
        return self.disk.counters.bytes_written / self.user_bytes_written

    # -- garbage collection ----------------------------------------------------

    def _maybe_collect(self) -> None:
        physical = self.vlog.physical_bytes
        if physical <= 0:
            return
        garbage_fraction = 1.0 - self.vlog.live_fraction_estimate(
            self._live_value_bytes
        )
        if garbage_fraction < self.gc_trigger_garbage_fraction:
            return
        self.collect_garbage()

    def collect_garbage(self) -> int:
        """Run one explicit GC pass; returns reclaimed bytes."""

        def is_live(key: str, pointer: ValuePointer) -> bool:
            stored = self.tree.get(key)
            return (
                stored is not None
                and ValuePointer.is_pointer(stored)
                and ValuePointer.decode(stored).offset == pointer.offset
            )

        def relocate(key: str, pointer: ValuePointer) -> None:
            self.tree.put(key, pointer.encode())

        return self.vlog.garbage_collect(
            is_live, relocate, self.gc_window_bytes
        )
