"""Sorted runs: key-disjoint sequences of SSTables.

A *sorted run* is the unit the tutorial counts when it says compactions
"bound the number of sorted components or runs on disk" (§2.1.1-D). One run
spans one or more key-disjoint files so that partial compaction (§2.2.3) has
file-sized units to move; a leveled level holds a single multi-file run,
while a tiered level stacks several runs.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterator, List, Optional, Sequence

from ..filters.bloom import Digest
from .entry import Entry
from .range_tombstone import RangeTombstone, dedupe
from .sstable import ReadContext, SSTable


class SortedRun:
    """An immutable, ordered collection of key-disjoint SSTables
    (:meth:`replace_tables` returns a new run).

    Args:
        tables: Files sorted by ``min_key`` with non-overlapping ranges.

    Raises:
        ValueError: If the files overlap or are unsorted — that would make
            the run ambiguous for lookups.
    """

    def __init__(self, tables: Sequence[SSTable]) -> None:
        ordered = sorted(tables, key=lambda table: table.min_key)
        for left, right in zip(ordered, ordered[1:]):
            if left.max_key >= right.min_key:
                raise ValueError(
                    "files within a sorted run must be key-disjoint"
                )
        self.tables: List[SSTable] = list(ordered)
        # Point ranges are disjoint, so both bound arrays are sorted.
        self._min_keys = [table.min_key for table in self.tables]
        self._max_keys = [table.max_key for table in self.tables]
        #: Positions of the files whose tombstone spans reach past their
        #: point range: the only ones bisection over point bounds can miss.
        self._widened = [
            index
            for index, table in enumerate(self.tables)
            if table.effective_min_key < table.min_key
            or table.effective_max_key > table.max_key
        ]
        #: Smallest and largest key the run affects, including tombstone
        #: spans ("" for an empty run).
        self.effective_min_key = min(
            (table.effective_min_key for table in self.tables), default=""
        )
        self.effective_max_key = max(
            (table.effective_max_key for table in self.tables), default=""
        )
        #: Deduplicated range tombstones across the run's files (copies of
        #: one tombstone replicate per file; identity is (lo, hi, seqno)).
        self.range_tombstones: List[RangeTombstone] = dedupe(
            tombstone
            for table in self.tables
            for tombstone in table.range_tombstones
        )

    def __len__(self) -> int:
        return len(self.tables)

    def __iter__(self) -> Iterator[SSTable]:
        return iter(self.tables)

    def __repr__(self) -> str:
        return f"SortedRun(files={len(self.tables)}, bytes={self.data_bytes})"

    @property
    def data_bytes(self) -> int:
        """Total payload bytes across the run's files."""
        return sum(table.data_bytes for table in self.tables)

    @property
    def entry_count(self) -> int:
        """Total entries across the run's files."""
        return sum(table.entry_count for table in self.tables)

    @property
    def tombstone_count(self) -> int:
        """Total tombstones across the run's files."""
        return sum(table.tombstone_count for table in self.tables)

    @property
    def min_key(self) -> str:
        """Smallest point key in the run."""
        return self.tables[0].min_key if self.tables else ""

    @property
    def max_key(self) -> str:
        """Largest point key in the run."""
        return self.tables[-1].max_key if self.tables else ""

    def table_for(self, key: str) -> Optional[SSTable]:
        """The single file that may contain ``key``, if any."""
        pos = bisect.bisect_right(self._min_keys, key) - 1
        if pos < 0:
            return None
        table = self.tables[pos]
        if table.max_key < key:
            return None
        return table

    def get(
        self, key: str, ctx: ReadContext, digest: Optional[Digest] = None
    ) -> Optional[Entry]:
        """Point lookup: :meth:`probe`, then fold the counts into
        ``ctx.stats`` (see :meth:`SSTable.get`)."""
        found = self.probe(key, ctx, digest)
        ctx.fold()
        return found

    def probe(
        self, key: str, ctx: ReadContext, digest: Optional[Digest] = None
    ) -> Optional[Entry]:
        """Counted point probe: dispatch to the one candidate file."""
        table = self.table_for(key)
        if table is None:
            return None
        return table.probe(key, ctx, digest)

    def overlapping_tables(self, lo: str, hi: str) -> List[SSTable]:
        """Files whose effective key range intersects ``[lo, hi]``
        (inclusive; :meth:`SSTable.key_range_overlaps`), in run order.

        The files whose *point* range meets the query are one slice, found
        by bisection; a file widened by tombstone spans may meet it outside
        that slice too, and is tested on its own.
        """
        tables = self.tables
        start = bisect.bisect_left(self._max_keys, lo)
        stop = bisect.bisect_right(self._min_keys, hi)
        extra = [
            index
            for index in self._widened
            if not start <= index < stop
            and tables[index].key_range_overlaps(lo, hi)
        ]
        if not extra:
            return tables[start:stop]
        return [tables[i] for i in sorted(extra + list(range(start, stop)))]

    def iter_range(self, lo: str, hi: str, ctx: ReadContext) -> Iterator[Entry]:
        """Sorted entries with ``lo <= key < hi``, charging block I/O
        lazily, block by block, as the consumer advances."""
        return itertools.chain.from_iterable(
            self._iter_block_slices(lo, hi, ctx)
        )

    def _iter_block_slices(
        self, lo: str, hi: str, ctx: ReadContext
    ) -> Iterator[List[Entry]]:
        tables = self.tables
        first = max(0, bisect.bisect_right(self._min_keys, lo) - 1)
        for index in range(first, len(tables)):
            table = tables[index]
            if table.min_key >= hi:
                break
            if table.max_key >= lo:
                yield from table.iter_block_slices(lo, hi, ctx)

    def iter_entries(self) -> Iterator[Entry]:
        """All entries in key order without charging I/O."""
        for table in self.tables:
            yield from table.iter_entries()

    def replace_tables(
        self, drop: Sequence[SSTable], add: Sequence[SSTable]
    ) -> "SortedRun":
        """A new run with ``drop`` removed and ``add`` inserted."""
        drop_ids = {table.table_id for table in drop}
        kept = [
            table for table in self.tables if table.table_id not in drop_ids
        ]
        return SortedRun(kept + list(add))
