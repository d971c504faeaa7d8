"""K-way merging iterators for scans and compactions (§2.1.2).

Range lookups "assign an iterator for each run, and the runs are scanned in
parallel" while "returning only the latest version for each key". The same
machinery drives compaction merges. :func:`merge_entries` performs the
sequence-number reconciliation; :func:`resolve_visible` additionally applies
tombstone semantics to produce the user-visible view.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, List, Tuple

from .entry import Entry, EntryKind


def merge_entries(sources: List[Iterable[Entry]]) -> Iterator[Entry]:
    """Merge sorted entry streams, keeping only the newest version per key.

    Args:
        sources: Iterables each sorted by key with unique keys, ordered by
            recency — ``sources[0]`` is the most recent stream. Ties on key
            are broken first by sequence number (newer wins) and then by
            stream recency, which also resolves equal-seqno duplicates that
            can appear transiently during crash recovery.

    Yields:
        One entry per distinct key, in ascending key order. Tombstones are
        *retained* — compaction needs them; use :func:`resolve_visible` for
        the user-visible stream.
    """
    heap: List[Tuple[str, int, int, Entry, Iterator[Entry]]] = []
    for priority, source in enumerate(sources):
        iterator = iter(source)
        first = next(iterator, None)
        if first is not None:
            heapq.heappush(
                heap, (first.key, -first.seqno, priority, first, iterator)
            )

    previous_key: str | None = None
    while heap:
        key, _neg_seqno, priority, entry, iterator = heap[0]
        successor = next(iterator, None)
        if successor is None:
            heapq.heappop(heap)
        else:
            if successor.key <= key:
                raise ValueError(
                    "merge sources must be strictly sorted by key"
                )
            heapq.heapreplace(
                heap,
                (successor.key, -successor.seqno, priority, successor, iterator),
            )
        if key == previous_key:
            continue  # an older version of a key already emitted
        previous_key = key
        yield entry


def resolve_visible(merged: Iterable[Entry]) -> Iterator[Entry]:
    """Filter a merged stream down to what a user scan returns.

    Drops tombstones and the entries they shadow (the shadowed versions were
    already removed by :func:`merge_entries`, so only the tombstones
    themselves remain to be hidden).
    """
    for entry in merged:
        if entry.kind is EntryKind.PUT:
            yield entry
