"""Key-value entries: the unit of data flowing through the LSM tree.

An LSM tree never edits data in place (§2.1.1-B of the tutorial): every
mutation — insert, update, delete, single-delete — is encoded as a new
*entry* stamped with a monotonically increasing sequence number. Deletes are
*tombstones*: entries whose value is empty and whose kind marks them as a
logical invalidation to be applied lazily during compaction (§2.1.2).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

#: Fixed per-entry metadata overhead charged by the size model, covering the
#: sequence number, kind tag, and length headers an on-disk format would hold.
ENTRY_OVERHEAD_BYTES = 10

#: Size charged for a tombstone's value field. The tutorial notes tombstones
#: carry a "typically, only a byte-long" value used to mark them (§2.1.2).
TOMBSTONE_VALUE_BYTES = 1


class EntryKind(enum.IntEnum):
    """Discriminates the mutation a log entry encodes.

    ``PUT``
        An insert or a blind update (out-of-place, §2.1.1-B).
    ``DELETE``
        A tombstone. It invalidates *every* older version of the key and is
        itself retained until it reaches the bottommost overlapping level.
    ``SINGLE_DELETE``
        RocksDB-style single delete (§2.3.3): valid only for keys written at
        most once since the last delete; the tombstone is dropped as soon as
        it is compacted with the first matching older entry.
    ``MERGE``
        A read-modify-write operand (§2.2.6; RocksDB's merge operator): the
        value field holds an *operand* that a
        :class:`~repro.core.merge_operator.MergeOperator` later folds into
        the key's base value, at read or compaction time.
    ``RANGE_DELETE``
        A range tombstone (§2.3.3): the key is the inclusive start of the
        deleted range and the value field holds the exclusive end key. It
        logically invalidates every older version of every key in
        ``[key, value)``.
    """

    PUT = 0
    DELETE = 1
    SINGLE_DELETE = 2
    MERGE = 3
    RANGE_DELETE = 4


#: The kinds that logically invalidate older versions (see
#: :attr:`Entry.is_tombstone`); a set, for loops that test many entries.
TOMBSTONE_KINDS = frozenset(
    (EntryKind.DELETE, EntryKind.SINGLE_DELETE, EntryKind.RANGE_DELETE)
)

# Members bound once: looking one up on the enum class is an attribute
# access through the enum machinery, too slow for every constructed entry.
_VALUE_KINDS = (EntryKind.PUT, EntryKind.MERGE)
_RANGE_DELETE = EntryKind.RANGE_DELETE


@dataclass(frozen=True, slots=True)
class Entry:
    """One immutable key-value record.

    Attributes:
        key: Unique object identifier; entries sort lexicographically by key.
        value: Payload for ``PUT`` entries; ``None`` for tombstones.
        seqno: Global sequence number; larger means more recent. The LSM
            invariant (§2.1.1-E) guarantees that, for a given key, sequence
            numbers never increase as a lookup descends levels.
        kind: The mutation type (see :class:`EntryKind`).
        stamp_us: Simulated-clock time at which the entry was created.
            Excluded from equality; used by Lethe-style tombstone-TTL
            triggers (§2.3.3) to measure how long a tombstone has lingered.
        size: Charged on-disk footprint of the entry in bytes, set once
            at construction (not a constructor argument; excluded from
            equality and repr).
    """

    key: str
    value: Optional[str]
    seqno: int
    kind: EntryKind = EntryKind.PUT
    stamp_us: float = field(default=0.0, compare=False)
    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        kind, value = self.kind, self.value
        if kind in _VALUE_KINDS:
            if value is None:
                raise ValueError("PUT and MERGE entries require a value")
        elif kind is _RANGE_DELETE:
            if value is None or value <= self.key:
                raise ValueError(
                    "RANGE_DELETE needs an end key greater than its start"
                )
        elif value is not None:
            raise ValueError("tombstones must not carry a value")
        if self.seqno < 0:
            raise ValueError("sequence numbers are non-negative")
        value_bytes = TOMBSTONE_VALUE_BYTES if value is None else len(value)
        object.__setattr__(
            self, "size", len(self.key) + value_bytes + ENTRY_OVERHEAD_BYTES
        )

    @property
    def is_tombstone(self) -> bool:
        """Whether this entry logically invalidates older versions."""
        return self.kind in TOMBSTONE_KINDS

    def shadows(self, other: "Entry") -> bool:
        """Whether this entry supersedes ``other`` during a merge.

        Both entries must refer to the same key; the newer sequence number
        wins, which is exactly the rule compaction applies when "retaining
        only the latest version of each key" (§2.1.2).
        """
        if self.key != other.key:
            raise ValueError("shadowing is defined only for equal keys")
        return self.seqno > other.seqno


def put(key: str, value: str, seqno: int, stamp_us: float = 0.0) -> Entry:
    """Build a ``PUT`` entry; convenience constructor."""
    return Entry(key, value, seqno, EntryKind.PUT, stamp_us)


def tombstone(key: str, seqno: int, stamp_us: float = 0.0) -> Entry:
    """Build a ``DELETE`` tombstone; convenience constructor."""
    return Entry(key, None, seqno, EntryKind.DELETE, stamp_us)


def single_delete(key: str, seqno: int, stamp_us: float = 0.0) -> Entry:
    """Build a ``SINGLE_DELETE`` tombstone; convenience constructor."""
    return Entry(key, None, seqno, EntryKind.SINGLE_DELETE, stamp_us)


# -- batched binary codec ----------------------------------------------------
#
# The hot-path block codec shared by the SSTable file format (and any other
# caller serializing runs of entries): a *columnar* layout — all fixed-width
# fields first, then one string heap — so a whole block is encoded with one
# ``struct.pack`` call and decoded with one ``struct.iter_unpack`` call,
# instead of one pack/unpack per entry. Layout (little-endian, no padding)::
#
#     per entry, in the fixed section:
#         u16 key_len | i32 value_len (-1 = tombstone) | u64 seqno |
#         u8 kind | f64 stamp_us
#     then the heap: key bytes, value bytes, entry after entry
#
# ``pack_entries`` returns the fixed section + heap; callers prepend their
# own headers/checksums. Chunked packing bounds the dynamically built format
# string (the per-chunk format is cached by the ``struct`` module).

#: Fixed-width per-entry header of the batched codec.
ENTRY_FIXED = struct.Struct("<HiQBd")

_FIXED_FMT = "HiQBd"

#: Entries packed per ``struct.pack`` call (bounds the format-string size).
_PACK_CHUNK = 512


def pack_entries(entries: Sequence[Entry]) -> bytes:
    """Serialize ``entries`` into the columnar block layout.

    One ``struct.pack`` call per :data:`_PACK_CHUNK` entries for the fixed
    section and one ``bytes.join`` for the string heap — the per-entry
    Python cost is just the UTF-8 encodes.
    """
    fixed_parts: List[bytes] = []
    heap_parts: List[bytes] = []
    heap_append = heap_parts.append
    for start in range(0, len(entries), _PACK_CHUNK):
        chunk = entries[start : start + _PACK_CHUNK]
        flat: List[Union[int, float]] = []
        extend = flat.extend
        for entry in chunk:
            key_bytes = entry.key.encode("utf-8")
            value = entry.value
            if value is None:
                value_bytes = b""
                value_len = -1
            else:
                value_bytes = value.encode("utf-8")
                value_len = len(value_bytes)
            extend(
                (len(key_bytes), value_len, entry.seqno, entry.kind,
                 entry.stamp_us)
            )
            heap_append(key_bytes)
            heap_append(value_bytes)
        fixed_parts.append(struct.pack("<" + _FIXED_FMT * len(chunk), *flat))
    return b"".join(fixed_parts) + b"".join(heap_parts)


def unpack_entries(
    buffer: Union[bytes, memoryview], count: int, offset: int = 0
) -> Tuple[List[Entry], int]:
    """Deserialize ``count`` entries packed by :func:`pack_entries`.

    Returns the entries and the total number of bytes consumed from
    ``offset``. The fixed section is decoded with a single
    ``struct.iter_unpack`` over a ``memoryview`` (no intermediate per-entry
    bytes objects); heap strings are decoded straight from view slices.

    Raises:
        ValueError: If the buffer is too short for the declared count
            (``struct.error`` surfaces as its ``ValueError`` subclass
            behavior via an explicit length check here).
    """
    view = memoryview(buffer)
    fixed_size = ENTRY_FIXED.size * count
    heap_start = offset + fixed_size
    if heap_start > len(view):
        raise ValueError("entry block truncated inside its fixed section")
    entries: List[Entry] = []
    append = entries.append
    position = heap_start
    kind_of = EntryKind
    for key_len, value_len, seqno, kind, stamp_us in ENTRY_FIXED.iter_unpack(
        view[offset:heap_start]
    ):
        key_end = position + key_len
        if value_len >= 0:
            value_end = key_end + value_len
        else:
            value_end = key_end
        if value_end > len(view):
            raise ValueError("entry block truncated inside its heap")
        key = str(view[position:key_end], "utf-8")
        value: Optional[str] = (
            str(view[key_end:value_end], "utf-8") if value_len >= 0 else None
        )
        append(Entry(key, value, seqno, kind_of(kind), stamp_us))
        position = value_end
    return entries, position - offset
