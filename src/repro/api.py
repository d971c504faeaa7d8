"""The unified store protocol: one contract, many engines.

Every storage engine in this repository — the single
:class:`~repro.core.tree.LSMTree`, the sharded forest
(:class:`~repro.shard.ShardedStore`, hash- or range-routed), the
cluster node store (:class:`~repro.cluster.NodeStore`, which composes a
forest), and the in-process replicated pair of node stores
(:class:`~repro.replication.ReplicatedStore`) — exposes the same key-value
surface. :class:`KVStore` names that surface as a runtime-checkable
:class:`typing.Protocol`, so serving layers, benchmarks, and tests can be
written once against the protocol and run unmodified over any engine:

    >>> from repro import KVStore, LSMTree
    >>> isinstance(LSMTree(), KVStore)
    True

The contract, beyond the method signatures (**v2** — transactional):

* ``scan`` returns key-sorted pairs; ``limit`` (when not ``None``) caps
  the number of pairs returned, counted after tombstone resolution.
  ``allow_partial=True`` asks aggregating stores to skip unavailable
  routing units instead of failing the whole scan; the result is then a
  :class:`PartialScanResult` whose ``partial``/``skipped_shards`` say
  what was missed. Engines with a single routing unit accept the flag
  and always return a complete result.
* ``snapshot()`` captures a store-wide consistent read point — one
  sequence number per routing unit, taken so that no atomic batch is
  split across the capture — and returns a :class:`Snapshot` handle.
  ``get``/``scan`` accept ``at=`` (a handle or its wire ``token``) and
  answer as of that point: a multi-shard scan at a snapshot either sees
  *all* of a cross-shard batch or none of it. Handles are context
  managers; release them (``close()``) so the engine can stop pinning
  overwritten versions. A snapshot the engine can no longer serve
  (versions compacted away, pin budget exhausted) raises
  :class:`~repro.errors.SnapshotExpiredError` rather than answering
  inconsistently.
* ``write_batch`` validates every op before applying any, and is atomic
  **store-wide**: a single tree commits the whole batch under one mutex
  acquisition with one WAL sync; a sharded store commits a batch that
  spans shards through two-phase commit (per-shard PREPARE records plus
  a coordinator decision record) so a crash mid-batch deterministically
  rolls the whole batch forward or back on recovery. A batch whose keys
  all land on one shard takes the plain single-sync fast path — the
  coordinator is never involved. A cross-shard batch rolled back before
  its commit point raises :class:`~repro.errors.TxnConflictError` (and
  nothing was applied anywhere).
* ``backpressure`` never blocks and always carries a ``state`` key with
  one of ``"ok"``, ``"slowdown"``, or ``"stop"``.
* ``stats`` is a :class:`~repro.core.stats.TreeStats` — aggregating
  stores return a merged rollup (:meth:`TreeStats.merged`), so
  ``store.stats.to_dict()`` is uniform across engines.
* Stores are context managers; leaving the ``with`` block calls
  :meth:`~KVStore.close`, after which operations raise
  :class:`~repro.errors.ClosedError`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from .core.stats import TreeStats

#: One batched write as every engine consumes it: (op, key, value-or-None)
#: where ``op`` is ``"put"`` (value required) or ``"delete"``.
BatchOp = Tuple[str, str, Optional[str]]


class Snapshot:
    """A store-wide consistent read point: one seqno per routing unit.

    ``seqnos`` maps each routing unit (shard index; ``0`` for a single
    tree) to the highest sequence number visible at capture time. The
    capture is atomic with respect to cross-shard batches — the store
    serializes ``snapshot()`` against its transaction coordinator — so a
    read at the snapshot sees every atomic batch entirely or not at all.

    Handles serialize to a ``token`` (``"shard:seq,shard:seq,..."``) so
    they can cross the wire (the ``SNAP`` verb) and come back via
    ``at=``; :meth:`from_token` parses one. A handle taken directly from
    a store owns version pins inside the engine — release it with
    :meth:`close` (or a ``with`` block) when done. Handles rebuilt from
    a token carry no pins of their own; they are only valid while the
    originating handle (server-side, for wire snapshots) is alive.
    """

    __slots__ = ("seqnos", "_release", "_closed")

    def __init__(
        self,
        seqnos: Mapping[int, int],
        release: Optional[Callable[[], None]] = None,
    ) -> None:
        self.seqnos: Dict[int, int] = dict(seqnos)
        self._release = release
        self._closed = False

    @property
    def token(self) -> str:
        """Wire form: ``"unit:seq"`` pairs joined by commas, unit-sorted."""
        return ",".join(
            f"{unit}:{seq}" for unit, seq in sorted(self.seqnos.items())
        )

    @classmethod
    def from_token(cls, token: str) -> "Snapshot":
        """Parse a :attr:`token`; raises :class:`ValueError` on malformed
        input (the serving layer maps that to ``ERR BADREQ``)."""
        seqnos: Dict[int, int] = {}
        for part in token.split(","):
            unit_text, sep, seq_text = part.partition(":")
            if not sep:
                raise ValueError(f"malformed snapshot token part {part!r}")
            seqnos[int(unit_text)] = int(seq_text)
        if not seqnos:
            raise ValueError("empty snapshot token")
        return cls(seqnos)

    @classmethod
    def coerce(cls, at: "Union[Snapshot, str]") -> "Snapshot":
        """Accept a handle or its token string; anything else is a
        :class:`TypeError`."""
        if isinstance(at, Snapshot):
            return at
        if isinstance(at, str):
            return cls.from_token(at)
        raise TypeError(
            f"at= expects a Snapshot or its token string, got {type(at).__name__}"
        )

    def seqno_for(self, unit: int) -> int:
        """The seqno pinned for ``unit``; a unit the snapshot does not
        cover (e.g. a shard quarantined at capture time) raises
        :class:`~repro.errors.SnapshotExpiredError`."""
        try:
            return self.seqnos[unit]
        except KeyError:
            from .errors import SnapshotExpiredError

            raise SnapshotExpiredError(
                f"snapshot does not cover routing unit {unit}"
            ) from None

    def close(self) -> None:
        """Release the engine-side version pins. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._release is not None:
            self._release()

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Snapshot({self.token!r})"


class PartialScanResult(List[Tuple[str, str]]):
    """Scan result that names the routing units it could not reach.

    A plain ``list`` of key-sorted pairs (drop-in for the normal scan
    return) with two extra attributes: ``skipped_shards`` — the routing
    units that were unavailable and therefore contributed nothing — and
    ``partial`` (true when any were skipped). Returned by ``scan`` when
    the caller passed ``allow_partial=True``; engines with one routing
    unit return it with ``skipped_shards == []``.
    """

    __slots__ = ("skipped_shards",)

    def __init__(
        self,
        pairs: Optional[List[Tuple[str, str]]] = None,
        skipped_shards: Optional[List[int]] = None,
    ) -> None:
        super().__init__(pairs or [])
        #: Routing units that contributed nothing because they were
        #: unavailable when the scan fanned out.
        self.skipped_shards: List[int] = list(skipped_shards or [])

    @property
    def partial(self) -> bool:
        """Whether any routing unit was skipped."""
        return bool(self.skipped_shards)


#: What ``get``/``scan`` accept as a read point: a handle or its token.
SnapshotLike = Union[Snapshot, str]


@runtime_checkable
class KVStore(Protocol):
    """The key-value surface shared by every storage engine (v2).

    Runtime-checkable: ``isinstance(obj, KVStore)`` verifies the full
    method surface is present (signatures are enforced statically, not at
    ``isinstance`` time — that is the usual :mod:`typing` protocol
    semantics).
    """

    def put(self, key: str, value: str) -> None:
        """Insert or update one key."""
        ...

    def get(
        self, key: str, at: Optional[SnapshotLike] = None
    ) -> Optional[str]:
        """Point lookup; ``None`` when the key is absent. ``at=`` reads
        as of a snapshot instead of the latest state.

        Without ``at=`` the call never waits: it does no I/O and takes no
        lock that another thread holds across I/O (it may run while a
        commit's ``fdatasync`` is in flight). The server answers such
        reads on its event loop on the strength of this rule; a store
        that cannot keep it must not be served. ``at=`` reads may wait
        (the engine takes its write mutex to consult pinned versions).
        ``scan`` keeps the same rule.
        """
        ...

    def delete(self, key: str) -> None:
        """Logically delete one key."""
        ...

    def scan(
        self,
        lo: str,
        hi: str,
        limit: Optional[int] = None,
        *,
        at: Optional[SnapshotLike] = None,
        allow_partial: bool = False,
    ) -> List[Tuple[str, str]]:
        """Key-sorted live pairs in ``[lo, hi)``, at most ``limit``.

        ``at=`` reads at a snapshot; ``allow_partial=True`` skips
        unavailable routing units and returns a
        :class:`PartialScanResult`.

        Without ``at=`` the call never waits, as :meth:`get` states — an
        aggregating store scans its routing units on the calling thread,
        not through a pool it would wait on. The server answers such a
        scan on its event loop when it carries a ``limit``, which bounds
        its work; an unlimited scan keeps its executor hop. ``at=``
        scans may wait.
        """
        ...

    def snapshot(self) -> Snapshot:
        """Capture a store-wide consistent read point."""
        ...

    def write_batch(self, ops: Sequence[BatchOp]) -> None:
        """Apply several writes as one atomic group commit (validated up
        front; cross-shard batches go through two-phase commit)."""
        ...

    def flush(self) -> None:
        """Force buffered writes to disk."""
        ...

    def close(self) -> None:
        """Release resources; further operations raise ``ClosedError``."""
        ...

    def backpressure(self) -> Dict[str, object]:
        """Non-blocking admission snapshot with a ``state`` key."""
        ...

    @property
    def stats(self) -> TreeStats:
        """Engine counters (a merged rollup for aggregating stores)."""
        ...

    def __enter__(self) -> "KVStore":
        ...

    def __exit__(self, *exc_info: object) -> None:
        ...


__all__ = [
    "KVStore",
    "BatchOp",
    "Snapshot",
    "SnapshotLike",
    "PartialScanResult",
]
