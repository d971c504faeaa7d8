"""Sharded LSM engine: the one forest of independent trees (§2.2.2).

The tutorial's partitioning discussion — realized by PebblesDB's guards
and Nova-LSM's shard-per-component design — observes that splitting the
key space into independent trees makes each tree shallower (less
compaction data movement, lower write amplification) *and* makes the
trees independent failure and concurrency domains.
:class:`ShardedStore` is the single implementation of that idea in this
repository. By default every shard owns its *own* write-ahead log, write
mutex, simulated device, and (in background mode) background
flush/compaction coordinator, so commits, flushes, and compactions on
different shards proceed genuinely in parallel — the engine the serving
layer's per-shard group commit (:class:`~repro.server.KVServer`) fans out
over. Pass ``disk=`` to put every tree on one shared simulated device
instead, which is how experiment E15 reads the aggregate amplification of
a range-partitioned forest off a single set of counters.

Routing is pluggable:

* ``"hash"`` (default) — ``crc32(key) % num_shards``. Spreads any
  workload evenly, including sequential writers; scans must scatter to
  every shard and k-way merge.
* ``"range"`` — sorted split keys (:func:`range_boundaries` derives an
  even split). Keys stay clustered, so scans touch only the shards they
  overlap — range routing beats hash whenever scans dominate and the key
  distribution is known.

Per-shard state lives in *open slots* keyed by global shard index: all
of ``0..N-1`` for an embedded store, the owned subset when a cluster
node (:class:`~repro.cluster.NodeStore`) composes a forest and adopts or
drops slots as ownership moves. Everything below — routing, quarantine,
batch validation and split, two-phase commit, snapshots, scans,
lifecycle, rollups — works on the open slots only.

Atomicity contract: :meth:`ShardedStore.write_batch` validates the whole
batch up front, then splits it by shard — and is atomic **store-wide**.
A batch whose keys all route to one shard takes the plain fast path (one
write-mutex acquisition, one WAL sync, no coordinator). A batch spanning
shards commits through two-phase commit: every touched shard durably
journals a PREPARE record for its sub-batch, the store appends one
COMMIT decision to its :class:`~repro.core.wal.TxnDecisionLog`
(``txn.log``, at the WAL root), and only then do the shards apply
their sub-batches. A crash anywhere in that window resolves
deterministically on :meth:`recover`: a durable COMMIT decision rolls
every prepared sub-batch forward; no (or a torn) decision rolls them all
back — never half a batch. :meth:`snapshot` serializes against the
coordinator, so consistent multi-shard reads (``get``/``scan`` with
``at=``) see whole batches or nothing.

Failure isolation (degraded mode): shards are independent failure domains,
and the store treats them that way. When a shard's background workers die
(:class:`~repro.errors.BackgroundError`), the shard is *quarantined* — a
per-shard :class:`HealthState` flips to ``"quarantined"``, operations
routed to it raise :class:`~repro.errors.ShardUnavailableError`, and the
other N−1 shards keep serving reads and writes. The serving layer maps the
error to a retryable ``ERR UNAVAILABLE <shard>`` reply and exposes the
rollup through its ``HEALTH`` command. Before this machinery, one dead
worker bricked the entire store.
"""

from __future__ import annotations

import bisect
import json
import os
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from heapq import merge as heap_merge
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..api import PartialScanResult, Snapshot, SnapshotLike
from ..core.config import LSMConfig
from ..core.merge_operator import MergeOperator
from ..core.stats import TreeStats
from ..core.tree import LSMTree
from ..core.wal import TXN_ABORT, TXN_COMMIT, TXN_LOG_NAME, TxnDecisionLog
from ..errors import (
    BackgroundError,
    ClosedError,
    ConfigError,
    CorruptionError,
    ShardFencedError,
    ShardUnavailableError,
    TxnConflictError,
)
from ..faults.registry import fault_point
from ..storage.disk import SimulatedDisk
from ..storage.files import replace_durably
from ..workload.distributions import format_key

#: One batched write: ("put" | "delete", key, value-or-None).
BatchOp = Tuple[str, str, Optional[str]]

#: Name of the routing manifest written next to the shard WAL directories.
MANIFEST_NAME = "shards.json"

_ROUTINGS = ("hash", "range")

#: Backpressure states ordered from healthy to write-stopped.
_STATE_SEVERITY = {"ok": 0, "slowdown": 1, "stop": 2}

HEALTHY = "healthy"
QUARANTINED = "quarantined"

_T = TypeVar("_T")


@dataclass
class HealthState:
    """Failure-domain status of one shard.

    ``since_s`` is a monotonic timestamp (``time.monotonic()``) of the
    quarantine moment, letting operators and the availability benchmark
    compute time-to-detection.
    """

    state: str = HEALTHY
    reason: Optional[str] = None
    since_s: float = field(default_factory=time.monotonic)

    @property
    def healthy(self) -> bool:
        return self.state == HEALTHY


def hash_shard_index(key: str, num_shards: int) -> int:
    """Stable hash routing: ``crc32(key) % num_shards``.

    Deliberately not Python's builtin ``hash`` — that is salted per
    process (``PYTHONHASHSEED``), which would route the same key to
    different shards across restarts and break WAL recovery.
    """
    return zlib.crc32(key.encode("utf-8")) % num_shards


def keys_for_shard(
    shard: int, count: int, num_shards: int, prefix: str, width: int = 4
) -> List[str]:
    """The first ``count`` keys ``prefix0000``, ``prefix0001``, … (the
    index zero-padded to ``width``) that hash-route to ``shard``: how
    tests, benchmarks and the fault sweep aim a write at one shard."""
    keys: List[str] = []
    index = 0
    while len(keys) < count:
        key = f"{prefix}{index:0{width}d}"
        if hash_shard_index(key, num_shards) == shard:
            keys.append(key)
        index += 1
    return keys


def range_boundaries(key_count: int, num_shards: int) -> List[str]:
    """Evenly spaced shard boundaries for the canonical key format.

    Returns ``num_shards - 1`` split keys: shard ``i`` owns keys in
    ``[boundary[i-1], boundary[i])`` with open ends at the extremes.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    if key_count < num_shards:
        raise ValueError("key_count must be at least num_shards")
    step = key_count / num_shards
    return [format_key(round(step * index)) for index in range(1, num_shards)]


def load_manifest(path: str) -> Dict[str, object]:
    """Parse a ``shards.json`` routing manifest (corruption is typed)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise CorruptionError(
                "shard manifest is not valid JSON",
                path=path,
                byte_offset=exc.pos,
            ) from exc


class ShardedStore:
    """N independent :class:`~repro.core.tree.LSMTree` shards, one store.

    Args:
        num_shards: Shard count (>= 1). Derived from ``boundaries`` when
            those are given instead.
        config: Per-shard configuration (shared instance). With
            ``background_mode=True`` every shard runs its own flush and
            compaction workers. Each shard keeps the full buffer size —
            partitioning multiplies memory too, which is part of the
            real systems' bargain (:meth:`memory_footprint_bits`).
        routing: ``"hash"`` (default) or ``"range"``.
        boundaries: Sorted split keys for range routing
            (``len(boundaries) + 1`` shards); :func:`range_boundaries`
            derives an even split.
        wal_dir: Directory for durable WALs. Each shard journals into its
            own ``shard-NN/`` subdirectory, and a ``shards.json`` manifest
            records the routing so :meth:`recover` replays each shard's
            log with the same key placement.
        merge_operator: Passed through to every shard.
        disk: One simulated device shared by every shard (also exposed as
            ``store.disk``, which :class:`~repro.bench.harness.Harness`
            reads). Omitted, each shard charges its own device.

    Example:
        >>> store = ShardedStore(4)
        >>> store.put("user42", "hello")
        >>> store.get("user42")
        'hello'
        >>> store.num_shards
        4
    """

    def __init__(
        self,
        num_shards: Optional[int] = None,
        config: Optional[LSMConfig] = None,
        *,
        routing: str = "hash",
        boundaries: Optional[Sequence[str]] = None,
        wal_dir: Optional[str] = None,
        merge_operator: Optional[MergeOperator] = None,
        disk: Optional[SimulatedDisk] = None,
        _recover: bool = False,
        _open_slots: Optional[Iterable[int]] = None,
        _scope: str = "",
    ) -> None:
        # The underscored arguments are the composition seam, not options:
        # ``_recover`` replays instead of creating, ``_open_slots`` opens
        # only the named shards (and skips the manifest — the owner
        # persists its own placement), ``_scope`` prefixes failpoint
        # scopes with the owner's identity.
        if routing not in _ROUTINGS:
            raise ConfigError(f"routing must be one of {_ROUTINGS}")
        if boundaries is not None:
            routing = "range"
            ordered = list(boundaries)
            if ordered != sorted(ordered) or len(set(ordered)) != len(ordered):
                raise ValueError("boundaries must be sorted and distinct")
            derived = len(ordered) + 1
            if num_shards is not None and num_shards != derived:
                raise ValueError(
                    f"num_shards={num_shards} contradicts "
                    f"{len(ordered)} boundaries ({derived} shards)"
                )
            num_shards = derived
            self.boundaries: List[str] = ordered
        elif routing == "range":
            raise ConfigError("range routing needs explicit boundaries")
        else:
            self.boundaries = []
        if num_shards is None or num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.routing = routing
        self.disk = disk
        self._num_shards = num_shards
        self._config = config
        self._merge_operator = merge_operator
        self._wal_dir = wal_dir
        self._scope = _scope
        self._closed = False
        self._health_lock = threading.Lock()
        slots = list(
            range(num_shards) if _open_slots is None else _open_slots
        )
        committed: Optional[frozenset] = None
        if wal_dir is not None:
            for index in slots:
                os.makedirs(self.shard_dir(index), exist_ok=True)
            if _open_slots is None:
                self._write_manifest(wal_dir)
            if _recover:
                # Decision log first: it settles every PREPARE record the
                # shard replays below are about to find.
                decisions = TxnDecisionLog.replay(
                    os.path.join(wal_dir, TXN_LOG_NAME)
                )
                committed = frozenset(
                    txn
                    for txn, verdict in decisions.items()
                    if verdict == TXN_COMMIT
                )
        #: Open slots: serving tree and failure-domain status per shard,
        #: keyed by *global* shard index.
        self.shards: Dict[int, LSMTree] = {}
        self._health: Dict[int, HealthState] = {}
        for index in slots:
            self._adopt_slot(index, self._open_tree(index, committed))
        #: Serializes the two-phase-commit coordinator and snapshot
        #: capture: one multi-shard transaction at a time, and a snapshot
        #: can never land between a transaction's sub-batches.
        self._txn_lock = threading.Lock()
        #: Durable coordinator decision log; ``None`` for in-memory
        #: stores, which have no crash-recovery story to coordinate.
        self._txn_log: Optional[TxnDecisionLog] = None
        if wal_dir is not None:
            self._txn_log = TxnDecisionLog(
                os.path.join(wal_dir, TXN_LOG_NAME),
                fsync=config.wal_fsync if config is not None else False,
            )
        #: Closes shards concurrently (each close drains its tree).
        #: Threads are spawned lazily, on first use; reads and commits
        #: stay inline on the calling thread.
        self._executor = ThreadPoolExecutor(
            max_workers=num_shards, thread_name_prefix="shard"
        )

    def _write_manifest(self, wal_dir: str) -> None:
        """Persist (or validate against) the routing manifest, atomically.

        Crosses ``shard.manifest.tmp`` / ``shard.manifest.done``.
        """
        manifest = {
            "num_shards": self._num_shards,
            "routing": self.routing,
            "boundaries": self.boundaries,
        }
        path = os.path.join(wal_dir, MANIFEST_NAME)
        if os.path.exists(path):
            existing = load_manifest(path)
            if existing != manifest:
                raise ConfigError(
                    f"{path} records a different sharding "
                    f"({existing}); recover with ShardedStore.recover or "
                    "use a fresh directory"
                )
            return
        replace_durably(
            path, json.dumps(manifest).encode("utf-8"), "shard.manifest"
        )

    # -- slots ---------------------------------------------------------------

    def shard_dir(self, index: int) -> str:
        """Directory shard ``index`` journals into (durable stores)."""
        return os.path.join(self._wal_dir, f"shard-{index:02d}")

    def _failpoint_scope(self, index: int) -> str:
        return f"{self._scope}shard-{index:02d}"

    def _open_tree(
        self, index: int, committed: Optional[frozenset] = None
    ) -> LSMTree:
        """A tree over slot ``index``'s directory, not yet serving;
        ``committed`` (the decided transaction ids) replays its WAL."""
        path = None if self._wal_dir is None else self.shard_dir(index)
        if committed is not None:
            return LSMTree.recover(
                self._config,
                path,
                disk=self.disk,
                merge_operator=self._merge_operator,
                committed_txns=committed,
            )
        return LSMTree(
            self._config,
            disk=self.disk,
            wal_dir=path,
            merge_operator=self._merge_operator,
        )

    def _adopt_slot(self, index: int, tree: LSMTree) -> None:
        """Start serving ``tree`` as shard ``index``, healthy."""
        with self._health_lock:
            self._health[index] = HealthState()
            self.shards[index] = tree

    def _drop_slot(self, index: int) -> LSMTree:
        """Stop serving shard ``index``; the caller closes the tree."""
        with self._health_lock:
            del self._health[index]
            return self.shards.pop(index)

    def _slots(self) -> List[Tuple[int, LSMTree, HealthState]]:
        """Open slots in shard order — a consistent copy, safe against a
        concurrent adopt or drop."""
        with self._health_lock:
            return [
                (index, shard, self._health[index])
                for index, shard in sorted(self.shards.items())
            ]

    def _trees(self) -> List[LSMTree]:
        return list(self.shards.values())

    def _tree(self, index: int) -> LSMTree:
        tree = self.shards.get(index)
        if tree is None:
            # Dropped between the owner's ownership check and here: the
            # retryable answer, whose retry re-routes to the new owner.
            raise ShardFencedError(index)
        return tree

    # -- routing -------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards the key space is split into."""
        return self._num_shards

    def shard_index(self, key: str) -> int:
        """Index of the shard owning ``key`` (stable across restarts)."""
        if self.routing == "hash":
            return hash_shard_index(key, self._num_shards)
        return bisect.bisect_right(self.boundaries, key)

    def shard_for(self, key: str) -> LSMTree:
        """The tree owning ``key``."""
        return self._tree(self.shard_index(key))

    # -- failure isolation ----------------------------------------------------

    def _quarantine(self, index: int, cause: BaseException) -> None:
        with self._health_lock:
            health = self._health.get(index)
            if health is not None and health.healthy:
                health.state = QUARANTINED
                health.reason = str(cause) or type(cause).__name__
                health.since_s = time.monotonic()

    def _check_available(self, index: int) -> None:
        health = self._health.get(index)
        if health is not None and not health.healthy:
            raise ShardUnavailableError(
                index, health.reason or "quarantined"
            )

    def _shard_op(self, index: int, op: Callable[[LSMTree], _T]) -> _T:
        """Run one shard-routed operation with quarantine semantics.

        A shard whose background workers have died is unavailable for
        reads *and* writes: reads would serve from a tree whose
        maintenance stopped (unbounded staleness of structure, stalled
        flushes), so the degraded contract is explicit unavailability
        rather than silent best-effort. ``op`` receives the slot's
        current serving tree.
        """
        self._check_available(index)
        shard = self._tree(index)
        error = shard.background_error()
        if error is not None:
            self._quarantine(index, error)
            raise ShardUnavailableError(
                index, f"background workers died: {error}"
            )
        try:
            return op(shard)
        except BackgroundError as exc:
            self._quarantine(index, exc)
            raise ShardUnavailableError(index, str(exc)) from exc

    def _poll_health(self) -> None:
        """Quarantine every open shard whose background pool reports an
        error, even if no operation has routed to it since it died."""
        for index, shard, health in self._slots():
            if health.healthy:
                error = shard.background_error()
                if error is not None:
                    self._quarantine(index, error)

    def check_health(self) -> Dict[str, object]:
        """Poll every shard for dead workers; return the health rollup.

        ``state`` is ``"healthy"`` (all open shards up), ``"degraded"``
        (some quarantined), or ``"failed"`` (all quarantined).
        """
        self._check_open()
        self._poll_health()
        slots = self._slots()
        quarantined = [index for index, _s, h in slots if not h.healthy]
        if not quarantined:
            state = "healthy"
        elif len(quarantined) == len(slots):
            state = "failed"
        else:
            state = "degraded"
        return {
            "state": state,
            "num_shards": self._num_shards,
            "quarantined": quarantined,
            "shards": [
                {"shard": index, "state": h.state, "reason": h.reason}
                for index, _shard, h in slots
            ],
        }

    def quarantined_shards(self) -> List[int]:
        """Indices of currently quarantined shards."""
        return [i for i, _shard, h in self._slots() if not h.healthy]

    # -- external operations -------------------------------------------------

    def put(self, key: str, value: str) -> None:
        """Insert or update ``key`` in its owning shard."""
        self._check_open()
        self._shard_op(
            self.shard_index(key), lambda shard: shard.put(key, value)
        )

    def get(
        self, key: str, at: Optional[SnapshotLike] = None
    ) -> Optional[str]:
        """Point lookup in the owning shard only; ``at=`` reads as of a
        store-wide snapshot (the shard answers at its pinned seqno)."""
        self._check_open()
        index = self.shard_index(key)
        if at is None:
            return self._shard_op(index, lambda shard: shard.get(key))
        seq = Snapshot.coerce(at).seqno_for(index)
        return self._shard_op(index, lambda shard: shard.get(key, at=seq))

    def snapshot(self) -> Snapshot:
        """Capture a store-wide consistent read point.

        Pins every healthy open shard's tip seqno under the transaction
        lock, so the capture can never land between a cross-shard batch's
        sub-batches: a multi-shard read at the returned handle sees every
        atomic batch entirely or not at all. Quarantined shards are not
        covered — reading them at this snapshot raises
        :class:`~repro.errors.SnapshotExpiredError`. Release the handle
        (``close()``/``with``) so the shards can stop pinning overwritten
        versions.
        """
        self._check_open()
        with self._txn_lock:
            pinned = [
                (index, shard, shard.snapshot_pin())
                for index, shard, health in self._slots()
                if health.healthy
            ]

        def release() -> None:
            for _index, shard, seq in pinned:
                try:
                    shard.snapshot_release(seq)
                except Exception:
                    pass  # a dying or dropped shard's pins die with it

        return Snapshot(
            {index: seq for index, _shard, seq in pinned}, release=release
        )

    def delete(self, key: str) -> None:
        """Logical delete in the owning shard."""
        self._check_open()
        self._shard_op(
            self.shard_index(key), lambda shard: shard.delete(key)
        )

    def write_batch(self, ops: Sequence[BatchOp]) -> None:
        """Apply a batch atomically, across shards if it spans them.

        The whole batch is validated before anything is submitted, so a
        malformed op raises ``ValueError`` with nothing applied — and a
        batch touching a *known-quarantined* shard raises
        :class:`~repro.errors.ShardUnavailableError` up front, also with
        nothing applied.

        A batch whose keys all route to **one shard** commits exactly as
        before: one write-mutex acquisition, one WAL sync, no coordinator
        involvement — the hot path the perf gate pins.

        A batch spanning **several shards** goes through two-phase
        commit (:meth:`_commit_cross_shard`): all-or-nothing even across
        a crash. A failure before the commit decision rolls every
        prepared sub-batch back (a coordinator-log failure surfaces as
        the retryable :class:`~repro.errors.TxnConflictError`); once the
        decision is durable the batch is committed — a crash after it
        rolls forward on :meth:`recover`.
        """
        self._check_open()
        if not ops:
            return
        for op, key, value in ops:
            if not key:
                raise ValueError("keys must be non-empty")
            if op == "put":
                if value is None:
                    raise ValueError("put ops need a value")
            elif op != "delete":
                raise ValueError(f"unknown batch op {op!r}")
        by_shard: Dict[int, List[BatchOp]] = {}
        for batch_op in ops:
            by_shard.setdefault(
                self.shard_index(batch_op[1]), []
            ).append(batch_op)
        for index in by_shard:
            self._check_available(index)
        if len(by_shard) == 1:
            index, sub_ops = next(iter(by_shard.items()))
            self._commit_sub_batch(index, sub_ops)
            return
        self._commit_cross_shard(by_shard)

    def _commit_sub_batch(self, index: int, sub_ops: List[BatchOp]) -> None:
        fault_point("shard.commit", scope=self._failpoint_scope(index))
        self._shard_op(index, lambda shard: shard.write_batch(sub_ops))

    def _commit_cross_shard(
        self, by_shard: Dict[int, List[BatchOp]]
    ) -> None:
        """Two-phase commit of a batch that spans shards.

        Under the transaction lock (one coordinator at a time, and
        :meth:`snapshot` can never interleave): every touched shard
        durably journals a PREPARE record for its sub-batch — keeping its
        write mutex held so nothing can slip between prepare and apply —
        then one COMMIT decision is appended to the coordinator log, then
        every shard applies. Any prepare failure aborts all prepared
        shards and re-raises the original error (nothing applied); a
        decision-write failure likewise rolls back and raises
        :class:`~repro.errors.TxnConflictError`. A *crash* anywhere in
        the window resolves on recovery by the decision log alone.

        The whole protocol runs inline on the calling thread: the shard
        write mutexes are reentrant locks, so prepare and settle must be
        thread-affine. (Serialized prepares cost the multi-shard case its
        sub-batch parallelism; that is the price of atomicity, and the
        single-shard fast path is untouched.)
        """
        if self._txn_log is None:
            # In-memory store: no crash to defend against, but snapshots
            # still must not observe half a batch — apply sequentially
            # under the lock snapshot capture serializes with.
            with self._txn_lock:
                for index in sorted(by_shard):
                    self._commit_sub_batch(index, by_shard[index])
            return
        with self._txn_lock:
            txn_id = self._txn_log.next_txn_id()
            prepared: List[int] = []
            try:
                for index in sorted(by_shard):
                    fault_point(
                        "txn.prepare", scope=self._failpoint_scope(index)
                    )
                    self._shard_op(
                        index,
                        lambda shard: shard.txn_prepare(
                            txn_id, by_shard[index]
                        ),
                    )
                    prepared.append(index)
            except Exception:
                self._rollback_prepared(txn_id, prepared)
                raise
            try:
                self._txn_log.append(txn_id, TXN_COMMIT)
            except Exception as exc:
                self._rollback_prepared(txn_id, prepared)
                try:
                    self._txn_log.append(txn_id, TXN_ABORT)
                except Exception:
                    pass  # absent decision already means abort on recovery
                raise TxnConflictError(
                    "cross-shard batch rolled back: the coordinator "
                    "decision could not be made durable"
                ) from exc
            failure: Optional[BaseException] = None
            for index in prepared:
                fault_point("txn.commit", scope=self._failpoint_scope(index))
                try:
                    self._shard_op(
                        index, lambda shard: shard.txn_commit(txn_id)
                    )
                except Exception as exc:
                    # The decision is durable: the transaction IS
                    # committed. Keep applying the other shards; surface
                    # the first failure (e.g. a replication ack) after.
                    if failure is None:
                        failure = exc
            if failure is not None:
                raise failure

    def _rollback_prepared(self, txn_id: int, prepared: List[int]) -> None:
        for index in reversed(prepared):
            try:
                self.shards[index].txn_abort(txn_id)
            except Exception:
                pass  # recovery rolls an undecided prepare back anyway

    def scan(
        self,
        lo: str,
        hi: str,
        limit: Optional[int] = None,
        *,
        at: Optional[SnapshotLike] = None,
        allow_partial: bool = False,
    ) -> List[Tuple[str, str]]:
        """Scatter-gather range lookup, k-way merged across shards.

        Range routing touches only the open shards overlapping
        ``[lo, hi)``, in key order, stopping as soon as ``limit`` pairs
        are collected. Hash routing must scatter to every open shard (any
        shard may own any key in the range) — each per-shard scan is
        individually capped at ``limit``, and the sorted partial results
        are k-way merged (shards own disjoint keys, so the merge never
        sees duplicates).

        Every per-shard scan runs on the calling thread, one after
        another, so a scan without ``at=`` keeps the
        :meth:`KVStore.scan <repro.api.KVStore.scan>` rule — it never
        waits — and the server may answer it on its event loop. A fan-out
        over threads would buy nothing here: the shards' work is Python
        under one interpreter lock, and the hand-offs cost more than the
        scans (130-230 against 410-520 us per limit-20 scan of a 4-shard
        hash store of 4,000 keys, measured on a 2-vCPU VM).

        ``at=`` reads every shard as of its seqno pinned in the snapshot,
        so a multi-shard scan sees each cross-shard batch entirely or not
        at all — the snapshot was captured under the same lock the
        two-phase-commit coordinator holds.

        Quarantined shards: by default (``allow_partial=False``) any
        quarantined shard the scan would touch makes it fail with
        :class:`~repro.errors.ShardUnavailableError` — a partial scan
        *silently* missing one shard's keys would be corruption, not
        degradation. With ``allow_partial=True`` the dead shards are
        skipped instead and the result is a :class:`PartialScanResult`
        whose ``partial`` flag and ``skipped_shards`` list say exactly
        what is missing — explicit degradation the caller opted into.
        """
        self._check_open()
        if limit is not None and limit < 0:
            raise ValueError("limit must be non-negative (or None)")
        snap = None if at is None else Snapshot.coerce(at)
        if lo >= hi or limit == 0:
            return PartialScanResult([], []) if allow_partial else []
        involved = sorted(self.shards)
        if self.routing == "range":
            first = bisect.bisect_right(self.boundaries, lo)
            # hi is exclusive: bisect_left keeps a scan ending exactly on
            # a boundary from involving the next shard, which owns only
            # keys >= hi and so can never contribute (and must not fail
            # or degrade the scan when quarantined).
            last = bisect.bisect_left(self.boundaries, hi)
            involved = [i for i in involved if first <= i <= last]
        available: List[int] = []
        skipped: List[int] = []
        for index in involved:
            try:
                self._check_available(index)
            except ShardUnavailableError:
                if not allow_partial:
                    raise
                skipped.append(index)
                continue
            available.append(index)

        def scan_shard(
            index: int, remaining: Optional[int]
        ) -> List[Tuple[str, str]]:
            try:
                if snap is None:
                    return self._shard_op(
                        index, lambda shard: shard.scan(lo, hi, remaining)
                    )
                seq = snap.seqno_for(index)
                return self._shard_op(
                    index,
                    lambda shard: shard.scan(lo, hi, remaining, at=seq),
                )
            except ShardUnavailableError:
                # Quarantined mid-scan (after the up-front check).
                if not allow_partial:
                    raise
                skipped.append(index)
                return []

        if self.routing == "range":
            merged: List[Tuple[str, str]] = []
            for index in available:
                remaining = None if limit is None else limit - len(merged)
                if remaining == 0:
                    break
                merged.extend(scan_shard(index, remaining))
        else:
            merged = list(
                heap_merge(*(scan_shard(index, limit) for index in available))
            )[:limit]
        if allow_partial:
            return PartialScanResult(merged, skipped)
        return merged

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Force every *healthy* shard's active buffer to disk.

        Quarantined shards are skipped: their workers are gone, so a
        flush would only re-raise the failure the quarantine already
        recorded.
        """
        self._for_healthy(LSMTree.flush)

    def compact_all(self) -> None:
        """Major compaction on every healthy shard."""
        self._for_healthy(LSMTree.compact_all)

    def _for_healthy(self, op: Callable[[LSMTree], None]) -> None:
        self._check_open()
        self._poll_health()
        for index, _shard, health in self._slots():
            if health.healthy:
                self._shard_op(index, op)

    def close(self) -> None:
        """Close every shard and release the commit executor. Idempotent.

        Shards close concurrently on the commit executor: each close
        drains that shard's rotated buffers and pending compactions
        (:meth:`LSMTree.close`), so the drains overlap exactly like the
        background work itself did. Shard close errors are collected so
        every shard still gets closed. A
        :class:`~repro.errors.BackgroundError` from an
        *already-quarantined* shard is swallowed — the failure was
        surfaced when the shard was quarantined, and degraded-mode
        shutdown must succeed — while an unexpected first-time failure is
        re-raised.
        """
        if self._closed:
            return
        self._poll_health()
        self._closed = True
        failure: Optional[BaseException] = None
        futures = [
            (health, self._executor.submit(shard.close))
            for _index, shard, health in self._slots()
        ]
        for health, future in futures:
            try:
                future.result()
            except BackgroundError as exc:
                # Not quarantined before close: a genuinely new failure
                # the caller has never seen. Surface it.
                if health.healthy and failure is None:
                    failure = exc
            except BaseException as exc:
                if failure is None:
                    failure = exc
        self._executor.shutdown(wait=True)
        if self._txn_log is not None:
            self._txn_log.close()
        if failure is not None:
            raise failure

    def kill(self) -> None:
        """Abandon every shard as a process crash would. Idempotent.

        The sharded counterpart of :meth:`LSMTree.kill`: no drains, no
        flushes, no error propagation — used by the crash-consistency
        harness to model whole-process death.
        """
        if self._closed:
            return
        self._closed = True
        for shard in self._trees():
            shard.kill()
        if self._txn_log is not None:
            self._txn_log.close()
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("store is closed")

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        config: Optional[LSMConfig],
        wal_dir: str,
        *,
        merge_operator: Optional[MergeOperator] = None,
    ) -> "ShardedStore":
        """Rebuild every shard from its own WAL after a crash.

        The ``shards.json`` manifest fixes shard count and routing, so
        keys re-route exactly as they did before the crash; each shard
        then replays only the segments in its own ``shard-NN/`` directory
        (:meth:`LSMTree.recover`), preserving its independent sequence
        numbers. Shards recover independently — one shard's surviving
        writes are never visible to, or blocked by, another's replay.

        The coordinator decision log is read *first*: every PREPARE
        record found during a shard's replay rolls forward exactly when
        ``txn.log`` holds a durable COMMIT decision for its transaction,
        and rolls back otherwise (presumed abort) — so a crash mid
        two-phase commit never resurfaces half a batch.
        """
        path = os.path.join(wal_dir, MANIFEST_NAME)
        if not os.path.exists(path):
            raise ConfigError(
                f"no {MANIFEST_NAME} in {wal_dir}; not a sharded WAL "
                "directory"
            )
        manifest = load_manifest(path)
        return cls(
            manifest["num_shards"],
            config,
            routing=manifest["routing"],
            boundaries=manifest["boundaries"] or None,
            wal_dir=wal_dir,
            merge_operator=merge_operator,
            _recover=True,
        )

    # -- introspection -------------------------------------------------------

    @property
    def stats(self) -> TreeStats:
        """Rollup of every shard's counters (:meth:`TreeStats.merged`)."""
        return TreeStats.merged(
            [shard.stats for shard in self._trees()]
        )

    def backpressure(self) -> Dict[str, object]:
        """Aggregate admission snapshot: the *worst healthy* shard governs.

        ``state`` is the most severe of the healthy shard states (``stop``
        beats ``slowdown`` beats ``ok``) — conservative on purpose, since
        a serving layer that admits a write cannot know which shard it
        will route to until it parses the key. Quarantined shards are
        excluded from the backpressure verdict (their unavailability is
        reported per-operation, not as store-wide pushback) and listed
        under ``quarantined_shards``; with shards open but *none* healthy
        the state degrades to ``"stop"``, and with no shard open at all (a
        drained cluster member) it is ``"ok"``. The raw quantities
        aggregate (max Level-0 depth, summed immutable buffers) and
        ``shards`` carries the full per-shard breakdown for operators.
        """
        per_shard = [
            {"shard": index, **shard.backpressure(), "healthy": h.healthy}
            for index, shard, h in self._slots()
        ]
        healthy = [s for s in per_shard if s["healthy"]]
        if healthy:
            worst = max(
                healthy, key=lambda s: _STATE_SEVERITY.get(str(s["state"]), 0)
            )
            state = worst["state"]
        elif per_shard:
            worst = per_shard[0]
            state = "stop"
        else:
            worst = {"slowdown_trigger": 0, "stop_trigger": 0}
            state = "ok"
        return {
            "state": state,
            "level0_runs": max(
                (int(s["level0_runs"]) for s in per_shard), default=0
            ),
            "immutable_buffers": sum(
                int(s["immutable_buffers"]) for s in per_shard
            ),
            "slowdown_trigger": worst["slowdown_trigger"],
            "stop_trigger": worst["stop_trigger"],
            "quarantined_shards": self.quarantined_shards(),
            "shards": per_shard,
        }

    def shard_summary(self) -> List[Dict[str, object]]:
        """Per-shard breakdown served through the server's ``INFO``."""
        return [
            {
                "shard": index,
                "routing": self.routing,
                "levels": len(shard.levels),
                "disk_bytes": shard.total_disk_bytes(),
                "seqno": shard.seqno,
                "puts": shard.stats.puts,
                "deletes": shard.stats.deletes,
                "flushes": shard.stats.flushes,
                "compactions": shard.stats.compactions,
                "backpressure": shard.backpressure()["state"],
                "health": health.state,
                "health_reason": health.reason,
            }
            for index, shard, health in self._slots()
        ]

    def total_disk_bytes(self) -> int:
        """Payload bytes across all shards."""
        return sum(
            shard.total_disk_bytes() for shard in self._trees()
        )

    def max_depth(self) -> int:
        """Deepest shard's level count — the write-amplification driver
        that partitioning cuts."""
        return max(
            (len(shard.levels) for shard in self._trees()),
            default=0,
        )

    def write_amplification(self) -> float:
        """Aggregate device bytes written per user byte, across shards
        (a device shared by several shards is counted once)."""
        shards = self._trees()
        user_bytes = sum(shard.stats.user_bytes_written for shard in shards)
        if user_bytes == 0:
            return 0.0
        disks = {id(shard.disk): shard.disk for shard in shards}
        return (
            sum(disk.counters.bytes_written for disk in disks.values())
            / user_bytes
        )

    def memory_footprint_bits(self) -> int:
        """Aggregate buffer + filter + fence memory across shards."""
        return sum(
            shard.memory_footprint_bits()
            for shard in self._trees()
        )
