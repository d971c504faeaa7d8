"""Per-shard primary→replica WAL shipping with automatic failover.

PR 4's degraded mode keeps N−1 shards serving after a worker death, but
the dead shard's keys are simply gone until an operator intervenes —
bench_e24 measures 0.75 post-kill write availability at 4 shards. Real
LSM deployments close that gap with log-shipping replicas: the primary
streams its committed WAL records to a warm standby, and failover
promotes the standby when the primary dies. :class:`ReplicatedStore`
implements exactly that, one replica per shard:

* **Shipping.** Every shard's primary tree gets a post-commit WAL hook
  (:meth:`~repro.core.tree.LSMTree.set_wal_commit_hook`): after a commit
  group's records are written *and* synced — i.e. with exactly the
  records the durability contract acknowledged — the hook hands the
  group to that shard's :class:`ShardReplicator`, which enqueues it on a
  bounded queue. A dedicated applier thread drains the queue into the
  replica tree via
  :meth:`~repro.core.tree.LSMTree.apply_replicated`, which journals the
  whole group with one ``append_batch`` so the replica's own recovery
  preserves the group's atomicity.

* **Sync vs async.** In ``"sync"`` mode the shipping call blocks until
  the group is durable in the *replica's* WAL, so every write the client
  sees acknowledged survives on the standby — the guarantee the
  crash-consistency sweep asserts. In ``"async"`` mode the ship returns
  as soon as the group is enqueued; the replicator tracks the
  acked-vs-applied watermark (``acked_seqno`` / ``applied_seqno`` plus
  lag in records and bytes), and a crash loses at most the groups inside
  that window. The queue bound is the documented cap on the window:
  shippers block (backpressure) rather than let lag grow without limit.

* **Failover.** When a shard is quarantined (its background workers
  died), the store promotes the replica in place: detach the hook, drain
  the replication queue into the standby, kill the old primary, and swap
  the replica in as the shard's serving tree — readers and writers
  re-route on their next operation because every shard-routed operation
  re-reads ``self.shards[index]``. Promotion is triggered automatically
  from the operation path (a routed op that finds its shard quarantined)
  and from :meth:`check_health` (which the serving layer's ``HEALTH``
  command polls), and is available manually via :meth:`promote` for
  planned failover. The shard's :class:`~repro.shard.store.HealthState`
  is reset to healthy, so availability returns to ~1.0 — the replica has
  no replica, though: a *second* failure of the same shard degrades to
  quarantine exactly as an unreplicated store would.

* **Replica loss.** The mirror-image failure — the *replica* dies while
  the primary is fine — must not take down a healthy shard. In sync
  mode the write that observed the failure raises
  :class:`~repro.errors.ReplicationError` (it is locally durable but not
  replicated, and the caller must know); the store then detaches the
  hook and serves primary-only (``"replica-lost"``). In async mode the
  degradation is silent at the write path and surfaced through
  :meth:`replication_summary` / ``INFO``.

Failure-ordering note: the commit hook fires after the primary's WAL
sync but *before* the memtable insert, so a write that dies in
replication (sync mode) is journaled locally yet not readable until a
restart replays the log. That is deliberate maybe-semantics — an
errored write may surface later, like a timed-out write in any
distributed store — and the sweep's tracker treats it exactly that way.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, TypeVar

from ..core.config import LSMConfig
from ..core.entry import Entry, EntryKind
from ..core.merge_operator import MergeOperator
from ..core.tree import LSMTree
from ..errors import ConfigError, ReplicationError, ShardUnavailableError
from ..faults.registry import fault_point
from ..shard.store import (
    HEALTHY,
    MANIFEST_NAME,
    BatchOp,
    ShardedStore,
    load_manifest,
)

_T = TypeVar("_T")

#: Replication modes: ``sync`` acks after replica-WAL durability,
#: ``async`` acks after local durability and tracks lag.
MODES = ("sync", "async")

#: Sub-directories of the store's ``wal_dir`` holding the two sides.
PRIMARY_DIR = "primary"
REPLICA_DIR = "replica"

#: Per-shard replication queue bound, in *records*: shippers block
#: (backpressure) once this many are queued. It is the async mode's
#: documented lag window — a crash loses at most the queued records
#: (plus the group being applied).
QUEUE_CAPACITY = 1024

#: Per-shard replication states beyond the configured mode.
PROMOTED = "promoted"
REPLICA_LOST = "replica-lost"


def entries_to_batch_ops(
    entries: Sequence[Entry], *, context: str = "replication"
) -> List[BatchOp]:
    """Convert committed WAL entries into wire-shippable batch ops.

    The lingua franca between a WAL commit hook and any remote applier
    (a cluster replica or a migration destination): put/delete survive
    the translation losslessly, while merge and range-delete entries are
    refused — shipping a merge operand without its base (or a range
    tombstone as point ops) would change its meaning on the other side.
    """
    converted: List[BatchOp] = []
    for entry in entries:
        if entry.kind is EntryKind.PUT:
            converted.append(("put", entry.key, entry.value))
        elif entry.kind in (EntryKind.DELETE, EntryKind.SINGLE_DELETE):
            converted.append(("delete", entry.key, None))
        else:
            raise ConfigError(
                f"{context} cannot ship {entry.kind.name} entries; "
                "use put/delete workloads on shipped shards"
            )
    return converted


class _Group:
    """One shipped commit group in flight to the replica."""

    __slots__ = ("entries", "waiter", "error")

    def __init__(self, entries: List[Entry], waiter: Optional[threading.Event]):
        self.entries = entries
        self.waiter = waiter
        self.error: Optional[BaseException] = None


class ShardReplicator:
    """Ships one shard's committed WAL groups to its replica tree.

    A bounded queue of commit groups plus one applier thread. ``ship``
    is called from the primary's post-commit hook (writer thread, under
    the shard's write mutex); the applier drains groups into the replica
    via :meth:`~repro.core.tree.LSMTree.apply_replicated`. All queue
    state is guarded by one condition variable; the watermark counters
    are read without it for introspection (single attribute reads are
    atomic enough for monitoring).

    Args:
        index: Shard number — used only for failpoint scopes and the
            applier thread name.
        replica: The standby tree groups are applied to.
        sync: Whether ``ship`` blocks until the group is applied
            (replica-WAL durable) before returning.
    """

    def __init__(
        self,
        index: int,
        replica: LSMTree,
        *,
        sync: bool,
    ) -> None:
        self.index = index
        self.replica = replica
        self.sync = sync
        self._scope = f"shard-{index:02d}"
        self._queue: Deque[_Group] = deque()
        self._queued_records = 0
        self._cond = threading.Condition()
        self._stopped = False
        self._error: Optional[BaseException] = None
        #: Highest seqno the primary has acknowledged into replication.
        self.acked_seqno = -1
        #: Highest seqno durable in the replica's WAL.
        self.applied_seqno = -1
        self.shipped_records = 0
        self.shipped_bytes = 0
        self.applied_records = 0
        self.applied_bytes = 0
        self._thread = threading.Thread(
            target=self._run, name=f"repl-{index:02d}", daemon=True
        )
        self._thread.start()

    # -- primary side --------------------------------------------------------

    def ship(self, entries: List[Entry]) -> None:
        """Enqueue one committed group; in sync mode, wait for its apply.

        Raises :class:`~repro.errors.ReplicationError` if the applier has
        died or the replicator was stopped — in sync mode also if *this*
        group's apply failed. The caller's local commit is already
        durable either way.
        """
        if not entries:
            return
        fault_point("repl.ship", scope=self._scope)
        group = _Group(entries, threading.Event() if self.sync else None)
        with self._cond:
            while (
                self._queued_records >= QUEUE_CAPACITY
                and not self._stopped
                and self._error is None
            ):
                self._cond.wait()
            if self._error is not None:
                raise ReplicationError(
                    f"shard {self.index} replica applier died"
                ) from self._error
            if self._stopped:
                raise ReplicationError(
                    f"shard {self.index} replicator is stopped"
                )
            self._queue.append(group)
            self._queued_records += len(entries)
            self.shipped_records += len(entries)
            self.shipped_bytes += sum(entry.size for entry in entries)
            self.acked_seqno = max(self.acked_seqno, entries[-1].seqno)
            self._cond.notify_all()
        if group.waiter is not None:
            group.waiter.wait()
            if group.error is not None:
                raise ReplicationError(
                    f"shard {self.index} replica apply failed"
                ) from group.error

    # -- replica side --------------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if not self._queue:
                    return  # stopped and fully drained
                group = self._queue.popleft()
                self._queued_records -= len(group.entries)
                self._cond.notify_all()
            try:
                fault_point("repl.apply", scope=self._scope)
                self.replica.apply_replicated(group.entries)
                fault_point("repl.applied", scope=self._scope)
            except BaseException as exc:  # noqa: BLE001 — InjectedCrash too
                # The applier is this shard's stand-in for a replica
                # process: anything that kills it (including an injected
                # crash, a BaseException) must fail every waiter rather
                # than leave sync writers blocked forever.
                group.error = exc
                with self._cond:
                    self._error = exc
                    failed = [group] + list(self._queue)
                    self._queue.clear()
                    self._queued_records = 0
                    for pending in failed:
                        pending.error = exc
                        if pending.waiter is not None:
                            pending.waiter.set()
                    self._cond.notify_all()
                return
            with self._cond:
                self.applied_records += len(group.entries)
                self.applied_bytes += sum(
                    entry.size for entry in group.entries
                )
                self.applied_seqno = max(
                    self.applied_seqno, group.entries[-1].seqno
                )
                if group.waiter is not None:
                    group.waiter.set()

    # -- lifecycle / introspection -------------------------------------------

    def stop(self, *, drain: bool) -> None:
        """Stop the applier. ``drain=True`` applies queued groups first;
        ``drain=False`` discards them (their sync waiters are failed so
        no shipper hangs). Idempotent; safe after an applier death."""
        with self._cond:
            self._stopped = True
            if not drain and self._queue:
                error = ReplicationError(
                    f"shard {self.index} replicator stopped without drain"
                )
                for pending in self._queue:
                    pending.error = error
                    if pending.waiter is not None:
                        pending.waiter.set()
                self._queue.clear()
                self._queued_records = 0
            self._cond.notify_all()
        self._thread.join(timeout=30.0)

    @property
    def failed(self) -> bool:
        """Whether the applier has died (replica lost)."""
        return self._error is not None

    @property
    def lag_records(self) -> int:
        """Acked-but-not-yet-applied records (the async loss window)."""
        return max(0, self.shipped_records - self.applied_records)

    @property
    def lag_bytes(self) -> int:
        """Acked-but-not-yet-applied payload bytes."""
        return max(0, self.shipped_bytes - self.applied_bytes)


class ReplicatedStore(ShardedStore):
    """A :class:`ShardedStore` whose every shard has a warm standby.

    Layout under ``wal_dir``::

        wal_dir/primary/shards.json      # the primaries' routing manifest
        wal_dir/primary/shard-NN/        # each primary's WAL segments
        wal_dir/replica/shards.json      # same manifest, replica side
        wal_dir/replica/shard-NN/        # each replica's WAL segments

    The replica side is itself a valid sharded WAL directory, so after
    losing the primary disk entirely, ``ShardedStore.recover(config,
    os.path.join(wal_dir, "replica"))`` rebuilds the store from the
    standbys alone — that is the recovery path the crash-consistency
    sweep exercises.

    Args:
        num_shards / config / routing / boundaries / merge_operator:
            As for :class:`ShardedStore`.
        wal_dir: Required (replication is meaningless without durable
            logs to ship).
        mode: ``"sync"`` (default — acked implies replica-durable) or
            ``"async"`` (acked implies locally durable; replica lags by
            at most :data:`QUEUE_CAPACITY` records).
    """

    def __init__(
        self,
        num_shards: Optional[int] = None,
        config: Optional[LSMConfig] = None,
        *,
        mode: str = "sync",
        routing: str = "hash",
        boundaries: Optional[Sequence[str]] = None,
        wal_dir: Optional[str] = None,
        merge_operator: Optional[MergeOperator] = None,
        _recover: bool = False,
    ) -> None:
        if mode not in MODES:
            raise ConfigError(f"replication mode must be one of {MODES}")
        if wal_dir is None:
            raise ConfigError("ReplicatedStore requires a wal_dir")
        primary_dir = os.path.join(wal_dir, PRIMARY_DIR)
        replica_dir = os.path.join(wal_dir, REPLICA_DIR)
        os.makedirs(primary_dir, exist_ok=True)
        os.makedirs(replica_dir, exist_ok=True)
        super().__init__(
            num_shards,
            config,
            routing=routing,
            boundaries=boundaries,
            wal_dir=primary_dir,
            merge_operator=merge_operator,
            _recover=_recover,
        )
        self.mode = mode
        self._repl_wal_dir = wal_dir
        self._replica_dir = replica_dir
        #: Completed failovers (served through ``INFO`` and ``HEALTH``).
        self.promotions = 0
        #: Serializes promote/failover decisions. Never held while
        #: acquiring a shard's write mutex (deadlock discipline: a sync
        #: shipper blocked under the write mutex may be woken by a
        #: promotion's drain).
        self._failover_lock = threading.RLock()
        #: Leaf lock for the per-shard replication state strings.
        self._repl_lock = threading.Lock()
        self._repl_state: List[str] = [mode] * self.num_shards
        replica_paths = [
            os.path.join(replica_dir, f"shard-{index:02d}")
            for index in range(self.num_shards)
        ]
        for path in replica_paths:
            os.makedirs(path, exist_ok=True)
        # The same manifest, mirrored: the replica side is independently
        # recoverable with identical key placement.
        self._write_manifest(replica_dir, failpoint="repl.manifest")
        if _recover:
            self.replicas: List[LSMTree] = [
                LSMTree.recover(config, path, merge_operator=merge_operator)
                for path in replica_paths
            ]
        else:
            self.replicas = [
                LSMTree(config, wal_dir=path, merge_operator=merge_operator)
                for path in replica_paths
            ]
        self._replicators = [
            ShardReplicator(index, replica, sync=(mode == "sync"))
            for index, replica in enumerate(self.replicas)
        ]
        for index, shard in self.shards.items():
            shard.set_wal_commit_hook(self._make_ship_hook(index))

    # -- shipping ------------------------------------------------------------

    def _make_ship_hook(self, index: int) -> Callable[[List[Entry]], None]:
        def ship(entries: List[Entry]) -> None:
            try:
                self._replicators[index].ship(entries)
            except ReplicationError:
                self._replica_lost(index)
                if self.mode == "sync":
                    # The write is locally durable but not replicated;
                    # sync callers must see that.
                    raise

        return ship

    def _replica_lost(self, index: int) -> None:
        """Drop shard ``index`` to primary-only service. Idempotent.

        Called on the writer thread that observed the failure (it holds
        that shard's write mutex, so detaching the hook via
        :meth:`LSMTree.set_wal_commit_hook` re-enters the same RLock).
        A shard already promoted keeps its state — the old primary's
        hook firing once more during a promotion race is harmless.
        """
        with self._repl_lock:
            if self._repl_state[index] != self.mode:
                return
            self._repl_state[index] = REPLICA_LOST
        self.shards[index].set_wal_commit_hook(None)
        self._replicators[index].stop(drain=False)

    # -- failover ------------------------------------------------------------

    def promote(self, index: int, reason: str = "operator request") -> bool:
        """Promote shard ``index``'s replica to serving primary.

        Detaches the shipping hook, drains queued groups into the
        standby, kills the old primary, swaps the replica in as
        ``self.shards[index]``, and resets the shard's health to
        healthy. Returns ``True`` if this call performed the promotion,
        ``False`` if the shard was already promoted. Raises
        :class:`~repro.errors.ReplicationError` when there is no replica
        left to promote (``replica-lost``).

        Safe to call on a healthy shard for *planned* failover (e.g.
        rolling maintenance): writes keep succeeding throughout, because
        promotion swaps the serving tree between — never during — the
        shard-routed operations, which re-read ``self.shards[index]``.
        """
        self._check_open()
        if not 0 <= index < self.num_shards:
            raise ValueError(f"no shard {index}")
        with self._failover_lock:
            with self._repl_lock:
                state = self._repl_state[index]
            if state == PROMOTED:
                return False
            if state == REPLICA_LOST:
                raise ReplicationError(
                    f"shard {index} has no replica to promote ({reason})"
                )
            scope = f"shard-{index:02d}"
            fault_point("repl.promote.start", scope=scope)
            old = self.shards[index]
            # Detach by direct assignment, not set_wal_commit_hook: the
            # setter takes the shard's write mutex, which a sync shipper
            # blocked on this very promotion may hold. An in-flight
            # writer can race one last ship; the stopped replicator
            # fails it and _replica_lost sees the promoted state.
            old._wal_commit_hook = None
            old._active_wal.on_commit = None
            replicator = self._replicators[index]
            replicator.stop(drain=True)
            fault_point("repl.promote.drain", scope=scope)
            old.kill()
            replica = self.replicas[index]
            self.shards[index] = replica
            with self._repl_lock:
                self._repl_state[index] = PROMOTED
            fault_point("repl.promote.done", scope=scope)
            with self._health_lock:
                health = self._health[index]
                health.state = HEALTHY
                health.reason = None
                health.since_s = time.monotonic()
            self.promotions += 1
            return True

    def _try_failover(self, index: int) -> bool:
        """Attempt automatic failover of a quarantined shard.

        Returns ``True`` when the shard is serving again (this call
        promoted, or a concurrent one already had), ``False`` when no
        standby is available.
        """
        with self._failover_lock:
            if self._health[index].healthy:
                return True
            with self._repl_lock:
                state = self._repl_state[index]
            if state in (PROMOTED, REPLICA_LOST):
                return False
            reason = self._health[index].reason or "quarantined"
            self.promote(index, reason=f"failover: {reason}")
            return True

    def _check_available(self, index: int) -> None:
        """Availability gate with failover: a quarantined shard gets one
        promotion attempt before the error surfaces."""
        if not self._health[index].healthy:
            self._try_failover(index)
        super()._check_available(index)

    def _shard_op(self, index: int, op: Callable[[LSMTree], _T]) -> _T:
        """Shard-routed op with failover retry.

        The shard may die *mid-operation* (quarantined on the way out);
        promoting and retrying once turns that into a served request —
        this is what lifts post-kill availability from N−1/N to ~1.
        Each attempt hands ``op`` the slot's current tree, so the retry
        runs against the freshly promoted replica.
        """
        try:
            return super()._shard_op(index, op)
        except ShardUnavailableError:
            if not self._try_failover(index):
                raise
            return super()._shard_op(index, op)

    def check_health(self) -> Dict[str, object]:
        """Health rollup with failover: quarantined shards are promoted
        before the verdict, and a ``replication`` section is added."""
        self._check_open()
        self._poll_health()
        for index in self.quarantined_shards():
            self._try_failover(index)
        payload = super().check_health()
        payload["replication"] = self.replication_summary()
        return payload

    # -- introspection -------------------------------------------------------

    def replication_summary(self) -> Dict[str, object]:
        """Per-shard replication status for ``INFO`` and operators."""
        with self._repl_lock:
            states = list(self._repl_state)
        return {
            "mode": self.mode,
            "promotions": self.promotions,
            "shards": [
                {
                    "shard": index,
                    "state": states[index],
                    "lag_records": replicator.lag_records,
                    "lag_bytes": replicator.lag_bytes,
                    "acked_seqno": replicator.acked_seqno,
                    "applied_seqno": replicator.applied_seqno,
                }
                for index, replicator in enumerate(self._replicators)
            ],
        }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close primaries, drain replicators, close standbys.

        The replicators drain *after* the shards close: no new groups
        can ship once the primaries are closed, so the drain is bounded,
        and the standbys stay open until their appliers are joined.
        """
        if self._closed:
            return
        failure: Optional[BaseException] = None
        try:
            super().close()
        except BaseException as exc:  # noqa: BLE001 — close all sides
            failure = exc
        for replicator in self._replicators:
            replicator.stop(drain=True)
        with self._repl_lock:
            states = list(self._repl_state)
        for index, replica in enumerate(self.replicas):
            if states[index] == PROMOTED:
                continue  # promoted replicas closed as shards above
            try:
                replica.close()
            except BaseException as exc:  # noqa: BLE001
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    def kill(self) -> None:
        """Crash-abandon both sides: no drains, nothing persisted."""
        if self._closed:
            return
        super().kill()
        for replicator in self._replicators:
            replicator.stop(drain=False)
        with self._repl_lock:
            states = list(self._repl_state)
        for index, replica in enumerate(self.replicas):
            if states[index] != PROMOTED:
                replica.kill()

    # -- recovery ------------------------------------------------------------

    @classmethod
    def recover(  # type: ignore[override]
        cls,
        config: Optional[LSMConfig],
        wal_dir: str,
        *,
        mode: str = "sync",
        merge_operator: Optional[MergeOperator] = None,
    ) -> "ReplicatedStore":
        """Rebuild primaries *and* replicas from their own WALs.

        Both sides replay independently from their ``shards.json`` +
        ``shard-NN/`` directories; replication then resumes from the
        live write stream (historical divergence between the sides —
        e.g. an async window lost in the crash — is not back-filled;
        promote the fresher side instead if that matters).

        Two-phase-commit state lives entirely on the primary side: the
        coordinator decision log (``primary/txn.log``) settles every
        PREPARE record found in the primaries' WALs, and replicas never
        see a prepare at all — groups ship only after commit, as plain
        committed groups.
        """
        path = os.path.join(wal_dir, PRIMARY_DIR, MANIFEST_NAME)
        if not os.path.exists(path):
            raise ConfigError(
                f"no {PRIMARY_DIR}/{MANIFEST_NAME} in {wal_dir}; not a "
                "replicated WAL directory"
            )
        manifest = load_manifest(path)
        return cls(
            manifest["num_shards"],
            config,
            mode=mode,
            routing=manifest["routing"],
            boundaries=manifest["boundaries"] or None,
            wal_dir=wal_dir,
            merge_operator=merge_operator,
            _recover=True,
        )
