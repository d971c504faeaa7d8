"""One cluster node's engine: the shards the map assigns it, nothing else.

:class:`NodeStore` owns a :class:`~repro.shard.ShardedStore` forest
and adds ownership, fences, and transitions. The forest opens slots only
for the shards *assigned to this node id* and is the single home of
routing, quarantine, batch validation and split, two-phase commit,
snapshots, scans, lifecycle, and rollups; every
:class:`~repro.api.KVStore` method here is a guard followed by a call
into it. The guards are what a cluster adds: requests for a shard the
:class:`~repro.cluster.ClusterMap` places elsewhere raise
:class:`~repro.errors.ShardMovedError` carrying the owning node's
address and the map epoch (the serving layer's retryable ``ERR MOVED``
redirect), and writes to a shard mid-handoff raise
:class:`~repro.errors.ShardFencedError` (``BUSY``). ``num_shards`` still
reports the *global* shard count, so the serving layer's per-shard group
committers line up with cluster-wide shard indices unchanged.

Live migration is built from five small primitives, driven either
in-process (:func:`migrate_local`, which the crash-consistency sweep
crashes at every crossing) or over the wire (the ``MIGRATE`` driver in
:mod:`repro.cluster.node`):

1. destination :meth:`~NodeStore.migration_begin` — wipe any stale
   leftovers and open a fresh *receiving* tree that is journaled but not
   serving;
2. source :meth:`~NodeStore.migration_attach_tail` — tap the shard's
   WAL commit hook so every group committed from now on is buffered in
   commit order, then ship a chunked snapshot scan (tail groups are
   drained and shipped between chunks, so the backlog never grows);
3. source :meth:`~NodeStore.fence` — writes to the shard now raise
   :class:`~repro.errors.ShardFencedError` (served as ``BUSY``, absorbed
   by client retry); detaching the tail takes the tree's write mutex, so
   after it returns every in-flight commit has been observed;
4. destination :meth:`~NodeStore.migration_seal` — persist the
   bumped-epoch map and atomically adopt the receiving tree as serving;
5. source :meth:`~NodeStore.release_shard` — persist the same map,
   close the local tree, answer ``MOVED`` thereafter.

Correctness argument, in one paragraph: all data flows to the
destination over a single ordered channel, snapshot chunks interleaved
with drained tail batches. A snapshot chunk read at time *t* carries a
value at least as new as any tail group shipped before *t* (the scan
reads the live tree), and every tail group shipped after it is a newer
commit — so per key, the *last arrival wins* and applying everything in
arrival order (duplicates included, applies are last-write-wins)
reproduces the source's latest state. The fence plus the write-mutex
barrier in the hook detach guarantee the final drain is complete. The
destination seals *before* the source releases; a crash between the two
leaves both nodes claiming the shard on disk, and the bumped epoch —
higher wins — arbitrates to exactly one owner, with both claimants
holding every acknowledged write.

Cross-node replication (PR 9) reuses the same machinery on the standby
side: a primary seeds a peer's *replica* tree with the snapshot-chunk
scan (:meth:`NodeStore.replica_sync_begin` / :meth:`replica_apply`),
then keeps it warm by forwarding every WAL commit group through an
attached ship hook (:meth:`attach_replication`). Failover is a
promotion (:meth:`promote_shards`): the replica node persists a
bumped-epoch map *before* adopting its warm trees as serving — the
same seal-before-release discipline as migration, with the stale
primary fenced by its older epoch. A restarted old primary observes
the newer map (:meth:`adopt_map`) and demotes itself to replica for
its former shards; :func:`replicate_local` is the in-process twin of
the wire shipper that the crash-consistency sweep crashes at every
``repl.node.*`` crossing.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from contextlib import ExitStack
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..api import Snapshot, SnapshotLike
from ..core.config import LSMConfig
from ..core.entry import Entry
from ..core.merge_operator import MergeOperator
from ..core.stats import TreeStats
from ..core.tree import LSMTree
from ..errors import ConfigError, ShardFencedError, ShardMovedError
from ..faults.registry import fault_point
from ..replication.store import entries_to_batch_ops
from ..shard.store import BatchOp, ShardedStore
from .map import ClusterMap

#: Upper bound for snapshot pagination: ``scan(after, _MAX_KEY)`` reads
#: "the rest" of a shard. :meth:`NodeStore.write_batch` *enforces* that
#: every accepted key sorts strictly below this bound, so the exclusive
#: upper bound is a real invariant — an acked key can never be silently
#: excluded from (and lost by) a migration snapshot.
_MAX_KEY = "\U0010ffff" * 8

#: Key/value pairs shipped per snapshot chunk by the migration drivers.
SNAPSHOT_CHUNK = 256


class _TailBuffer:
    """Thread-safe FIFO of batch ops tapped off a shard's WAL commits.

    The WAL commit hook fires on the committing thread, after the
    group's sync, in commit order; the buffer just records that order so
    the migration driver can drain and ship in the same order. Merge and
    range-delete entries are refused — the serving layer only produces
    put/delete, and shipping a merge operand without its base would
    change its meaning on the destination.
    """

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self._ops: List[BatchOp] = []
        self._lock = threading.Lock()
        #: Total ops ever buffered (driver observability).
        self.total_ops = 0

    def on_commit(self, entries: List[Entry]) -> None:
        converted = entries_to_batch_ops(entries, context="live migration")
        with self._lock:
            self._ops.extend(converted)
            self.total_ops += len(converted)

    def drain(self) -> List[BatchOp]:
        """Take everything buffered so far, in commit order."""
        with self._lock:
            ops, self._ops = self._ops, []
            return ops


class NodeStore:
    """The shards of one cluster node, routed by a shared ClusterMap.

    Args:
        node_id: This node's identity; must appear in ``cluster_map``.
        cluster_map: The epoch-versioned assignment to serve under; it
            is persisted into ``wal_dir`` as ``cluster.json``.
        config: Per-shard engine configuration (shared instance).
        wal_dir: Required — a cluster node is durable by definition.
            Each owned shard journals into ``shard-NN/`` underneath.
        merge_operator: Passed to every shard tree (note that *live
            migration* refuses merge entries; see :class:`_TailBuffer`).
    """

    def __init__(
        self,
        node_id: str,
        cluster_map: ClusterMap,
        config: Optional[LSMConfig] = None,
        *,
        wal_dir: str,
        merge_operator: Optional[MergeOperator] = None,
        _recover: bool = False,
    ) -> None:
        if node_id not in cluster_map.nodes:
            raise ConfigError(
                f"node {node_id!r} is not in the cluster map "
                f"({sorted(cluster_map.nodes)})"
            )
        self.node_id = node_id
        self.map = cluster_map
        self._wal_dir = wal_dir
        os.makedirs(wal_dir, exist_ok=True)
        cluster_map.save(wal_dir)
        #: The shard forest: one open slot per shard this node serves,
        #: keyed by *global* shard index. Its coordinator decision log
        #: lives at the node's WAL root (never inside a shard directory,
        #: which migrations wipe), and its snapshots are node-local
        #: consistent points the cluster client composes across nodes.
        self._forest = ShardedStore(
            cluster_map.num_shards,
            config,
            routing=cluster_map.routing,
            boundaries=cluster_map.boundaries or None,
            wal_dir=wal_dir,
            merge_operator=merge_operator,
            _recover=_recover,
            _open_slots=cluster_map.shards_of(node_id),
            _scope=f"{node_id}/",
        )
        #: Per-shard write serialization point: the fence check and the
        #: commit it guards happen under this lock, and :meth:`fence`
        #: sets its flag under the same lock — so once ``fence`` returns,
        #: every admitted write has fully committed (and hence been
        #: captured by the attached tail) and every later write raises.
        #: Without it a write could pass the check, lose the CPU, and
        #: commit *after* the tail detached: acknowledged yet never
        #: shipped. The serving layer already runs one committer per
        #: shard, so the lock is uncontended in the common case.
        #:
        #: Lock order, on every path: write locks (ascending shard
        #: index) → the forest's transaction lock. :meth:`write_batch`
        #: takes both in that order; :meth:`snapshot` takes only the
        #: transaction lock; :meth:`fence` and :meth:`repl_fence` only
        #: a write lock.
        self._write_locks: Dict[int, threading.Lock] = {
            shard: threading.Lock() for shard in self.trees
        }
        #: Migration state: trees being warmed (not serving), shards
        #: fenced for handoff, and attached WAL-tail buffers.
        self._receiving: Dict[int, LSMTree] = {}
        self._fenced: Set[int] = set()
        #: Shards write-fenced by the *replication* layer: the primary
        #: lost contact with its standby past the fence window and stops
        #: acking sync-replicated writes (self-fencing against
        #: split-brain under partitions). Same ShardFencedError → BUSY
        #: answer as the migration fence, but lifted by the node's
        #: heartbeat loop (contact re-established) or a demotion, not by
        #: a handoff.
        self._repl_fenced: Set[int] = set()
        self._tails: Dict[int, _TailBuffer] = {}
        #: Cross-node replication state. ``_replica_trees`` are warm
        #: standbys of shards *other* nodes own (journaled in the same
        #: ``shard-NN/`` directory a serving tree would use — a node is
        #: never primary and replica of the same shard, and promotion
        #: then needs no data move). ``_replica_fresh`` marks standbys
        #: that completed a seed *in this process lifetime*: only those
        #: are promotable, so a stale directory (a crashed replica, or a
        #: demoted primary awaiting reseed) can never be promoted over
        #: writes it missed. ``_ship_hooks`` are the primary-side taps
        #: forwarding commit groups to remote replicas.
        self._replica_trees: Dict[int, LSMTree] = {}
        self._replica_fresh: Set[int] = set()
        self._ship_hooks: Dict[int, Callable[[List[Entry]], None]] = {}
        self._transition_lock = threading.Lock()

    def _scope(self, shard: int) -> str:
        """Failpoint scope of one of this node's shards."""
        return self._forest._failpoint_scope(shard)

    @property
    def trees(self) -> Dict[int, LSMTree]:
        """Serving trees, keyed by *global* shard index."""
        return self._forest.shards

    @property
    def _closed(self) -> bool:
        return self._forest._closed

    # -- routing and ownership ------------------------------------------------

    @property
    def num_shards(self) -> int:
        """*Global* shard count (the serving layer's committer fan-out)."""
        return self._forest.num_shards

    def shard_index(self, key: str) -> int:
        """Global shard index of ``key``."""
        return self._forest.shard_index(key)

    def owned_shards(self) -> List[int]:
        """Shards this node currently serves, ascending."""
        return sorted(self.trees)

    def _owned_tree(self, shard: int) -> LSMTree:
        """The serving tree for ``shard``; MOVED when it lives elsewhere."""
        tree = self.trees.get(shard)
        if tree is None:
            owner = self.map.owner(shard)
            raise ShardMovedError(
                shard, owner.node_id, owner.host, owner.port, self.map.epoch
            )
        return tree

    def _check_unfenced(self, shard: int) -> None:
        if shard in self._fenced or shard in self._repl_fenced:
            raise ShardFencedError(shard)

    def _adopt(self, shard: int, tree: LSMTree) -> None:
        """Start serving a warm ``tree`` as ``shard`` (seal, promote):
        fresh write lock, fences lifted, healthy slot in the forest."""
        self._write_locks[shard] = threading.Lock()
        self._fenced.discard(shard)
        self._repl_fenced.discard(shard)
        self._forest._adopt_slot(shard, tree)

    def _drop(self, shard: int) -> None:
        """Stop serving ``shard`` (release, demote) and close its tree;
        its taps die with it. The migration fence is set (or kept): a
        racing write that passed its ownership check before the flip
        answers FencedError (→ BUSY, retried) instead of committing to
        the closed tree; its retry re-routes and gets the MOVED
        redirect."""
        self._fenced.add(shard)
        self._repl_fenced.discard(shard)
        tree = self._forest._drop_slot(shard)
        self._write_locks.pop(shard, None)
        self._tails.pop(shard, None)
        self._ship_hooks.pop(shard, None)
        tree.close()

    # -- KVStore operations: a guard, then the forest -------------------------

    def put(self, key: str, value: str) -> None:
        self.write_batch([("put", key, value)])

    def delete(self, key: str) -> None:
        self.write_batch([("delete", key, None)])

    def get(
        self, key: str, at: Optional[SnapshotLike] = None
    ) -> Optional[str]:
        self._check_open()
        self._owned_tree(self.shard_index(key))
        return self._forest.get(key, at)

    def snapshot(self) -> Snapshot:
        """Consistent read point over the shards *this node owns*.

        Seqnos are keyed by global shard index, so per-node snapshot
        tokens from every node merge into one cluster-wide snapshot
        (:meth:`repro.cluster.ClusterClient.snapshot`). Capture holds the
        forest's transaction lock, so it never splits a cross-shard batch
        this node coordinated.
        """
        return self._forest.snapshot()

    def write_batch(self, ops: Sequence[BatchOp]) -> None:
        """Commit ``ops`` on their owned shards; MOVED/fenced up front.

        Ownership and fence checks run before anything is applied, so a
        batch touching a moved or fenced shard fails with nothing
        written; the forest then validates, splits, and commits — a
        single-shard batch (the overwhelmingly common case: the serving
        layer runs one committer per shard) directly, a batch spanning
        several *owned* shards through its two-phase commit. The
        involved shards' write locks are held through the commit, so
        :meth:`fence` returning still means every admitted write has
        fully committed. A batch spanning *nodes* is the cluster
        client's job to split — each node only ever coordinates its own
        shards.
        """
        self._check_open()
        shards = set()
        for _op, key, _value in ops:
            if key:  # empty keys are the forest's to reject
                if key >= _MAX_KEY:
                    raise ValueError(
                        "keys must sort below the migration snapshot "
                        "bound (8 maximal code points); this key could "
                        "not be paginated by a live migration"
                    )
                shards.add(self.shard_index(key))
        involved = sorted(shards)
        # Ownership first: a shard served elsewhere must answer the MOVED
        # redirect, not the fence's BUSY (which would make the client
        # retry the wrong node forever).
        for shard in involved:
            self._owned_tree(shard)
        locks = []
        for shard in involved:
            self._check_unfenced(shard)
            lock = self._write_locks.get(shard)
            if lock is None:  # released between the check and here
                raise ShardFencedError(shard)
            locks.append(lock)
        with ExitStack() as held:
            for lock in locks:  # ascending shard order: no deadlock
                held.enter_context(lock)
            for shard in involved:
                self._check_unfenced(shard)
            self._forest.write_batch(ops)

    def scan(
        self,
        lo: str,
        hi: str,
        limit: Optional[int] = None,
        *,
        at: Optional[SnapshotLike] = None,
        allow_partial: bool = False,
    ) -> List[Tuple[str, str]]:
        """Range lookup over the shards *this node owns*.

        A node answers for its slice of the key space only; the
        cluster-wide merge across nodes is the
        :class:`~repro.cluster.ClusterClient`'s job.
        """
        return self._forest.scan(
            lo, hi, limit, at=at, allow_partial=allow_partial
        )

    # -- migration primitives: destination side -------------------------------

    def migration_begin(self, shard: int) -> str:
        """Open a fresh receiving tree for ``shard``; returns our node id.

        Any leftover state for the shard — an abandoned earlier
        migration attempt, or debris from a previous ownership stint —
        is wiped first, so the warm-up always starts from empty (which is
        what makes re-shipping after a failed attempt safe).
        """
        self._check_open()
        with self._transition_lock:
            if shard in self.trees:
                raise ConfigError(
                    f"node {self.node_id} already owns shard {shard}"
                )
            stale = self._receiving.pop(shard, None)
            if stale is not None:
                stale.kill()
            standby = self._replica_trees.pop(shard, None)
            if standby is not None:
                # The shard is migrating onto its own replica node; the
                # warm copy is superseded by the full snapshot + tail.
                standby.kill()
                self._replica_fresh.discard(shard)
            self._receiving[shard] = self._fresh_tree(
                shard, "cluster.migrate.begin"
            )
        return self.node_id

    def _fresh_tree(self, shard: int, failpoint: str) -> LSMTree:
        """Wipe ``shard``'s directory and open an empty tree over it —
        journaled, but not serving until :meth:`_adopt`."""
        path = self._forest.shard_dir(shard)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path, exist_ok=True)
        fault_point(failpoint, scope=self._scope(shard))
        return self._forest._open_tree(shard)

    def migration_apply(self, shard: int, ops: Sequence[BatchOp]) -> None:
        """Apply one shipped batch (snapshot chunk or tail drain)."""
        self._check_open()
        tree = self._receiving.get(shard)
        if tree is None:
            raise ConfigError(
                f"no migration in progress for shard {shard} on "
                f"{self.node_id}"
            )
        if ops:
            tree.write_batch(list(ops))

    def migration_seal(self, shard: int, new_map: ClusterMap) -> None:
        """Atomically adopt the warmed shard under the bumped-epoch map.

        The map is persisted *before* the tree starts serving: after any
        crash, disk ownership (the freshest ``cluster.json``) and the
        shard data (the receiving tree's WAL, already durable in the
        shard directory) agree.

        Idempotent once applied: the wire client is at-least-once (a
        reply lost to a connection reset resends the request), so a
        duplicate ``MIG.SEAL`` whose first copy already flipped
        ownership answers OK instead of "no migration in progress" —
        otherwise the source driver would read the resend's error as a
        failed seal and resume serving a shard this node now owns.
        """
        self._check_open()
        with self._transition_lock:
            if (
                shard in self.trees
                and self.map.owner_id(shard) == self.node_id
                and self.map.epoch >= new_map.epoch
            ):
                return  # duplicate seal; the first copy took effect
            tree = self._receiving.get(shard)
            if tree is None:
                raise ConfigError(
                    f"no migration in progress for shard {shard} on "
                    f"{self.node_id}"
                )
            if new_map.epoch <= self.map.epoch:
                raise ConfigError(
                    f"seal map epoch {new_map.epoch} is not newer than "
                    f"current epoch {self.map.epoch}"
                )
            if new_map.owner_id(shard) != self.node_id:
                raise ConfigError(
                    f"seal map assigns shard {shard} to "
                    f"{new_map.owner_id(shard)!r}, not {self.node_id!r}"
                )
            fault_point("cluster.migrate.seal", scope=self._scope(shard))
            new_map.save(self._wal_dir)
            self.map = new_map
            del self._receiving[shard]
            self._adopt(shard, tree)

    # -- WAL commit tap (shared by migration tails and replication) -----------

    def _commit_tap(self, shard: int) -> Callable[[List[Entry]], None]:
        """One dispatcher for the tree's single WAL-hook slot.

        A shard can be tapped by a migration tail and a replication ship
        hook *at the same time* (a replicated shard migrating off this
        node keeps its standby warm throughout), so the hook slot holds
        this dispatcher and the taps live in dicts. The dicts are read
        on the committing thread under the tree's write mutex; attach
        and detach mutate them and then re-install the hook, whose
        setter takes the same mutex — the barrier that orders every
        in-flight commit against the change.
        """

        def tap(entries: List[Entry]) -> None:
            tail = self._tails.get(shard)
            if tail is not None:
                tail.on_commit(entries)
            ship = self._ship_hooks.get(shard)
            if ship is not None:
                fault_point("repl.node.ship", scope=self._scope(shard))
                ship(entries)

        return tap

    def _sync_tap(self, shard: int, tree: LSMTree) -> None:
        """(Re)install or clear the dispatcher; the setter's write-mutex
        acquisition is the attach/detach barrier."""
        if shard in self._tails or shard in self._ship_hooks:
            tree.set_wal_commit_hook(self._commit_tap(shard))
        else:
            tree.set_wal_commit_hook(None)

    def attach_replication(
        self, shard: int, ship: Callable[[List[Entry]], None]
    ) -> None:
        """Forward ``shard``'s committed WAL groups to ``ship``.

        ``ship`` fires on the committing thread, under the shard's write
        mutex, after the group's local WAL sync — with exactly the
        entries the durability contract acknowledged. A synchronous
        (blocking) ship therefore gives sync-replication semantics:
        the client's ack implies the replica saw the group. Every group
        committed after this returns is forwarded.
        """
        self._check_open()
        with self._transition_lock:
            if shard in self._ship_hooks:
                raise ConfigError(
                    f"shard {shard} already ships replication off "
                    f"{self.node_id}"
                )
            tree = self._owned_tree(shard)
            self._ship_hooks[shard] = ship
            self._sync_tap(shard, tree)

    def detach_replication(self, shard: int) -> None:
        """Stop forwarding ``shard``'s commits. Idempotent; the
        write-mutex barrier in the hook setter guarantees no ship fires
        after this returns."""
        self._check_open()
        with self._transition_lock:
            if self._ship_hooks.pop(shard, None) is None:
                return
            tree = self.trees.get(shard)
            if tree is not None:
                self._sync_tap(shard, tree)

    # -- migration primitives: source side ------------------------------------

    def migration_attach_tail(self, shard: int) -> _TailBuffer:
        """Tap ``shard``'s WAL commits into a buffer; returns the buffer.

        Installing the hook takes the tree's write mutex, so every
        commit group that completes after this returns is captured.
        """
        self._check_open()
        with self._transition_lock:
            if shard in self._tails:
                raise ConfigError(
                    f"shard {shard} is already migrating off "
                    f"{self.node_id}"
                )
            tree = self._owned_tree(shard)
            tail = _TailBuffer(shard)
            self._tails[shard] = tail
            self._sync_tap(shard, tree)
        return tail

    def migration_snapshot_chunk(
        self,
        shard: int,
        after: Optional[str],
        limit: int = SNAPSHOT_CHUNK,
    ) -> List[Tuple[str, str]]:
        """The next ``limit`` live pairs of ``shard`` strictly after
        ``after`` (``None`` starts from the beginning)."""
        self._check_open()
        self._owned_tree(shard)
        lo = "" if after is None else after + "\x00"
        return self._forest._shard_op(
            shard, lambda tree: tree.scan(lo, _MAX_KEY, limit)
        )

    def fence(self, shard: int) -> None:
        """Refuse new writes to ``shard`` (``ShardFencedError`` → BUSY).

        Setting the flag under the shard's write lock is the handoff's
        linearization point: acquiring the lock waits out any write that
        already passed its fence check, so when this returns, every
        acknowledged write has committed (and fired the attached tail
        hook) and every later write raises.
        """
        self._check_open()
        self._owned_tree(shard)
        fault_point("cluster.migrate.fence", scope=self._scope(shard))
        with self._write_locks[shard]:
            self._fenced.add(shard)

    def repl_fence(self, shard: int) -> bool:
        """Self-fence ``shard``: stop acking writes because its standby
        has been out of contact past the fence window; returns whether
        the flag was newly set.

        Same linearization discipline as :meth:`fence` — the flag flips
        under the shard's write lock, so a write that already passed its
        admission check commits before the fence is visible (its *ack*
        is still gated exactly, by the shipper's ack-time check) and
        every later write answers BUSY. Lifted by :meth:`repl_unfence`
        when the ship stream re-establishes, or implicitly by losing the
        shard (demotion/release), never by a timeout alone.
        """
        self._check_open()
        if self.trees.get(shard) is None or shard in self._repl_fenced:
            return False
        fault_point("repl.node.fence", scope=self._scope(shard))
        lock = self._write_locks.get(shard)
        if lock is None:
            return False
        with lock:
            self._repl_fenced.add(shard)
        return True

    def repl_unfence(self, shard: int) -> bool:
        """Lift a self-fence (standby contact re-established at a
        compatible epoch); returns whether the flag was set."""
        self._check_open()
        if shard in self._repl_fenced:
            self._repl_fenced.discard(shard)
            return True
        return False

    def repl_fenced_shards(self) -> List[int]:
        """Shards currently self-fenced by the replication layer."""
        return sorted(self._repl_fenced)

    def migration_detach_tail(self, shard: int) -> None:
        """Remove the WAL tail tap (a replication ship hook, if any,
        stays attached). Taking the write mutex inside
        ``set_wal_commit_hook`` doubles as the drain barrier: when this
        returns, every in-flight commit has already fired the hook."""
        self._check_open()
        tree = self._owned_tree(shard)
        with self._transition_lock:
            self._tails.pop(shard, None)
            self._sync_tap(shard, tree)

    def release_shard(self, shard: int, new_map: ClusterMap) -> None:
        """Persist the flip and stop serving ``shard`` (MOVED hereafter).

        The local tree is closed but its directory is *kept*: until the
        operator prunes it, the released data backs the crash window in
        which the destination sealed but this node had not yet released
        — either side alone can satisfy every acknowledged write, and
        the epoch decides who answers.
        """
        self._check_open()
        with self._transition_lock:
            if shard not in self.trees:
                raise ConfigError(
                    f"node {self.node_id} does not own shard {shard}"
                )
            if new_map.epoch <= self.map.epoch:
                raise ConfigError(
                    f"release map epoch {new_map.epoch} is not newer "
                    f"than current epoch {self.map.epoch}"
                )
            if new_map.owner_id(shard) == self.node_id:
                raise ConfigError(
                    f"release map still assigns shard {shard} to "
                    f"{self.node_id!r}"
                )
            fault_point("cluster.migrate.release", scope=self._scope(shard))
            new_map.save(self._wal_dir)
            self.map = new_map
            self._drop(shard)

    def abort_migration(self, shard: int) -> None:
        """Undo source-side migration state after a failed attempt:
        detach the tail, lift the fence, keep serving (and keep
        shipping, when the shard is replicated)."""
        with self._transition_lock:
            tree = self.trees.get(shard)
            had_tail = self._tails.pop(shard, None) is not None
            if tree is not None and had_tail:
                self._sync_tap(shard, tree)
            self._fenced.discard(shard)

    def migrating_shards(self) -> List[int]:
        """Shards with an attached outbound tail (source side)."""
        return sorted(self._tails)

    # -- cross-node replication: standby side ----------------------------------

    def replica_shards(self) -> List[int]:
        """Shards this node holds a warm standby tree for, ascending."""
        return sorted(self._replica_trees)

    def replica_sync_begin(
        self, shard: int, source_map: Optional[ClusterMap] = None
    ) -> str:
        """Wipe and reopen ``shard``'s standby tree for (re)seeding.

        Called by the primary's shipper at stream start — always a full
        reseed, so a standby of unknown freshness (a crashed replica, a
        demoted primary) converges on the primary's exact state. When
        the primary's ``source_map`` is newer than ours it is adopted
        first (:meth:`adopt_map`) — for a rejoining old primary this is
        precisely the demotion step: the new primary's first ``REPL.SYNC``
        carries the promotion map. Returns our node id.
        """
        self._check_open()
        if source_map is not None:
            self.adopt_map(source_map)
        with self._transition_lock:
            if self.map.replica_id(shard) != self.node_id:
                raise ConfigError(
                    f"map (epoch {self.map.epoch}) does not name "
                    f"{self.node_id!r} the replica of shard {shard}"
                )
            if shard in self.trees:
                raise ConfigError(
                    f"node {self.node_id} serves shard {shard} as "
                    "primary; it cannot also receive its replica stream"
                )
            self._replica_fresh.discard(shard)
            stale = self._replica_trees.pop(shard, None)
            if stale is not None:
                stale.kill()
            self._replica_trees[shard] = self._fresh_tree(
                shard, "repl.node.sync"
            )
        return self.node_id

    def replica_apply(self, shard: int, ops: Sequence[BatchOp]) -> None:
        """Apply one shipped batch (seed chunk or live commit group) to
        the standby tree, journaled as one group so the standby's own
        recovery preserves its atomicity."""
        self._check_open()
        tree = self._replica_trees.get(shard)
        if tree is None:
            raise ConfigError(
                f"node {self.node_id} holds no replica stream for "
                f"shard {shard}"
            )
        if ops:
            fault_point("repl.node.apply", scope=self._scope(shard))
            tree.write_batch(list(ops))

    def replica_mark_seeded(self, shard: int) -> None:
        """Record that ``shard``'s standby caught up with the primary's
        snapshot: it is promotable from now on. Sent by the primary once
        the seeding scan completes (``REPL.SEEDED`` on the wire)."""
        self._check_open()
        with self._transition_lock:
            if shard not in self._replica_trees:
                raise ConfigError(
                    f"node {self.node_id} holds no replica stream for "
                    f"shard {shard}"
                )
            self._replica_fresh.add(shard)

    def promotable_shards(self) -> List[int]:
        """Standby shards eligible for promotion: seeded in this process
        lifetime, so they missed no acknowledged write."""
        return sorted(self._replica_fresh)

    def promote_shards(
        self, shards: Sequence[int], new_map: ClusterMap
    ) -> None:
        """Adopt warm standby trees as serving under the failover map.

        The promotion's commit point is persisting ``new_map`` (epoch
        bumped, this node now the primary of ``shards``): the map is
        saved *before* any tree starts serving — seal-before-release —
        so after any crash the freshest on-disk epoch names exactly one
        writable owner per shard, and the dead primary's claim is fenced
        by its stale epoch. Only fresh standbys
        (:meth:`promotable_shards`) are accepted: a stale directory
        might miss acknowledged writes.
        """
        self._check_open()
        if not shards:
            raise ConfigError("a promotion needs at least one shard")
        with self._transition_lock:
            if new_map.epoch <= self.map.epoch:
                raise ConfigError(
                    f"promotion map epoch {new_map.epoch} is not newer "
                    f"than current epoch {self.map.epoch}"
                )
            for shard in shards:
                if new_map.owner_id(shard) != self.node_id:
                    raise ConfigError(
                        f"promotion map assigns shard {shard} to "
                        f"{new_map.owner_id(shard)!r}, not "
                        f"{self.node_id!r}"
                    )
                if shard not in self._replica_trees:
                    raise ConfigError(
                        f"node {self.node_id} holds no standby for "
                        f"shard {shard}"
                    )
                if shard not in self._replica_fresh:
                    raise ConfigError(
                        f"shard {shard}'s standby on {self.node_id} was "
                        "never seeded in this process lifetime; "
                        "refusing to promote a possibly stale copy"
                    )
            fault_point("repl.node.promote.seal", scope=self.node_id)
            new_map.save(self._wal_dir)
            self.map = new_map
            for shard in shards:
                self._replica_fresh.discard(shard)
                self._adopt(shard, self._replica_trees.pop(shard))
            fault_point("repl.node.promote.done", scope=self.node_id)

    def adopt_map(self, new_map: ClusterMap) -> bool:
        """Install a newer map, demoting this node where ownership moved
        away from it; returns whether anything changed.

        The failover-aware superset of :meth:`install_map`: a shard the
        new map assigns to another node is *demoted* — our stale tree
        stops serving (later writes answer MOVED; racing ones are
        fenced) — which is exactly the safe-rejoin step for a restarted
        old primary observing the promotion epoch. The stale directory
        is kept until the new primary's ``REPL.SYNC`` wipes and reseeds
        it, as the operator's backstop for an async-mode loss window. A
        map that would *grant* us shards is still rejected: ownership is
        gained only through a migration seal or a promotion, never a
        push.
        """
        self._check_open()
        with self._transition_lock:
            if new_map.epoch <= self.map.epoch:
                return False
            if self.node_id not in new_map.nodes:
                raise ConfigError(
                    f"pushed map (epoch {new_map.epoch}) drops node "
                    f"{self.node_id!r} while it is serving"
                )
            gained = set(new_map.shards_of(self.node_id)) - set(self.trees)
            if gained:
                raise ConfigError(
                    f"pushed map (epoch {new_map.epoch}) grants "
                    f"{sorted(gained)} to {self.node_id!r}; ownership "
                    "is gained by migration or promotion, not a push"
                )
            lost = sorted(
                set(self.trees) - set(new_map.shards_of(self.node_id))
            )
            for shard in lost:
                fault_point("repl.node.demote", scope=self._scope(shard))
            # Persist first (seal-before-release in reverse: the newer
            # epoch on disk is what durably fences our stale claim),
            # then stop serving the demoted shards.
            new_map.save(self._wal_dir)
            self.map = new_map
            for shard in lost:
                self._drop(shard)
            # Standbys for shards we no longer replicate are dropped.
            for shard in list(self._replica_trees):
                if new_map.replica_id(shard) != self.node_id:
                    self._replica_fresh.discard(shard)
                    self._replica_trees.pop(shard).close()
            return True

    # -- map installation -----------------------------------------------------

    def install_map(self, new_map: ClusterMap) -> bool:
        """Adopt a pushed map when it is newer and consistent; returns
        whether anything changed.

        Guard: the pushed map must assign this node exactly the shards
        it is actually serving — a map that would orphan a live tree (or
        claim a tree we don't have) is rejected, because ownership
        changes must go through the migration protocol, not a push.
        """
        self._check_open()
        with self._transition_lock:
            if new_map.epoch <= self.map.epoch:
                return False
            if self.node_id not in new_map.nodes:
                raise ConfigError(
                    f"pushed map (epoch {new_map.epoch}) drops node "
                    f"{self.node_id!r} while it is serving"
                )
            if set(new_map.shards_of(self.node_id)) != set(self.trees):
                raise ConfigError(
                    f"pushed map (epoch {new_map.epoch}) assigns "
                    f"{new_map.shards_of(self.node_id)} to "
                    f"{self.node_id!r} which serves "
                    f"{sorted(self.trees)}; ownership changes require "
                    "migration"
                )
            new_map.save(self._wal_dir)
            self.map = new_map
            return True

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        self._forest.flush()

    def _kill_warm_trees(self) -> None:
        for tree in list(self._receiving.values()):
            tree.kill()  # never served; nothing promised
        for tree in list(self._replica_trees.values()):
            tree.kill()  # reseeded from the primary on restart anyway

    def close(self) -> None:
        """Close every tree (serving and warm). Idempotent."""
        if not self._closed:
            self._kill_warm_trees()
            self._forest.close()

    def kill(self) -> None:
        """Abandon everything as a process crash would. Idempotent."""
        if not self._closed:
            self._kill_warm_trees()
            self._forest.kill()

    def __enter__(self) -> "NodeStore":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        self._forest._check_open()

    # -- recovery -------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        node_id: str,
        config: Optional[LSMConfig],
        wal_dir: str,
        *,
        merge_operator: Optional[MergeOperator] = None,
    ) -> "NodeStore":
        """Rebuild this node from its directory after a crash.

        The persisted ``cluster.json`` (the freshest map this node ever
        saved) decides which shards to open; the forest reads the
        coordinator decision log and each owned shard replays its own
        WAL against it. Shard directories the map does *not* assign to
        this node are left untouched — they are either an interrupted
        inbound migration (re-wiped by the next ``migration_begin``) or
        data this node released, kept as the crash-window backstop.
        """
        return cls(
            node_id,
            ClusterMap.load(wal_dir),
            config,
            wal_dir=wal_dir,
            merge_operator=merge_operator,
            _recover=True,
        )

    # -- introspection --------------------------------------------------------

    @property
    def stats(self) -> TreeStats:
        return self._forest.stats

    def backpressure(self) -> Dict[str, object]:
        """Aggregate admission snapshot over *owned, healthy* shards."""
        return self._forest.backpressure()

    def quarantined_shards(self) -> List[int]:
        return self._forest.quarantined_shards()

    def check_health(self) -> Dict[str, object]:
        """HEALTH payload: per-shard quarantine plus cluster placement."""
        payload = self._forest.check_health()
        payload.update(
            node_id=self.node_id,
            epoch=self.map.epoch,
            owned_shards=self.owned_shards(),
            migrating_shards=self.migrating_shards(),
            receiving_shards=sorted(self._receiving),
            replica_shards=self.replica_shards(),
            replica_fresh=self.promotable_shards(),
        )
        return payload

    def shard_summary(self) -> List[Dict[str, object]]:
        return self._forest.shard_summary()

    def total_disk_bytes(self) -> int:
        return self._forest.total_disk_bytes()


def migrate_local(
    source: NodeStore,
    dest: NodeStore,
    shard: int,
    *,
    chunk: int = SNAPSHOT_CHUNK,
    during: Optional[Callable[[], None]] = None,
) -> Dict[str, object]:
    """Migrate ``shard`` between two in-process NodeStores.

    The synchronous twin of the wire driver in
    :mod:`repro.cluster.node` — same primitive sequence, same failpoint
    crossings, no sockets — which is exactly what the crash-consistency
    sweep needs: it crashes this function at every crossing and proves
    that recovery lands every acknowledged write on exactly one owner.
    ``during`` (tests/sweep only) runs extra source-side writes after the
    snapshot but before the fence, forcing data through the tail path.
    """
    dest.migration_begin(shard)
    if dest.map.epoch > source.map.epoch:
        # The destination's map is newer (it took part in migrations we
        # missed; none can have touched our shards without us). Adopt it
        # so the flip epoch exceeds both maps.
        source.install_map(dest.map)
    tail = source.migration_attach_tail(shard)
    snapshot_pairs = 0
    try:
        after: Optional[str] = None
        while True:
            pairs = source.migration_snapshot_chunk(shard, after, chunk)
            if pairs:
                fault_point(
                    "cluster.migrate.snapshot",
                    scope=source._scope(shard),
                )
                dest.migration_apply(
                    shard, [("put", key, value) for key, value in pairs]
                )
                snapshot_pairs += len(pairs)
                after = pairs[-1][0]
            drained = tail.drain()
            if drained:
                fault_point(
                    "cluster.migrate.tail",
                    scope=source._scope(shard),
                )
                dest.migration_apply(shard, drained)
            if len(pairs) < chunk:
                break
        if during is not None:
            during()
        fence_started = time.monotonic()
        source.fence(shard)
        source.migration_detach_tail(shard)
        final_tail = tail.drain()
        if final_tail:
            fault_point(
                "cluster.migrate.tail",
                scope=source._scope(shard),
            )
            dest.migration_apply(shard, final_tail)
        new_map = source.map.with_assignment(shard, dest.node_id)
        dest.migration_seal(shard, new_map)
        source.release_shard(shard, new_map)
    except BaseException:
        # InjectedCrash included: leave fences/tails as the crash found
        # them for serving-path failures, but only clean up when the
        # source still runs (abort is a no-op post-release).
        if not source._closed and shard in source.trees:
            source.abort_migration(shard)
        raise
    return {
        "shard": shard,
        "epoch": source.map.epoch,
        "snapshot_pairs": snapshot_pairs,
        "tail_ops": tail.total_ops,
        "fence_ms": (time.monotonic() - fence_started) * 1000.0,
    }


def replicate_local(
    source: NodeStore,
    dest: NodeStore,
    shard: int,
    *,
    chunk: int = SNAPSHOT_CHUNK,
) -> Callable[[], None]:
    """Seed and then continuously ship ``shard`` between two in-process
    NodeStores; the synchronous twin of the wire shipper in
    :mod:`repro.cluster.node`, crossing the same ``repl.node.*``
    failpoints so the crash-consistency sweep can break the replication
    pipeline at every step. Unlike :func:`migrate_local` the stream
    stays attached after seeding; the returned callable detaches it.

    In-process shipping is synchronous by construction: the ship hook
    applies each commit group to the standby on the committing thread,
    so an acknowledged write is always on both copies — the invariant
    the sweep's failover oracle checks. Callers must not write the
    shard from *other* threads while the seeding scan runs (the sweep
    and tests are single-threaded); the wire shipper orders concurrent
    writers through one buffered stream instead.
    """
    dest.replica_sync_begin(shard, source.map)
    if dest.map.epoch > source.map.epoch:
        source.install_map(dest.map)

    def ship(entries: List[Entry]) -> None:
        dest.replica_apply(
            shard, entries_to_batch_ops(entries, context="replication")
        )

    source.attach_replication(shard, ship)
    try:
        after: Optional[str] = None
        while True:
            pairs = source.migration_snapshot_chunk(shard, after, chunk)
            if pairs:
                dest.replica_apply(
                    shard, [("put", key, value) for key, value in pairs]
                )
                after = pairs[-1][0]
            if len(pairs) < chunk:
                break
        dest.replica_mark_seeded(shard)
    except BaseException:
        if not source._closed:
            source.detach_replication(shard)
        raise

    def detach() -> None:
        if not source._closed:
            source.detach_replication(shard)

    return detach
