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

Copying or moving a shard is one idea — scan the immutable state, then
tail the log — written once, in four parts:

1. **One inbound slot per shard** (:meth:`NodeStore.inbound_begin`): the
   tree a peer is filling — journaled, not serving — the *role* of the
   stream filling it, and whether it finished seeding. **The newest
   begin owns the slot**: whatever held it is killed *before* the
   directory is wiped, so a shard directory never has two open trees.
   Applies are **role-checked**, and a wire stream is bound to the slot
   its begin returned (:meth:`NodeStore.check_inbound`): a superseded
   stream's late batches are refused, never interleaved.
2. **One snapshot pager** (:meth:`NodeStore.snapshot_batches`): ``put``
   batches, each read from the live tree at the moment it is asked for.
3. **One migration driver** (:func:`migrate_shard`): begin → attach the
   migration tap (:meth:`~NodeStore.set_tap`) → ship each pager batch,
   then whatever the tap buffered meanwhile → :meth:`~NodeStore.fence`
   (writes answer ``BUSY``) → detach the tap → final tail → seal →
   release. Its destination is duck-typed: an in-process
   :class:`NodeStore` *is* a peer, and :mod:`repro.cluster.shipper`
   supplies one that speaks ``MIG.*`` — so the function the
   crash-consistency sweep crashes at every crossing is the function
   that serves ``MIGRATE``.
4. **Two endings.** A *migration* stream ends in
   :meth:`~NodeStore.migration_seal`: ownership transfers, the source
   releases and answers ``MOVED``. A *replica* stream stays a standby:
   once seeded it is kept warm by every WAL commit group its replica tap
   forwards (:meth:`~NodeStore.attach_replication`), and failover is a
   promotion (:meth:`~NodeStore.promote_shards`); a restarted old
   primary observes the newer map (:meth:`~NodeStore.adopt_map`) and
   demotes itself. Seal and promotion share one commit step — persist
   the bumped-epoch map, *then* serve; :func:`promote_local` is the one
   promotion sequence. The long-lived wire shipper lives in
   :mod:`repro.cluster.shipper`; :func:`replicate_local` is its small
   in-process twin.

A serving shard is **one record** (:class:`_ServingShard`): write lock,
fences and commit taps by role, born in ``_adopt`` and fenced for good
in ``_drop``; the tree's single WAL hook is its dispatcher.

One rule keeps the roles apart on the wire: a source opens no replica
session for a shard it is migrating — its ``REPL.SYNC`` would supersede
the migration on the destination (``_ShardShipper`` in
:mod:`repro.cluster.shipper`).

Correctness argument, in one paragraph: all data flows to the
destination over a single ordered channel, snapshot batches interleaved
with drained tail batches. A snapshot batch read at time *t* carries a
value at least as new as any tail group shipped before *t* (the pager
reads the live tree when advanced), and every tail group shipped after
it is a newer commit — so per key, the *last arrival wins* and applying
everything in arrival order (duplicates included, applies are
last-write-wins) reproduces the source's latest state. The fence flips
under the record's write lock, so the final drain is complete: every
admitted write has fired the tap, every later one (even one holding a
dropped record's lock) is refused. The destination seals *before* the
source releases; a crash between the two leaves both nodes claiming the
shard on disk, and the bumped epoch — higher wins — arbitrates to
exactly one owner, with both claimants holding every acknowledged write.
The slot rules are what make the channel single: one slot per shard,
one stream per slot.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..api import Snapshot, SnapshotLike
from ..core.config import LSMConfig
from ..core.entry import Entry, EntryKind
from ..core.merge_operator import MergeOperator
from ..core.stats import TreeStats
from ..core.tree import LSMTree
from ..errors import (
    ConfigError,
    MigrationUnresolvedError,
    ShardFencedError,
    ShardMovedError,
)
from ..faults.registry import fault_point
from ..shard.store import BatchOp, ShardedStore
from .map import ClusterMap

#: Upper bound for snapshot pagination: ``scan(after, _MAX_KEY)`` reads
#: "the rest" of a shard. :meth:`NodeStore.write_batch` *enforces* that
#: every accepted key sorts strictly below this bound, so the exclusive
#: upper bound is a real invariant — an acked key can never be silently
#: excluded from (and lost by) a migration snapshot.
_MAX_KEY = "\U0010ffff" * 8

#: Key/value pairs per batch of the snapshot pager.
SNAPSHOT_CHUNK = 256

#: The two roles of an inbound stream — what it ends in. A *migration*
#: ends in a seal (ownership transfers); a *replica* stays a standby,
#: promotable once seeded. Per role: the failpoint its begin crosses and
#: the refusal a stream gets when the slot is not (or no longer) its own.
MIGRATION = "migration"
REPLICA = "replica"
_BEGIN_FAILPOINT = {MIGRATION: "cluster.migrate.begin", REPLICA: "repl.node.sync"}
_REFUSAL = {
    MIGRATION: "no migration in progress for shard {shard} on {node}",
    REPLICA: "node {node} holds no replica stream for shard {shard}",
}

#: A commit tap: called with each acknowledged WAL commit group.
CommitTap = Callable[[List[Entry]], None]


def entries_to_batch_ops(
    entries: Sequence[Entry], *, context: str = "replication"
) -> List[BatchOp]:
    """Convert committed WAL entries into wire-shippable batch ops.

    The lingua franca between a WAL commit hook and any remote applier
    (a replica or a migration destination): put/delete survive the
    translation losslessly, while merge and range-delete entries are
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


@dataclass
class _Inbound:
    """One shard's inbound slot: the tree a peer is filling (journaled
    in the ``shard-NN/`` directory a serving tree would use, so adopting
    it needs no data move), the role of the stream filling it, and
    whether a replica stream completed its seed *in this process
    lifetime* — only those are promotable, so a stale directory (a
    crashed replica, a demoted primary awaiting reseed) can never be
    promoted over writes it missed."""

    tree: LSMTree
    role: str
    seeded: bool = False


@dataclass(eq=False)
class _ServingShard:
    """One serving shard's state, created on adopt and retired on drop.

    The fence check and the commit it guards run under ``lock``, and
    both fences flip under it. ``fenced`` (the migration fence) stays set
    once the record is dropped; ``taps`` are keyed by stream role.
    """

    shard: int
    scope: str
    lock: threading.Lock = field(default_factory=threading.Lock)
    fenced: bool = False
    repl_fenced: bool = False
    taps: Dict[str, CommitTap] = field(default_factory=dict)

    def check_unfenced(self) -> None:
        if self.fenced or self.repl_fenced:
            raise ShardFencedError(self.shard)

    def on_commit(self, entries: List[Entry]) -> None:
        """The tree's single WAL hook: the migration tap first, then the
        replica ship behind its failpoint."""
        migration = self.taps.get(MIGRATION)
        if migration is not None:
            migration(entries)
        ship = self.taps.get(REPLICA)
        if ship is not None:
            fault_point("repl.node.ship", scope=self.scope)
            ship(entries)

    def install(self, tree: LSMTree) -> None:
        """(Re)install the hook, or clear it when untapped; the setter's
        write mutex orders every in-flight commit against the change."""
        tree.set_wal_commit_hook(self.on_commit if self.taps else None)


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
            migration* refuses merge entries; see
            :func:`entries_to_batch_ops`).
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
        #: One record per serving shard. Lock order, on every path:
        #: write locks (ascending shard index) → the forest's transaction
        #: lock; :meth:`snapshot` takes only the latter, :meth:`fence`
        #: and :meth:`repl_fence` only a write lock.
        self._serving: Dict[int, _ServingShard] = {
            shard: _ServingShard(shard, self._scope(shard))
            for shard in self.trees
        }
        #: Trees a peer is filling (not serving): one slot per shard,
        #: whatever the stream's role — see :meth:`inbound_begin`.
        self._inbound: Dict[int, _Inbound] = {}
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

    def _record(self, shard: int) -> _ServingShard:
        """``shard``'s record; MOVED when it lives elsewhere, BUSY in the
        instant between a tree's adoption or drop and its record's."""
        self._owned_tree(shard)
        record = self._serving.get(shard)
        if record is None:
            raise ShardFencedError(shard)
        return record

    def _adopt(self, shard: int, tree: LSMTree) -> None:
        """Start serving a warm ``tree`` as ``shard`` (seal, promote):
        healthy slot in the forest, then a fresh record — new write
        lock, no fences, no taps."""
        self._forest._adopt_slot(shard, tree)
        self._serving[shard] = _ServingShard(shard, self._scope(shard))

    def _drop(self, shard: int) -> None:
        """Stop serving ``shard`` (release, demote) and close its tree.
        Its record, taps included, is fenced for good and removed: a
        racing write — even one holding the record's lock — answers
        FencedError (→ BUSY; its retry gets MOVED) instead of committing
        to the closed tree. A tree whose background workers died is
        killed, not closed: its close would only re-raise their failure,
        and its WAL already holds every acknowledged group."""
        self._serving.pop(shard).fenced = True
        tree = self._forest._drop_slot(shard)
        if tree.background_error() is not None:
            tree.kill()
        else:
            tree.close()

    # -- KVStore operations: a guard, then the forest -------------------------

    def put(self, key: str, value: str) -> None:
        self.write_batch([("put", key, value)])

    def delete(self, key: str) -> None:
        self.write_batch([("delete", key, None)])

    def get(
        self, key: str, at: Optional[SnapshotLike] = None
    ) -> Optional[str]:
        """Point lookup in an owned shard; MOVED when it lives elsewhere.
        Without ``at=`` it never waits — :meth:`scan` gives the lock
        argument both rely on."""
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
        involved shards' records are fence-checked again under their
        write locks, held through the commit, so :meth:`fence` returning
        still means every admitted write has fully committed. A batch
        spanning *nodes* is the cluster client's job to split — each node
        only ever coordinates its own shards.
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
        records = [self._record(shard) for shard in involved]
        for record in records:
            record.check_unfenced()
        with ExitStack() as held:
            for record in records:  # ascending shard order: no deadlock
                held.enter_context(record.lock)
            for record in records:
                record.check_unfenced()
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

        Without ``at=`` it never waits (the
        :meth:`KVStore.scan <repro.api.KVStore.scan>` rule), so the
        node's server may answer it on its event loop, as it answers
        :meth:`get`. The argument is the same for both: they take only
        locks that are held for a few statements (the forest's health
        lock; each tree's manifest, memtable, block-cache and disk
        locks). The locks a thread holds across a network round trip
        are never taken. A committing writer holds its shard's record
        lock and tree write mutex — and a 2PC coordinator the forest's
        transaction lock — while the sync ship hook waits for the
        standby's ack on the stream's socket; only writes, ``snapshot``
        and ``at=`` reads take those. The migration driver, which calls
        a :class:`~repro.cluster.shipper._WirePeer` from a thread, holds
        no lock across its ``MIG.*`` calls: :meth:`fence` and
        :meth:`set_tap` take theirs between calls.
        """
        return self._forest.scan(
            lo, hi, limit, at=at, allow_partial=allow_partial
        )

    # -- the inbound slot: a peer fills a tree for a shard --------------------

    def inbound_begin(
        self,
        shard: int,
        role: str,
        source_map: Optional[ClusterMap] = None,
    ) -> _Inbound:
        """Wipe ``shard``'s directory and open a fresh tree over it for a
        peer's ``role`` stream to fill; returns the new slot, which the
        stream binds to (:meth:`check_inbound`).

        **The newest begin owns the slot.** Whatever held it — an
        abandoned attempt of the same role, a standby superseded because
        the shard is migrating onto its own replica node, a migration
        superseded by the primary's next reseed — is killed *before*
        the wipe, so a shard directory never has two open trees, and
        the role check refuses the superseded stream from then on.
        Always starting from empty is what makes re-shipping after a
        failure safe, and what lets a standby of unknown freshness
        converge on the primary's exact state.

        A replica begin (``REPL.SYNC``) first adopts a newer
        ``source_map`` (:meth:`adopt_map`) — for a rejoining old primary
        this is precisely the demotion step: the new primary's first
        ``REPL.SYNC`` carries the promotion map — and the map must then
        name this node the shard's replica.
        """
        self._check_open()
        if source_map is not None:
            self.adopt_map(source_map)
        with self._transition_lock:
            if shard in self.trees:
                raise ConfigError(
                    f"node {self.node_id} serves shard {shard}; it "
                    f"cannot also receive its {role} stream"
                )
            if role == REPLICA and (
                self.map.replica_id(shard) != self.node_id
            ):
                raise ConfigError(
                    f"map (epoch {self.map.epoch}) does not name "
                    f"{self.node_id!r} the replica of shard {shard}"
                )
            superseded = self._inbound.pop(shard, None)
            if superseded is not None:
                superseded.tree.kill()
            path = self._forest.shard_dir(shard)
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path, exist_ok=True)
            fault_point(_BEGIN_FAILPOINT[role], scope=self._scope(shard))
            slot = _Inbound(self._forest._open_tree(shard), role)
            self._inbound[shard] = slot
        return slot

    def check_inbound(self, shard: int, slot: _Inbound) -> None:
        """Refuse a stream whose begin no longer owns ``shard``'s slot: a
        newer begin superseded it (whatever either stream's role), or the
        slot was sealed, promoted or dropped. Its late batches must never
        reach a newer slot's tree."""
        if self._inbound.get(shard) is not slot:
            raise ConfigError(
                f"the {slot.role} stream for shard {shard} on "
                f"{self.node_id} was superseded"
            )

    def _inbound_slot(self, shard: int, role: str) -> _Inbound:
        """``shard``'s slot when a ``role`` stream owns it; refused
        otherwise (never begun, or superseded by a newer begin)."""
        slot = self._inbound.get(shard)
        if slot is None or slot.role != role:
            raise ConfigError(
                _REFUSAL[role].format(shard=shard, node=self.node_id)
            )
        return slot

    def _inbound_shards(self, role: str, seeded: bool = False) -> List[int]:
        return sorted(
            shard
            for shard, slot in list(self._inbound.items())
            if slot.role == role and (slot.seeded or not seeded)
        )

    def _inbound_apply(
        self, shard: int, role: str, ops: Sequence[BatchOp]
    ) -> None:
        """Apply one shipped batch to the slot's tree, journaled as one
        group so the tree's own recovery preserves its atomicity.
        Role-checked here; a wire stream also checks its binding first
        (:meth:`check_inbound`), so a superseded stream's late batches
        are refused, never interleaved — two channels into one tree
        would break the single-ordered-channel argument."""
        self._check_open()
        slot = self._inbound_slot(shard, role)
        if ops:
            if role == REPLICA:
                fault_point("repl.node.apply", scope=self._scope(shard))
            slot.tree.write_batch(list(ops))

    def migration_apply(self, shard: int, ops: Sequence[BatchOp]) -> None:
        """Apply one migration batch (snapshot batch or tail drain)."""
        self._inbound_apply(shard, MIGRATION, ops)

    def replica_apply(self, shard: int, ops: Sequence[BatchOp]) -> None:
        """Apply one replica batch (seed batch or live commit group)."""
        self._inbound_apply(shard, REPLICA, ops)

    def _take_ownership(
        self,
        shards: Sequence[int],
        new_map: ClusterMap,
        what: str,
        failpoint: str,
        scope: str,
    ) -> None:
        """The commit step a seal and a promotion share (under the
        transition lock, own preconditions already checked): the map is
        persisted *before* any tree starts serving, so after any crash
        the freshest on-disk epoch names exactly one writable owner per
        shard and agrees with the shard data (the slot tree's WAL,
        already durable in the shard directory)."""
        if new_map.epoch <= self.map.epoch:
            raise ConfigError(
                f"{what} map epoch {new_map.epoch} is not newer than "
                f"current epoch {self.map.epoch}"
            )
        for shard in shards:
            if new_map.owner_id(shard) != self.node_id:
                raise ConfigError(
                    f"{what} map assigns shard {shard} to "
                    f"{new_map.owner_id(shard)!r}, not {self.node_id!r}"
                )
        fault_point(failpoint, scope=scope)
        new_map.save(self._wal_dir)
        self.map = new_map
        for shard in shards:
            self._adopt(shard, self._inbound.pop(shard).tree)

    def migration_seal(self, shard: int, new_map: ClusterMap) -> ClusterMap:
        """Atomically adopt the warmed shard under the bumped-epoch map;
        returns the map the source should release under.

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
                return self.map  # duplicate seal; the first copy took effect
            self._inbound_slot(shard, MIGRATION)
            self._take_ownership(
                [shard], new_map, "seal", "cluster.migrate.seal", self._scope(shard)
            )
            return new_map

    # -- commit taps (migration and replica streams) -------------------------

    def set_tap(self, shard: int, role: str, tap: Optional[CommitTap]) -> None:
        """Attach ``tap`` as ``shard``'s ``role`` commit tap, or detach it
        (``tap=None``; idempotent); MOVED when the shard lives elsewhere.

        Taps fire on the committing thread, under the tree's write
        mutex, after the group's WAL sync, with exactly the acknowledged
        entries. Installing the hook takes that mutex: every group
        committed after an attach returns is tapped, and no detached tap
        fires after a detach returns.
        """
        self._check_open()
        with self._transition_lock:
            tree = self._owned_tree(shard)
            record = self._serving[shard]
            if tap is None:
                record.taps.pop(role, None)
            elif role in record.taps:
                raise ConfigError(
                    f"shard {shard} already ships a {role} stream off "
                    f"{self.node_id}"
                )
            else:
                record.taps[role] = tap
            record.install(tree)

    def attach_replication(self, shard: int, ship: CommitTap) -> None:
        """Forward ``shard``'s committed WAL groups to ``ship``, its
        replica tap. A synchronous (blocking) ship gives
        sync-replication semantics: the client's ack implies the replica
        saw the group."""
        self.set_tap(shard, REPLICA, ship)

    def detach_replication(self, shard: int) -> None:
        """Stop forwarding ``shard``'s commits. Idempotent, also once the
        shard is no longer served here (its taps died with its record)."""
        try:
            self.set_tap(shard, REPLICA, None)
        except ShardMovedError:
            pass

    # -- migration primitives: source side ------------------------------------

    def snapshot_batches(
        self, shard: int, chunk: int = SNAPSHOT_CHUNK
    ) -> Iterator[List[BatchOp]]:
        """The snapshot pager: ``shard``'s live pairs, in key order, as
        ``put`` batches of up to ``chunk``.

        Each batch is read from the live tree *when the generator is
        advanced*, never ahead of time — so a shipper that sends each
        batch as soon as it has it, and its buffered tail between
        batches, keeps the last-arrival-wins argument (a batch read
        early and sent after newer tail groups would overwrite them).
        """
        lo = ""
        while True:
            self._check_open()
            self._owned_tree(shard)
            pairs = self._forest._shard_op(
                shard, lambda tree: tree.scan(lo, _MAX_KEY, chunk)
            )
            if pairs:
                yield [("put", key, value) for key, value in pairs]
            if len(pairs) < chunk:
                return
            lo = pairs[-1][0] + "\x00"

    def fence(self, shard: int) -> None:
        """Refuse new writes to ``shard`` (``ShardFencedError`` → BUSY).

        Setting the flag under the shard's write lock is the handoff's
        linearization point: acquiring the lock waits out any write that
        already passed its fence check, so when this returns, every
        acknowledged write has committed (and fired the attached taps)
        and every later write raises.
        """
        self._check_open()
        record = self._record(shard)
        fault_point("cluster.migrate.fence", scope=self._scope(shard))
        with record.lock:
            record.fenced = True

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
        record = self._serving.get(shard)
        if record is None or record.repl_fenced:
            return False
        fault_point("repl.node.fence", scope=self._scope(shard))
        with record.lock:
            record.repl_fenced = True
        return True

    def repl_unfence(self, shard: int) -> bool:
        """Lift a self-fence (standby contact re-established at a
        compatible epoch); returns whether the flag was set."""
        self._check_open()
        record = self._serving.get(shard)
        if record is None or not record.repl_fenced:
            return False
        record.repl_fenced = False
        return True

    def repl_fenced_shards(self) -> List[int]:
        """Shards currently self-fenced by the replication layer."""
        return sorted(s for s, rec in list(self._serving.items()) if rec.repl_fenced)

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
        detach the migration tap, lift the fence, keep serving (and keep
        shipping, when the shard is replicated). A dropped record stays
        fenced: the shard is no longer this node's to serve."""
        with self._transition_lock:
            record = self._serving.get(shard)
            if record is None:
                return
            record.fenced = False
            if record.taps.pop(MIGRATION, None) is not None:
                record.install(self.trees[shard])

    def migrating_shards(self) -> List[int]:
        """Shards with an attached migration tap (source side)."""
        serving = list(self._serving.items())
        return sorted(s for s, rec in serving if MIGRATION in rec.taps)

    # -- cross-node replication: standby side ----------------------------------

    def replica_shards(self) -> List[int]:
        """Shards this node holds a warm standby tree for, ascending."""
        return self._inbound_shards(REPLICA)

    def replica_mark_seeded(self, shard: int) -> None:
        """Record that ``shard``'s standby caught up with the primary's
        snapshot: it is promotable from now on. Sent by the primary once
        the seeding scan completes (``REPL.SEEDED`` on the wire)."""
        self._check_open()
        with self._transition_lock:
            self._inbound_slot(shard, REPLICA).seeded = True

    def promotable_shards(self) -> List[int]:
        """Standby shards eligible for promotion: seeded in this process
        lifetime, so they missed no acknowledged write."""
        return self._inbound_shards(REPLICA, seeded=True)

    def promote_shards(
        self, shards: Sequence[int], new_map: ClusterMap
    ) -> None:
        """Adopt warm standby trees as serving under the failover map.

        The promotion's commit point is persisting ``new_map`` (epoch
        bumped, this node now the primary of ``shards``), and the dead
        primary's claim is fenced by its stale epoch. Only seeded
        standbys (:meth:`promotable_shards`) are accepted: a stale
        directory might miss acknowledged writes.
        """
        self._check_open()
        if not shards:
            raise ConfigError("a promotion needs at least one shard")
        with self._transition_lock:
            for shard in shards:
                if not self._inbound_slot(shard, REPLICA).seeded:
                    raise ConfigError(
                        f"shard {shard}'s standby on {self.node_id} was "
                        "never seeded in this process lifetime; "
                        "refusing to promote a possibly stale copy"
                    )
            self._take_ownership(
                shards, new_map, "promotion", "repl.node.promote.seal", self.node_id
            )
            fault_point("repl.node.promote.done", scope=self.node_id)

    def adopt_map(self, new_map: ClusterMap) -> bool:
        """Install a newer map — the one way a map learned from outside
        (a ``CLUSTER`` push, gossip, a peer's reply, a bootstrap) enters
        this node; returns whether anything changed.

        An epoch not newer than ours is ignored. A membership-only
        change just installs. A shard the new map assigns to another
        node is *demoted* — our stale tree stops serving (later writes
        answer MOVED; racing ones are fenced) — which is exactly the
        safe-rejoin step for a restarted old primary observing the
        promotion epoch; the stale directory is kept until the new
        primary's ``REPL.SYNC`` wipes and reseeds it. A map that would
        *grant* us shards is rejected: ownership is gained only through
        a migration seal or a promotion, never a push. Every demotion
        and standby drop runs before a failure in one of them surfaces:
        a half-applied demotion would leave a lost shard serving stale
        data.
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
            failure: Optional[Exception] = None
            for shard in lost:
                try:
                    self._drop(shard)
                except Exception as exc:
                    failure = failure or exc
            # Standbys for shards we no longer replicate are dropped.
            for shard in self._inbound_shards(REPLICA):
                if new_map.replica_id(shard) != self.node_id:
                    self._inbound.pop(shard).tree.close()
            if failure is not None:
                raise failure
            return True

    # -- lifecycle ------------------------------------------------------------

    def flush(self) -> None:
        self._forest.flush()

    def _kill_warm_trees(self) -> None:
        # Never served, nothing promised: the next begin starts over.
        for slot in list(self._inbound.values()):
            slot.tree.kill()

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
        inbound stream (re-wiped by the next :meth:`inbound_begin`) or
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
            receiving_shards=self._inbound_shards(MIGRATION),
            replica_shards=self.replica_shards(),
            replica_fresh=self.promotable_shards(),
        )
        return payload

    def shard_summary(self) -> List[Dict[str, object]]:
        return self._forest.shard_summary()

    def total_disk_bytes(self) -> int:
        return self._forest.total_disk_bytes()


def migrate_shard(
    source: NodeStore,
    dest,
    shard: int,
    *,
    chunk: int = SNAPSHOT_CHUNK,
    during: Optional[Callable[[], None]] = None,
) -> Dict[str, object]:
    """*The* migration driver: move ``shard`` from ``source`` to ``dest``.

    Synchronous, and the only function that fences a shard or seals a
    migration: ``MIGRATE`` runs it on a thread against a wire peer; the
    tests and the crash-consistency sweep run it — and crash it at every
    crossing — against a second :class:`NodeStore`. ``dest`` is
    duck-typed: ``node_id``, ``map`` (current after the begin),
    ``inbound_begin``, ``migration_apply``, and ``migration_seal``
    returning the map to release under.

    A :class:`~repro.errors.MigrationUnresolvedError` out of the seal
    (wire only: the destination went dark at the seal instant) leaves
    the shard *fenced* — neither releasing nor aborting is provably
    safe; any other failure aborts and the source keeps serving.
    ``during`` (tests/sweep only) runs source-side writes after the
    snapshot but before the fence, forcing data through the tail.
    """
    dest.inbound_begin(shard, MIGRATION)
    if dest.map.epoch > source.map.epoch:
        # The destination's map is newer (it took part in migrations we
        # missed; every change to *our* shards goes through us, so it
        # can only differ in other nodes' placements — installable).
        # Adopt it so the flip epoch exceeds both maps.
        source.adopt_map(dest.map)
    tail: deque[BatchOp] = deque()  # the migration tap's FIFO

    def tap(entries: List[Entry]) -> None:
        tail.extend(entries_to_batch_ops(entries, context="live migration"))

    source.set_tap(shard, MIGRATION, tap)
    scope = source._scope(shard)
    snapshot_pairs = tail_ops = 0

    def ship_tail() -> None:
        nonlocal tail_ops
        drained = [tail.popleft() for _ in range(len(tail))]  # commit order
        tail_ops += len(drained)
        if drained:
            fault_point("cluster.migrate.tail", scope=scope)
            dest.migration_apply(shard, drained)

    try:
        for batch in source.snapshot_batches(shard, chunk):
            fault_point("cluster.migrate.snapshot", scope=scope)
            dest.migration_apply(shard, batch)
            snapshot_pairs += len(batch)
            ship_tail()  # between batches, so the backlog never grows
        if during is not None:
            during()
        fence_started = time.monotonic()
        source.fence(shard)
        source.set_tap(shard, MIGRATION, None)
        ship_tail()
        flip_map = dest.migration_seal(
            shard, source.map.with_assignment(shard, dest.node_id)
        )
        source.release_shard(shard, flip_map)
    except MigrationUnresolvedError:
        raise
    except BaseException:
        # InjectedCrash included: only clean up when the source still
        # runs (abort is a no-op post-release).
        if not source._closed and shard in source.trees:
            source.abort_migration(shard)
        raise
    return migration_stats(
        source,
        shard,
        dest.node_id,
        snapshot_pairs=snapshot_pairs,
        tail_ops=tail_ops,
        fence_ms=(time.monotonic() - fence_started) * 1000.0,
    )


def migration_stats(
    source: NodeStore, shard: int, dest_id: str, **moved: object
) -> Dict[str, object]:
    """What ``MIGRATE`` answers, built after the release (``epoch`` is
    the flip's). Without ``moved`` counts it reports a move that shipped
    nothing: an earlier flip found sealed."""
    return {
        "shard": shard,
        "from": source.node_id,
        "to": dest_id,
        "epoch": source.map.epoch,
        "snapshot_pairs": 0,
        "tail_ops": 0,
        "fence_ms": 0.0,
        **moved,
    }


def replicate_local(
    source: NodeStore,
    dest: NodeStore,
    shard: int,
    *,
    chunk: int = SNAPSHOT_CHUNK,
    ship: Optional[CommitTap] = None,
) -> Callable[[], None]:
    """Seed and then continuously ship ``shard`` between two in-process
    NodeStores; returns the callable that detaches the stream.

    A replica stream never ends, so there is no synchronous driver to
    share as :func:`migrate_shard` is: the wire shipper
    (``_ShardShipper`` in :mod:`repro.cluster.shipper`) is a long-lived
    session thread that buffers live groups while it seeds, and this is
    its small in-process twin — same begin, same pager loop, same
    ``repl.node.*`` failpoints — for the crash-consistency sweep and
    :class:`~repro.replication.ReplicatedStore`.

    ``ship`` is the step each live commit group takes to the standby,
    called on the committing thread; it must end in
    ``dest.replica_apply(shard, entries_to_batch_ops(entries))``. The
    default takes that step inline, so an acknowledged write is always
    on both copies — the invariant the sweep's failover oracle checks.
    Callers must not write the shard from *other* threads while the
    seeding scan runs (the sweep and tests are single-threaded, a
    replicated store seeds before it serves); the wire shipper orders
    concurrent writers through one buffered stream instead.
    """
    dest.inbound_begin(shard, REPLICA, source.map)
    if dest.map.epoch > source.map.epoch:
        source.adopt_map(dest.map)

    def apply(entries: List[Entry]) -> None:
        dest.replica_apply(
            shard, entries_to_batch_ops(entries, context="replication")
        )

    def detach() -> None:
        if not source._closed:
            source.detach_replication(shard)

    source.attach_replication(shard, ship or apply)
    try:
        for batch in source.snapshot_batches(shard, chunk):
            dest.replica_apply(shard, batch)
        dest.replica_mark_seeded(shard)
    except BaseException:
        detach()
        raise
    return detach


def promote_local(
    standby: NodeStore,
    shards: Sequence[int],
    primary: Optional[NodeStore] = None,
) -> ClusterMap:
    """Fail ``shards`` over onto ``standby``; returns the failover map.

    The one promotion sequence — a live node's lease expiry
    (``ClusterNode._promote_from``), the sweep and
    :class:`~repro.replication.ReplicatedStore` all run it: one epoch
    bump for every shard (:meth:`ClusterMap.with_failover`), then the
    commit step (:meth:`NodeStore.promote_shards`). An in-process old
    ``primary`` then adopts the map and demotes itself; a remote or dead
    one learns it from the map broadcast or when it rejoins.
    """
    fault_point("repl.node.promote.start", scope=standby.node_id)
    new_map = standby.map.with_failover(shards, standby.node_id)
    standby.promote_shards(shards, new_map)
    if primary is not None:
        primary.adopt_map(new_map)
    return new_map
