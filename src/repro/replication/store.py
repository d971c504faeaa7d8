"""Per-shard primary→standby replication with automatic failover.

Quarantine alone leaves a dead shard's keys dark (bench_e24: 0.75
post-kill write availability at 4 shards). :class:`ReplicatedStore`
closes that gap in one process with the cluster's replication model:
two in-process :class:`~repro.cluster.NodeStore` nodes, ``primary`` and
``replica``, under one :class:`~repro.cluster.ClusterMap` naming the
primary the owner and the replica the standby of every shard.
:func:`~repro.cluster.replicate_local` joins each shard (seed, commit
tap, :meth:`~repro.cluster.NodeStore.replica_apply`); the modes differ
only in the ship step — ``"sync"`` applies each commit group inline on
the committing thread, ``"async"`` hands it to the shard's applier and
tracks the acked / applied watermarks. A quarantined shard (its
background workers died) fails over through
:func:`~repro.cluster.promote_local`, the cluster's own promotion; a
standby whose apply fails drops its shard to primary-only service
(``"replica-lost"``, raising :class:`~repro.errors.ReplicationError`
once in sync mode). Both sides are node directories, so a restart
routes by the freshest persisted map and reseeds every standby.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from heapq import merge as heap_merge
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..api import PartialScanResult, Snapshot, SnapshotLike
from ..cluster.map import CLUSTER_MANIFEST, ClusterMap, NodeInfo
from ..cluster.store import (
    NodeStore,
    entries_to_batch_ops,
    promote_local,
    replicate_local,
)
from ..core.config import LSMConfig
from ..core.entry import Entry
from ..core.merge_operator import MergeOperator
from ..core.stats import TreeStats
from ..core.tree import LSMTree
from ..errors import (
    ClosedError,
    ConfigError,
    ReplicationError,
    ShardFencedError,
    ShardMovedError,
    ShardUnavailableError,
)
from ..shard.store import BatchOp

_T = TypeVar("_T")
_Group = Tuple[List[Entry], List[BatchOp], int]

#: ``sync`` acks after replica-WAL durability, ``async`` after local
#: durability, with the replica lagging.
MODES = ("sync", "async")

#: The two node ids, which are also their sub-directories of ``wal_dir``.
PRIMARY_DIR = "primary"
REPLICA_DIR = "replica"

#: Async mode's lag bound, in records: shippers block (backpressure)
#: while this many acked records are unapplied — the most a crash loses.
QUEUE_CAPACITY = 1024

#: Per-shard replication states beyond the configured mode.
PROMOTED = "promoted"
REPLICA_LOST = "replica-lost"


class _Link:
    """One shard's stream: the ship step handed to
    :func:`~repro.cluster.replicate_local` (run on the committing
    thread), its watermarks, and in async mode the applier — the one
    thread this module starts."""

    def __init__(self, shard: int, standby: NodeStore, *, sync: bool) -> None:
        self.shard = shard
        self.standby = standby
        self.state = "sync" if sync else "async"  # → PROMOTED / REPLICA_LOST
        self.acked_seqno = self.applied_seqno = -1
        self.lag_records = self.lag_bytes = 0
        self._cond = threading.Condition()
        self._queue: Deque[_Group] = deque()
        self._stopped = False
        self._thread: Optional[threading.Thread] = None
        if not sync:
            self._thread = threading.Thread(
                target=self._run, name=f"repl-{shard:02d}", daemon=True
            )
            self._thread.start()

    def ship(self, entries: List[Entry]) -> None:
        if self.state == REPLICA_LOST:
            return
        ops = entries_to_batch_ops(entries, context="replication")
        group = (entries, ops, sum(entry.size for entry in entries))
        with self._cond:
            while self.lag_records >= QUEUE_CAPACITY and not (
                self._stopped or self.state == REPLICA_LOST
            ):
                self._cond.wait()
            self.lag_records += len(entries)
            self.lag_bytes += group[2]
            self.acked_seqno = entries[-1].seqno
            if self._thread is not None:
                if not self._stopped:
                    self._queue.append(group)
                    self._cond.notify_all()
                return
        try:
            self._apply(group)
        except Exception as exc:
            self._lose()
            raise ReplicationError(
                f"shard {self.shard} replica apply failed"
            ) from exc

    def _apply(self, group: _Group) -> None:
        entries, ops, size = group
        self.standby.replica_apply(self.shard, ops)
        with self._cond:
            self.lag_records -= len(entries)
            self.lag_bytes -= size
            self.applied_seqno = entries[-1].seqno
            self._cond.notify_all()

    def _lose(self) -> None:
        with self._cond:
            self.state = REPLICA_LOST
            self._queue.clear()
            self._cond.notify_all()  # no shipper waits on a dead applier

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait()
                if not self._queue:
                    return  # stopped and drained
                group = self._queue.popleft()
            try:
                self._apply(group)
            except BaseException:  # noqa: BLE001 — an injected crash too
                self._lose()
                return

    def stop(self, *, drain: bool) -> None:
        """Stop the applier, applying what is queued first if ``drain``."""
        with self._cond:
            self._stopped = True
            if not drain:
                self._queue.clear()
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def summary(self) -> Dict[str, object]:
        names = ("shard", "state", "lag_records", "lag_bytes",
                 "acked_seqno", "applied_seqno")
        return {name: getattr(self, name) for name in names}


class ReplicatedStore:
    """A sharded store whose every shard has a warm standby.

    ``wal_dir/primary`` and ``wal_dir/replica`` are node directories
    (``cluster.json`` plus ``shard-NN/``); each operation goes to its
    shard's owner (a batch, to its first key's). Two rules arise only
    after a promotion, when both nodes serve: a batch is atomic per
    node, so the node's own ownership check refuses one spanning both
    (:class:`~repro.errors.ShardMovedError`, nothing applied); scans
    merge the nodes' sorted slices and snapshots join their per-node
    tokens, as :class:`~repro.cluster.ClusterClient` does.

    Args:
        num_shards / config / routing / boundaries / merge_operator:
            As for :class:`~repro.shard.ShardedStore` (merge entries do
            not ship).
        wal_dir: Required (replication ships durable logs).
        mode: ``"sync"`` (default) or ``"async"``; see :data:`MODES`.
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
        if not _recover:
            bootstrap = _bootstrap_map(wal_dir, num_shards, routing, boundaries)
        self.mode = mode
        self.promotions = 0  #: completed failovers (``INFO``, ``HEALTH``)
        self._failover_lock = threading.RLock()
        self._closed = False
        self._nodes: Dict[str, NodeStore] = {}
        self._links: List[_Link] = []
        #: The tree each shard's standby stream fills; it serves once
        #: that shard is promoted.
        self.replicas: List[LSMTree] = []
        try:
            for side in (REPLICA_DIR, PRIMARY_DIR):  # a primary map ⇒ both
                path = os.path.join(wal_dir, side)
                self._nodes[side] = NodeStore(
                    side,
                    ClusterMap.load(path) if _recover else bootstrap,
                    config,
                    wal_dir=path,
                    merge_operator=merge_operator,
                    _recover=_recover,
                )
            # A crash can cut a promotion between its two map saves: the
            # freshest map decides, and the other side adopts it.
            self._map = self._freshest_map()
            for node in self._nodes.values():
                node.adopt_map(self._map)
            for shard in range(self.num_shards):
                standby = self._nodes[self._map.replica_id(shard)]
                link = _Link(shard, standby, sync=mode == "sync")
                self._links.append(link)
                replicate_local(self._owner(shard), standby, shard, ship=link.ship)
                self.replicas.append(standby._inbound[shard].tree)
        except BaseException:
            self.kill()
            raise

    def _freshest_map(self) -> ClusterMap:
        return max((n.map for n in self._nodes.values()), key=lambda m: m.epoch)

    # -- routing -------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return self._map.num_shards

    def shard_index(self, key: str) -> int:
        return self._map.shard_index(key)

    @property
    def shards(self) -> Dict[int, LSMTree]:
        """The serving tree of every shard, whichever node serves it."""
        trees = {s: t for node in self._nodes.values() for s, t in node.trees.items()}
        return dict(sorted(trees.items()))

    def _owner(self, shard: int) -> NodeStore:
        return self._nodes[self._map.owner_id(shard)]

    def _serving(self) -> List[NodeStore]:
        return [node for node in self._nodes.values() if node.trees]

    def _shard_op(self, attempt: Callable[[], _T]) -> _T:
        """Run a routed ``attempt``, retrying it once after a failover.

        A quarantined shard is promoted first — what lifts post-kill
        availability from N−1/N to ~1 — and an attempt that raced a
        promotion (MOVED or fenced by the old owner) waits it out.
        """
        self._check_open()
        try:
            return attempt()
        except ShardUnavailableError as exc:
            if not self._failover(exc.shard):
                raise
        except (ShardMovedError, ShardFencedError):
            with self._failover_lock:
                pass  # the promotion that moved the shard has finished
        return attempt()

    # -- KVStore operations --------------------------------------------------

    def put(self, key: str, value: str) -> None:
        self.write_batch([("put", key, value)])

    def delete(self, key: str) -> None:
        self.write_batch([("delete", key, None)])

    def get(self, key: str, at: Optional[SnapshotLike] = None) -> Optional[str]:
        shard = self.shard_index(key)
        return self._shard_op(lambda: self._owner(shard).get(key, at))

    def write_batch(self, ops: Sequence[BatchOp]) -> None:
        if ops:
            shard = self.shard_index(ops[0][1])
            self._shard_op(lambda: self._owner(shard).write_batch(ops))

    def scan(
        self,
        lo: str,
        hi: str,
        limit: Optional[int] = None,
        *,
        at: Optional[SnapshotLike] = None,
        allow_partial: bool = False,
    ) -> List[Tuple[str, str]]:
        def attempt() -> List[Tuple[str, str]]:
            slices = [
                node.scan(lo, hi, limit, at=at, allow_partial=allow_partial)
                for node in self._serving()
            ]
            if len(slices) == 1:
                return slices[0]
            merged = list(heap_merge(*slices))[:limit]
            if not allow_partial:
                return merged
            skipped = [shard for s in slices for shard in s.skipped_shards]
            return PartialScanResult(merged, sorted(skipped))

        return self._shard_op(attempt)

    def snapshot(self) -> Snapshot:
        self._check_open()
        parts = [node.snapshot() for node in self._serving()]
        if len(parts) == 1:
            return parts[0]
        seqnos = {unit: seq for p in parts for unit, seq in p.seqnos.items()}
        return Snapshot(seqnos, release=lambda: [p.close() for p in parts])

    def flush(self) -> None:
        self._check_open()
        for node in self._nodes.values():
            node.flush()

    # -- failover ------------------------------------------------------------

    def promote(self, index: int, reason: str = "operator request") -> bool:
        """Promote shard ``index``'s standby to serving primary.

        Fences the old primary's writes to the shard, drains the
        applier, then runs :func:`~repro.cluster.promote_local`; a write
        the fence turned away retries on the standby, so this is safe on
        a healthy shard (planned failover). Returns whether this call
        promoted; raises :class:`~repro.errors.ReplicationError` when no
        standby is left.
        """
        self._check_open()
        if not 0 <= index < self.num_shards:
            raise ValueError(f"no shard {index}")
        with self._failover_lock:
            link, primary = self._links[index], self._owner(index)
            if link.state == PROMOTED:
                return False
            if link.state != REPLICA_LOST:
                # After the fence every write the primary admitted has
                # shipped (sync) or is queued; the drain applies those.
                primary.repl_fence(index)
                link.stop(drain=True)
            if link.state == REPLICA_LOST:  # before, or during the drain
                primary.repl_unfence(index)
                raise ReplicationError(
                    f"shard {index} has no replica to promote ({reason})"
                )
            try:
                promote_local(link.standby, [index], primary)
            finally:
                self._map = self._freshest_map()
            link.state = PROMOTED
            self.promotions += 1
            return True

    def _failover(self, shard: int) -> bool:
        """Promote a quarantined shard; whether it serves again."""
        with self._failover_lock:
            if shard not in self._owner(shard).quarantined_shards():
                return True  # a concurrent call promoted it
            if self._links[shard].state != self.mode:
                return False
            return self.promote(shard, reason="failover")

    def check_health(self) -> Dict[str, object]:
        """Health rollup after failing quarantined shards over, with a
        ``replication`` section."""
        self._check_open()
        for node in self._serving():
            for shard in node.check_health()["quarantined"]:
                self._failover(shard)
        rows = sorted(
            (r for n in self._serving() for r in n.check_health()["shards"]),
            key=lambda row: row["shard"],
        )
        quarantined = [r["shard"] for r in rows if r["state"] != "healthy"]
        state = "degraded" if quarantined else "healthy"
        return {
            "state": "failed" if len(quarantined) == len(rows) else state,
            "num_shards": self.num_shards,
            "quarantined": quarantined,
            "shards": rows,
            "replication": self.replication_summary(),
        }

    # -- introspection -------------------------------------------------------

    def replication_summary(self) -> Dict[str, object]:
        """Per-shard replication status for ``INFO`` and operators."""
        return {
            "mode": self.mode,
            "promotions": self.promotions,
            "shards": [link.summary() for link in self._links],
        }

    @property
    def stats(self) -> TreeStats:
        return TreeStats.merged([node.stats for node in self._serving()])

    def backpressure(self) -> Dict[str, object]:
        """The worst serving node's admission snapshot."""
        return max(
            (node.backpressure() for node in self._serving()),
            key=lambda payload: ("ok", "slowdown", "stop").index(payload["state"]),
        )

    def shard_summary(self) -> List[Dict[str, object]]:
        rows = [row for node in self._serving() for row in node.shard_summary()]
        return sorted(rows, key=lambda row: row["shard"])

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain the appliers, then close both nodes. Idempotent."""
        if self._closed:
            return
        self._closed = True
        for link in self._links:
            link.stop(drain=True)
        failure: Optional[BaseException] = None
        for node in self._nodes.values():
            try:
                node.close()
            except BaseException as exc:  # noqa: BLE001 — close both sides
                failure = failure or exc
        if failure is not None:
            raise failure

    def kill(self) -> None:
        """Crash-abandon both sides: no drains, nothing persisted."""
        if not self._closed:
            self._closed = True
            for node in self._nodes.values():
                node.kill()
            for link in self._links:
                link.stop(drain=False)

    def __enter__(self) -> "ReplicatedStore":
        return self

    def __exit__(self, *_exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("store is closed")

    @classmethod
    def recover(
        cls,
        config: Optional[LSMConfig],
        wal_dir: str,
        *,
        mode: str = "sync",
        merge_operator: Optional[MergeOperator] = None,
    ) -> "ReplicatedStore":
        """Recover both nodes from their directories, then reseed every
        standby. The freshest map decides ownership, so a write acked
        after a promotion is read back from the promoted side."""
        if not os.path.exists(os.path.join(wal_dir, PRIMARY_DIR, CLUSTER_MANIFEST)):
            raise ConfigError(
                f"no {PRIMARY_DIR}/{CLUSTER_MANIFEST} in {wal_dir}; not a "
                "replicated WAL directory"
            )
        return cls(
            config=config, mode=mode, wal_dir=wal_dir,
            merge_operator=merge_operator, _recover=True,
        )


def _bootstrap_map(
    wal_dir: str,
    num_shards: Optional[int],
    routing: str,
    boundaries: Optional[Sequence[str]],
) -> ClusterMap:
    """Epoch 1 — the primary owns every shard, the replica stands by —
    refused when ``wal_dir`` already records another sharding."""
    if num_shards is None:
        if boundaries is None:
            raise ValueError("num_shards must be at least 1")
        num_shards = len(boundaries) + 1
    cluster_map = ClusterMap(
        [PRIMARY_DIR] * num_shards,
        [NodeInfo(side, "127.0.0.1", 0) for side in (PRIMARY_DIR, REPLICA_DIR)],
        epoch=1,
        replicas=[REPLICA_DIR] * num_shards,
        routing=routing,
        boundaries=boundaries,
    )
    primary_dir = os.path.join(wal_dir, PRIMARY_DIR)
    if os.path.exists(os.path.join(primary_dir, CLUSTER_MANIFEST)):
        old = ClusterMap.load(primary_dir)
        if (old.num_shards, old.boundaries) != (num_shards, cluster_map.boundaries):
            raise ConfigError(
                f"{primary_dir} records a different sharding "
                f"({old.num_shards} shards, {old.routing} routing); recover "
                "with ReplicatedStore.recover or use a fresh directory"
            )
    return cluster_map
