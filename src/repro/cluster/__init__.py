"""Multi-node distributed serving: epoch'd cluster map, MOVED redirects,
and live shard migration.

The cluster layer scales the serving story past one Python process by
partitioning the key space across N :class:`~repro.server.KVServer`
processes, Nova-LSM-style. Four pieces, smallest first:

* :class:`ClusterMap` — the epoch-versioned shard → node assignment
  every participant routes by (``cluster.json``);
* :class:`NodeStore` — one node's engine: a
  :class:`~repro.shard.ShardedStore` forest over exactly its assigned
  shards, ``MOVED`` for everything else, plus the migration primitives;
* :class:`ClusterNode` — one ``KVServer`` with the cluster verbs
  (``CLUSTER``, ``MIGRATE``, ``MIG.*``, ``REPL.*``) in its verb table,
  over the same wire protocol;
* :class:`ClusterClient` — map-driven routing with MOVED-redirect
  chasing and one pooled connection per node.

:func:`migrate_shard` is *the* migration driver — the synchronous
function that serves ``MIGRATE`` (against a wire peer), that the tests
call and that the crash-consistency sweep crashes at every crossing
(both against a second in-process :class:`NodeStore`).
:func:`replicate_local` is the small in-process twin of the long-lived
cross-node replication shipper, and :func:`promote_local` the one
promotion sequence; the same sweep and
:class:`~repro.replication.ReplicatedStore` build on both.
:func:`local_cluster` is *the* in-process bootstrap — two nodes on real
sockets, port 0 resolved into an epoch-1 map, optional per-link fault
proxies, standbys seeded, everything torn down on exit — that the wire
tests, the sweep's partition runs and the e27–e29 benchmarks all start
from; :func:`wait_until` is the poll they share.
:mod:`~repro.cluster.admin` is the control plane: join, rebalance and
status as coroutines over a :class:`ClusterClient`.
"""

from . import admin
from .client import ClusterClient, ClusterError
from .local import local_cluster, wait_until
from .map import CLUSTER_MANIFEST, ClusterMap, NodeInfo
from .node import ClusterNode
from .store import (
    SNAPSHOT_CHUNK,
    NodeStore,
    migrate_shard,
    promote_local,
    replicate_local,
)

__all__ = [
    "CLUSTER_MANIFEST",
    "SNAPSHOT_CHUNK",
    "ClusterClient",
    "ClusterError",
    "ClusterMap",
    "ClusterNode",
    "NodeInfo",
    "NodeStore",
    "admin",
    "local_cluster",
    "migrate_shard",
    "promote_local",
    "replicate_local",
    "wait_until",
]
