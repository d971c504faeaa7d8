"""repro: a dissectable LSM-tree storage engine and design-space explorer.

A from-scratch reproduction of the system described in *Dissecting,
Designing, and Optimizing LSM-based Data Stores* (SIGMOD 2022 tutorial):
a complete LSM storage engine whose every design decision — buffer
implementation, disk data layout, compaction primitives, filter and cache
policies, memory allocation — is an explicit, swappable knob, together with
the analytic cost models and tuning tools to navigate that design space.

Quickstart::

    from repro import LSMTree, LSMConfig

    tree = LSMTree(LSMConfig(layout="leveling", size_ratio=4))
    tree.put("user1", "alice")
    tree.get("user1")        # -> 'alice'
    tree.scan("user0", "user9")
    tree.delete("user1")
    tree.write_amplification()
"""

from .api import BatchOp, KVStore, PartialScanResult, Snapshot
from .cluster import (
    ClusterClient,
    ClusterMap,
    ClusterNode,
    NodeInfo,
    NodeStore,
)
from .core.config import (
    LSMConfig,
    cassandra_like,
    dostoevsky_like,
    leveldb_like,
    rocksdb_like,
)
from .core.entry import Entry, EntryKind
from .core.merge_operator import (
    Int64AddOperator,
    MaxOperator,
    MergeOperator,
    StringAppendOperator,
)
from .core.range_tombstone import RangeTombstone
from .core.stats import TreeStats
from .core.tree import LSMTree
from .errors import (
    BackgroundError,
    ClosedError,
    CompactionError,
    ConfigError,
    CorruptionError,
    FilterError,
    ReproError,
    SnapshotExpiredError,
    TxnConflictError,
)
from .replication import ReplicatedStore
from .shard import ShardedStore, range_boundaries
from .storage.disk import DiskProfile, SimulatedDisk

__version__ = "1.2.0"

__all__ = [
    "KVStore",
    "BatchOp",
    "Snapshot",
    "PartialScanResult",
    "LSMTree",
    "ShardedStore",
    "ReplicatedStore",
    "range_boundaries",
    "ClusterMap",
    "NodeInfo",
    "NodeStore",
    "ClusterNode",
    "ClusterClient",
    "LSMConfig",
    "rocksdb_like",
    "cassandra_like",
    "leveldb_like",
    "dostoevsky_like",
    "Entry",
    "EntryKind",
    "MergeOperator",
    "StringAppendOperator",
    "Int64AddOperator",
    "MaxOperator",
    "RangeTombstone",
    "TreeStats",
    "SimulatedDisk",
    "DiskProfile",
    "ReproError",
    "BackgroundError",
    "ClosedError",
    "ConfigError",
    "CorruptionError",
    "CompactionError",
    "FilterError",
    "SnapshotExpiredError",
    "TxnConflictError",
    "__version__",
]
