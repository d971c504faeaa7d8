"""Per-shard replication with automatic failover, in one process.

See :mod:`repro.replication.store` for the design discussion;
:class:`ReplicatedStore` is the public entry point — two in-process
cluster nodes joined by :func:`repro.cluster.replicate_local` — and
satisfies the same :class:`~repro.api.KVStore` protocol as the engines
it composes.
"""

from .store import ReplicatedStore

__all__ = ["ReplicatedStore"]
