"""Sharded engine: independent LSM trees committing in parallel (§2.2.2)."""

from .store import ShardedStore, hash_shard_index, keys_for_shard, range_boundaries

__all__ = ["ShardedStore", "hash_shard_index", "keys_for_shard", "range_boundaries"]
