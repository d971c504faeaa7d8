"""Crash-consistency sweep: crash at every failpoint crossing, then prove
recovery.

The ALICE/CrashMonkey idea, sized for this engine: run a scripted
workload once under an armed :class:`~repro.faults.registry.FaultPlan` to
*enumerate* every failpoint crossing it passes; then, for each crossing,
re-run the same workload in a fresh directory with a crash scheduled at
exactly that crossing, "pull the plug" (:meth:`LSMTree.kill`), reopen via
the real recovery path, and check the recovery invariants:

* **acked durability** — every write acknowledged before the crash is
  recovered with its acknowledged value;
* **atomicity of the in-flight op** — the single operation the crash
  interrupted is, per atomic unit (one key for singles, one shard's
  sub-batch for sharded batches, the whole batch for a single tree),
  either fully present or fully absent — never partially applied;
* **no resurrection** — a key deleted (and acked) before the crash stays
  gone, even when older values of it sit in earlier WAL segments,
  checkpoints, or deeper levels.

On top of plain crashes the sweep re-runs *tearable* crossings with a
torn-write mutation, plants mid-file bit flips that recovery must refuse
(:class:`~repro.errors.CorruptionError`, not silent data loss), injects
transient flush errors that bounded retry must absorb, and injects fsync
failures that must never be acked (fsyncgate).

Determinism: crossing ids depend only on the workload (per-site ordinal
counters, run-root-relative paths), so the same seed enumerates the same
crossings and schedules the same crashes on every machine. Quick mode
(``REPRO_SWEEP_QUICK=1`` / ``run_sweep(quick=True)``) samples the
crossing set with a seeded RNG instead of covering all of it.
"""

from __future__ import annotations

import asyncio
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster import (
    ClusterMap,
    ClusterNode,
    NodeInfo,
    NodeStore,
    local_cluster,
    migrate_shard,
    promote_local,
    replicate_local,
    wait_until,
)
from ..core.config import LSMConfig
from ..core.sstable import reset_table_ids
from ..core.tree import LSMTree
from ..errors import (
    BackgroundError,
    ConfigError,
    CorruptionError,
    DurabilityError,
    ReplicationError,
    ShardMovedError,
)
from ..replication import ReplicatedStore
from ..shard.store import ShardedStore, hash_shard_index, keys_for_shard
from ..storage import persistence
from .net import NetFaultPlan
from .registry import (
    FAILPOINTS,
    TEARABLE,
    FaultPlan,
    InjectedCrash,
    fault_plan,
    fault_point,
)

#: ("put", key, value) | ("delete", key, None) | ("batch", ops) |
#: ("checkpoint", None, None)
_Op = Tuple

ABSENT = None  # a missing key reads as None, same as a deleted one


class WorkloadTracker:
    """What the workload believes about the store, ack by ack.

    ``acked`` maps key → last acknowledged value (``None`` = deleted).
    ``inflight`` holds the key→value effects of the one operation the
    crash interrupted: acknowledged never, so recovery may apply it fully
    or not at all (per atomic unit), but nothing in between.
    """

    def __init__(self) -> None:
        self.acked: Dict[str, Optional[str]] = {}
        self.inflight: List[Tuple[str, Optional[str]]] = []

    def begin(self, effects: List[Tuple[str, Optional[str]]]) -> None:
        self.inflight = list(effects)

    def commit(self) -> None:
        for key, value in self.inflight:
            self.acked[key] = value
        self.inflight = []


def _effects(op: _Op) -> List[Tuple[str, Optional[str]]]:
    kind = op[0]
    if kind == "put":
        return [(op[1], op[2])]
    if kind == "delete":
        return [(op[1], None)]
    if kind == "batch":
        return [
            (key, value if sub == "put" else None)
            for sub, key, value in op[1]
        ]
    if kind == "migrate":
        # The writes applied *during* the migration are the migrate op's
        # in-flight effects: the ones the WAL-tail shipping must carry
        # across the ownership flip. They deliberately overwrite
        # already-acked keys, so a lost tail reads as neither-old-nor-new
        # on the overwritten key's shard — a caught violation — instead
        # of blending into "op not applied".
        return [(key, value) for key, value in op[2]]
    if kind == "stale":
        # A write through the *old* owner after the flip must be refused
        # (MOVED), so it has no effects anywhere; if it silently lands,
        # the routed read returns the stale value and the acked check
        # flags it.
        return []
    # checkpoint/promote/replicate/failover/rejoin: no logical key effect
    return []


def check_invariants(
    tracker: WorkloadTracker,
    get: Callable[[str], Optional[str]],
    unit_of: Callable[[str], object],
) -> List[str]:
    """Check acked durability, in-flight atomicity, and no-resurrection.

    Returns human-readable violation strings (empty = consistent). The
    in-flight op is judged per atomic unit: each of its keys must read as
    either the pre-op (*old*) or post-op (*new*) value, and one
    consistent choice must exist for the whole unit.
    """
    violations: List[str] = []
    inflight_keys = {key for key, _ in tracker.inflight}
    for key, value in tracker.acked.items():
        if key in inflight_keys:
            continue  # judged under unit atomicity below
        observed = get(key)
        if observed != value:
            kind = "resurrected" if value is None else "lost/mangled"
            violations.append(
                f"acked write {kind}: {key!r} acked as {value!r}, "
                f"recovered as {observed!r}"
            )
    units: Dict[object, List[Tuple[str, Optional[str]]]] = {}
    for key, value in tracker.inflight:
        units.setdefault(unit_of(key), []).append((key, value))
    for unit, pairs in units.items():
        choices = {"old", "new"}
        broken = False
        for key, new_value in pairs:
            old_value = tracker.acked.get(key, ABSENT)
            observed = get(key)
            labels = set()
            if observed == old_value:
                labels.add("old")
            if observed == new_value:
                labels.add("new")
            if not labels:
                violations.append(
                    f"in-flight key {key!r} recovered as {observed!r}, "
                    f"neither old {old_value!r} nor new {new_value!r}"
                )
                broken = True
                break
            choices &= labels
        if not broken and not choices:
            violations.append(
                f"atomic unit {unit!r} partially applied: "
                f"{[key for key, _ in pairs]}"
            )
    return violations


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


class _Target:
    """What a scenario opens and recovers: its stores by node id (one
    store, keyed ``""``, unless it is a cluster) and how a key finds
    the store that serves it."""

    def __init__(self, stores: Dict[str, object]) -> None:
        self.stores = stores

    @property
    def store(self):
        """The only store of a one-store target."""
        (store,) = self.stores.values()
        return store

    def route(self, _key: str):
        return self.store

    def kill(self) -> None:
        for store in self.stores.values():
            store.kill()

    def close(self) -> None:
        for store in self.stores.values():
            store.close()

    def get(self, key: str) -> Optional[str]:
        return self.route(key).get(key)


class _ClusterCtx(_Target):
    """Two in-process cluster nodes plus map-driven routing for the script."""

    @property
    def map(self) -> ClusterMap:
        """The freshest map any live node holds (epochs only grow)."""
        return max(
            (store.map for store in self.stores.values()),
            key=lambda m: m.epoch,
        )

    def route(self, key: str) -> NodeStore:
        cluster_map = self.map
        return self.stores[
            cluster_map.owner_id(cluster_map.shard_index(key))
        ]

    def owner_store(self, shard: int) -> NodeStore:
        return self.stores[self.map.owner_id(shard)]

    def other_store(self, shard: int) -> NodeStore:
        owner = self.map.owner_id(shard)
        (other,) = [nid for nid in self.stores if nid != owner]
        return self.stores[other]


def _solo(store: object) -> _Target:
    return _Target({"": store})


def _made(root: str, *parts: str) -> str:
    """The directory ``root/parts…``, created."""
    path = os.path.join(root, *parts)
    os.makedirs(path, exist_ok=True)
    return path


@dataclass(frozen=True)
class Scenario:
    """One crash scenario as data — a row of :data:`SCENARIOS`.

    ``script()`` lists the ops. ``open(root)`` builds the stores fresh
    under ``root``; ``recover(root)`` reopens them from disk the way an
    operator would after the crash; both return a :class:`_Target`.
    ``unit_of(key)`` names the atomic unit a key of the in-flight op
    belongs to. ``verbs`` maps the op kinds only this scenario has to
    ``verb(target, op, root)``; ``put``/``delete``/``batch`` are not in
    it — :func:`apply_op` applies those the same way to every target.
    """

    name: str
    script: Callable[[], List[_Op]]
    open: Callable[[str], _Target]
    recover: Callable[[str], _Target]
    unit_of: Callable[[str], object]
    verbs: Dict[str, Callable[[_Target, _Op, str], None]] = field(
        default_factory=dict
    )


def apply_op(scenario: Scenario, target: _Target, op: _Op, root: str) -> None:
    """The one op interpreter: ``put``/``delete``/``batch`` go through
    ``target.route(key)``, anything else through ``scenario.verbs``."""
    kind = op[0]
    if kind == "put":
        target.route(op[1]).put(op[1], op[2])
    elif kind == "delete":
        target.route(op[1]).delete(op[1])
    elif kind == "batch":
        # One write_batch per store the keys route to, in node order (a
        # one-store target takes the whole batch).
        routed = [(target.route(sub[1]), sub) for sub in op[1]]
        for store in target.stores.values():
            subs = [sub for owner, sub in routed if owner is store]
            if subs:
                store.write_batch(subs)
    elif kind in scenario.verbs:
        scenario.verbs[kind](target, op, root)
    else:  # pragma: no cover - script bug
        raise ValueError(f"unknown op {kind!r}")


_BIG_BUFFERS = LSMConfig()  # 64 KiB buffers: nothing flushes mid-workload
#: 2 KiB buffers and a one-run Level 0: with :func:`_padded` values every
#: shard of a ``-flush`` row flushes and compacts inside its script, so a
#: crash lands after flushes whose tables no checkpoint has written.
_SMALL_BUFFERS = LSMConfig(
    buffer_size_bytes=2048,
    num_buffers=1,
    level0_run_limit=1,
    target_file_bytes=1024,
    block_bytes=256,
)


def _padded(script: Callable[[], List[_Op]], width: int):
    """``script`` with every written value padded to ``width`` chars."""

    def pad(value: Optional[str]) -> Optional[str]:
        return None if value is None else value.ljust(width, ".")

    def padded() -> List[_Op]:
        ops = []
        for op in script():
            if op[0] == "put":
                op = ("put", op[1], pad(op[2]))
            elif op[0] == "batch":
                op = ("batch", [(sub, key, pad(v)) for sub, key, v in op[1]])
            elif op[0] == "migrate":
                op = ("migrate", op[1], [(key, pad(v)) for key, v in op[2]])
            ops.append(op)
        return ops

    return padded


def _single_tree_script() -> List[_Op]:
    """One synchronous tree with tiny buffers: flushes, compactions, and
    checkpoints all happen inside the scripted workload, so the WAL,
    flush, compaction, and checkpoint failpoints are all crossed."""
    ops: List[_Op] = []
    # Phase 1: bulk ingest — enough bytes for rotations and flushes.
    for i in range(9):
        ops.append(("put", f"a{i:02d}", f"v1-{i:02d}-" + "x" * 150))
    ops.append(
        (
            "batch",
            [("put", f"b{i:02d}", f"vb1-{i}-" + "y" * 60) for i in range(4)],
        )
    )
    ops.append(("checkpoint", None, None))
    # Phase 2: deletes, overwrites, a mixed batch — the resurrection
    # and lost-update traps.
    ops.append(("delete", "a00", None))
    ops.append(("delete", "b01", None))
    ops.append(("put", "a01", "v2-a01-" + "x" * 90))
    ops.append(
        (
            "batch",
            [
                ("put", "a02", "v2-a02"),
                ("delete", "a03", None),
                ("put", "d00", "v2-d00-" + "w" * 50),
            ],
        )
    )
    for i in range(5):
        ops.append(("put", f"e{i:02d}", f"v2-{i}-" + "q" * 160))
    ops.append(("checkpoint", None, None))
    # Phase 3: write over the checkpoint — a re-put of a deleted key,
    # a delete of a checkpointed key, fresh keys.
    ops.append(("put", "a00", "v3-a00-after-delete"))
    ops.append(("delete", "e01", None))
    ops.append(("batch", [("put", f"f{i}", f"v3-f{i}") for i in range(3)]))
    for i in range(4):
        ops.append(("put", f"g{i:02d}", "r" * 170))
    return ops


def _single_tree(name: str, fsync: bool) -> Scenario:
    config = LSMConfig(
        buffer_size_bytes=2048,
        num_buffers=2,
        level0_run_limit=1,  # second flush forces a compaction
        target_file_bytes=1024,
        block_bytes=256,
        wal_fsync=fsync,
    )

    def open_(root: str) -> _Target:
        _made(root, "ckpt")
        return _solo(LSMTree(config, wal_dir=_made(root, "wal")))

    return Scenario(
        name,
        _single_tree_script,
        open_,
        recover=lambda root: _solo(
            LSMTree.recover(
                config,
                os.path.join(root, "wal"),
                checkpoint_dir=os.path.join(root, "ckpt"),
            )
        ),
        # one tree: whole batches are atomic (one WAL group)
        unit_of=lambda _key: 0,
        verbs={
            "checkpoint": lambda target, _op, root: persistence.checkpoint(
                target.store, os.path.join(root, "ckpt")
            )
        },
    )


def _sharded_script() -> List[_Op]:
    """Three sync shards, big buffers (no flushes): cross-shard batches
    exercise shards.json, the two-phase-commit coordinator (prepare
    records, the decision log, roll-forward/rollback), and per-shard
    WAL group atomicity."""
    ops: List[_Op] = []
    for i in range(7):
        ops.append(("put", f"s{i:02d}", f"sv1-{i}"))
    for b in range(4):
        ops.append(
            (
                "batch",
                [
                    ("put", f"batch{b}-{j}", f"bv-{b}-{j}")
                    for j in range(6)
                ],
            )
        )
    ops.append(("delete", "s01", None))
    ops.append(
        (
            "batch",
            [
                ("put", "s02", "sv2-updated"),
                ("delete", "s03", None),
                ("put", "mix-0", "mv0"),
                ("put", "mix-1", "mv1"),
                ("delete", "batch0-0", None),
            ],
        )
    )
    for i in range(3):
        ops.append(("put", f"t{i:02d}", f"tv-{i}"))
    return ops


def _whole_store(_key: str) -> object:
    # Cross-shard batches are atomic store-wide: the two-phase
    # commit coordinator (per-shard PREPARE records, one durable
    # decision, roll-forward/rollback on recovery) promises
    # all-or-nothing for the *whole* batch, so the oracle judges
    # every in-flight key as one atomic unit.
    return 0


def _replicated_script() -> List[_Op]:
    """Two sync-replicated shards; recovery reads the *replica* side only.

    This models total loss of the primary disk: every crossing — primary
    WAL, the ``repl.node.*`` seed, ship and apply, mid-promotion — crashes
    the process, and the store is rebuilt from ``replica/`` alone
    (:func:`_standbys_alone`). Sync mode's contract makes that sound:
    every acked write reached the replica's WAL before its ack, so the
    standbys must reconstruct all acked state by themselves. The script
    includes a scripted failover (``promote``) so the fence and promotion
    failpoints are enumerated, plus post-promotion writes and deletes
    (the promoted replica serves directly — its WAL keeps journaling).

    Sync mode ships each commit group on the committing thread, so the
    crossings are deterministic.
    """
    ops: List[_Op] = []
    for i in range(4):
        ops.append(("put", f"r{i:02d}", f"rv1-{i}"))
    ops.append(
        (
            "batch",
            [("put", f"rb-{j}", f"rbv-{j}") for j in range(4)],
        )
    )
    ops.append(("delete", "r01", None))
    ops.append(
        (
            "batch",
            [
                ("put", "r02", "rv2-updated"),
                ("delete", "rb-0", None),
                ("put", "rmix", "rmv"),
            ],
        )
    )
    # Scripted failover of shard 0: its replica becomes the serving
    # tree; later shard-0 writes journal straight into replica/.
    ops.append(("promote", 0, None))
    for i in range(3):
        ops.append(("put", f"p{i:02d}", f"pv-{i}"))
    ops.append(("delete", "r02", None))
    ops.append(("put", "r01", "rv3-after-promote"))
    return ops


def _standbys_alone(config: LSMConfig, path: str) -> _Target:
    """The replica node reopened as the owner of every shard: each shard
    it does not own yet is failed over onto it first, as an operator
    would after losing the primary disk."""
    standby_map = ClusterMap.load(path)
    lost = [
        shard
        for shard in range(standby_map.num_shards)
        if standby_map.owner_id(shard) != "replica"
    ]
    if lost:
        standby_map.with_failover(lost, "replica").save(path)
    return _solo(NodeStore.recover("replica", config, path))


# The cluster and failover scenarios: nodes ``a`` and ``b``, four shards.
_NODE_IDS = ("a", "b")
_NODE_SHARDS = 4


def _open_nodes(open_node: Callable[[str], NodeStore]) -> _ClusterCtx:
    stores: Dict[str, NodeStore] = {}
    try:
        for node_id in _NODE_IDS:
            stores[node_id] = open_node(node_id)
    except BaseException:
        for store in stores.values():
            store.kill()
        raise
    return _ClusterCtx(stores)


def _two_nodes(
    subdir: str, port: int, replicated: bool, config: LSMConfig = _BIG_BUFFERS
):
    """``(open, recover)`` of a two-node scenario living in
    ``root/subdir/<node>``; both nodes are recovered independently."""

    def open_(root: str) -> _ClusterCtx:
        cluster_map = ClusterMap.even(
            _NODE_SHARDS,
            [
                NodeInfo("a", "127.0.0.1", port),
                NodeInfo("b", "127.0.0.1", port + 1),
            ],
            replicated=replicated,
        )
        return _open_nodes(
            lambda node_id: NodeStore(
                node_id,
                cluster_map,
                config,
                wal_dir=os.path.join(root, subdir, node_id),
            )
        )

    def recover(root: str) -> _ClusterCtx:
        return _open_nodes(
            lambda node_id: NodeStore.recover(
                node_id, config, os.path.join(root, subdir, node_id)
            )
        )

    return open_, recover


def _stale(ctx: _ClusterCtx, op: _Op, _root: str) -> None:
    key, value = op[1], op[2]
    stale_owner = ctx.other_store(ctx.map.shard_index(key))
    try:
        stale_owner.put(key, value)
    except ShardMovedError:
        pass  # the only correct answer
    else:
        raise RuntimeError(
            f"dual ownership: stale write of {key!r} accepted by "
            f"node {stale_owner.node_id!r} after ownership moved"
        )


def _cluster_script() -> List[_Op]:
    """Two cluster nodes, four shards, one live migration mid-workload.

    The cluster crossings this enumerates: the per-node ``cluster.json``
    saves at open, every ``cluster.migrate.*`` step of a live migration
    of shard 0 (node ``a`` → node ``b``) driven by
    :func:`~repro.cluster.migrate_shard` — snapshot chunks, the WAL-tail
    ship, the fence, the destination seal, the source release — plus the
    ordinary WAL crossings of writes landing on both nodes, including a
    write batch applied *during* the migration that must ride the tail.

    Recovery models operators restarting every node from disk: both node
    directories are recovered independently and reads route by the
    **freshest** persisted map — the epoch-precedence rule that resolves
    the deliberate dual-claim window between the destination's seal and
    the source's release. A crash anywhere must leave every acked write
    readable through that routing, on exactly one serving owner.

    The script also drives a stale-map client through the MOVED window:
    after the flip, a write through the old owner must be refused with
    :class:`~repro.errors.ShardMovedError`; silent acceptance (dual
    ownership) aborts the sweep loudly.
    """
    s0 = keys_for_shard(0, 6, _NODE_SHARDS, "ck", width=3)
    s1 = keys_for_shard(1, 3, _NODE_SHARDS, "ck", width=3)
    s2 = keys_for_shard(2, 2, _NODE_SHARDS, "ck", width=3)
    ops: List[_Op] = []
    # Phase 1: seed both nodes — singles and a cross-node batch.
    for i, key in enumerate(s0[:4]):
        ops.append(("put", key, f"cv1-{i}"))
    for i, key in enumerate(s1):
        ops.append(("put", key, f"cv1-s1-{i}"))
    ops.append(
        (
            "batch",
            [("put", key, f"cvb-{key}") for key in s2 + [s0[4], s1[0]]],
        )
    )
    ops.append(("delete", s0[3], None))
    # Phase 2: migrate shard 0 (a → b) with a tail-riding batch that
    # overwrites acked keys and lands fresh ones mid-migration.
    ops.append(
        (
            "migrate",
            0,
            [
                (s0[0], "cv2-tail-overwrite"),
                (s0[2], "cv2-tail-overwrite-2"),
                (s0[5], "cv2-tail-fresh"),
            ],
        )
    )
    # Phase 3: a stale-map client writes through the *old* owner.
    ops.append(("stale", s0[0], "stale-dual-write"))
    # Phase 4: traffic on the new layout — the migrated shard via its
    # new owner, the untouched shards via their old ones.
    ops.append(("put", s0[1], "cv3-post-migrate"))
    ops.append(("delete", s0[2], None))
    ops.append(
        (
            "batch",
            [
                ("put", s1[1], "cv3-s1-updated"),
                ("delete", s2[0], None),
                ("put", s0[4], "cv3-crossnode"),
            ],
        )
    )
    return ops


def _migrate(ctx: _ClusterCtx, op: _Op, _root: str) -> None:
    shard, during_pairs = op[1], op[2]
    source = ctx.owner_store(shard)
    dest = ctx.other_store(shard)

    def during() -> None:
        # One atomic batch on the source, committed after the
        # snapshot pass: it can only reach the destination via
        # the WAL-tail ship.
        source.write_batch(
            [
                ("put", key, value)
                if value is not None
                else ("delete", key, None)
                for key, value in during_pairs
            ]
        )

    migrate_shard(source, dest, shard, chunk=4, during=during)


def _failover_script() -> List[_Op]:
    """Two replicated cluster nodes, one fenced failover, one rejoin.

    The replication crossings this enumerates: the replica seeding of
    node ``a``'s shards onto node ``b`` (``repl.node.sync`` /
    ``repl.node.apply``), live commit groups riding the ship hook
    (``repl.node.ship``), the detection-and-promotion path after ``a``
    dies (``repl.node.heartbeat``, ``repl.node.promote.start``, the
    ``repl.node.promote.seal`` map save that *is* the failover commit
    point, ``repl.node.promote.done``), and the restarted old primary's
    demotion (``repl.node.demote``) plus its re-seed as a replica.

    Recovery models operators restarting every node from disk; reads
    route by the freshest persisted map. The oracle is the failover
    contract: a crash anywhere — mid-seed, mid-ship, mid-promotion,
    mid-demotion — must leave every acked write readable through that
    routing (in-process shipping is synchronous, so an acked write is
    always on whichever side the epoch rule elects), and a write through
    the demoted old primary must be refused with
    :class:`~repro.errors.ShardMovedError` — never two writable owners.
    """
    s0 = keys_for_shard(0, 5, _NODE_SHARDS, "fk", width=3)
    s1 = keys_for_shard(1, 2, _NODE_SHARDS, "fk", width=3)
    s2 = keys_for_shard(2, 3, _NODE_SHARDS, "fk", width=3)
    ops: List[_Op] = []
    # Phase 1: seed every shard before any replication exists, so
    # the snapshot pass has history to carry.
    for i, key in enumerate(s0[:3]):
        ops.append(("put", key, f"fv1-{i}"))
    ops.append(("put", s1[0], "fv1-s1"))
    ops.append(
        (
            "batch",
            [("put", s2[0], "fv1-s2"), ("put", s2[1], "fv1-s2b")],
        )
    )
    # Phase 2: seed warm replicas of node a's shards onto node b,
    # then traffic that rides the live ship hook — an overwrite, a
    # delete (resurrection trap for the promoted copy), and a
    # cross-shard batch.
    ops.append(("replicate", 0, None))
    ops.append(("replicate", 2, None))
    ops.append(("put", s0[0], "fv2-shipped"))
    ops.append(("delete", s0[1], None))
    ops.append(
        (
            "batch",
            [
                ("put", s0[3], "fv2-batch"),
                ("put", s2[2], "fv2-batch-s2"),
                ("delete", s2[0], None),
            ],
        )
    )
    # Phase 3: node a dies; node b detects the silence and promotes
    # its fresh standbys behind an epoch bump (the fenced failover).
    ops.append(("failover", ("a", "b"), (0, 2)))
    # Phase 4: the cluster serves on — writes to the failed-over
    # shards land on the promoted replica.
    ops.append(("put", s0[2], "fv3-post-failover"))
    ops.append(("put", s1[1], "fv3-s1"))
    ops.append(("delete", s2[1], None))
    # Phase 5: the old primary restarts, observes the newer epoch,
    # demotes itself, and re-seeds as a replica of its old shards.
    ops.append(("rejoin", "a", (0, 2)))
    # A write through the demoted node must be refused (MOVED) —
    # the exactly-one-writable-owner oracle.
    ops.append(("stale", s0[0], "stale-after-demote"))
    # Phase 6: post-rejoin traffic ships the other way (b → a).
    ops.append(("put", s0[0], "fv4-final"))
    ops.append(("put", s0[4], "fv4-fresh"))
    return ops


def _replicate(ctx: _ClusterCtx, op: _Op, _root: str) -> None:
    shard = op[1]
    source = ctx.owner_store(shard)
    dest = ctx.stores[ctx.map.replica_id(shard)]
    replicate_local(source, dest, shard, chunk=4)


def _failover(ctx: _ClusterCtx, op: _Op, _root: str) -> None:
    dead_id, survivor_id = op[1]
    shards = list(op[2])
    ctx.stores[dead_id].kill()
    survivor = ctx.stores[survivor_id]
    # The wire heartbeat loop doesn't run in-process; cross its
    # failpoint here so the sweep crashes the survivor at the same
    # protocol states the live node passes through between lease
    # expiry and promotion.
    fault_point("repl.node.heartbeat", scope=survivor_id)
    promote_local(survivor, shards)


def _rejoin(ctx: _ClusterCtx, op: _Op, root: str) -> None:
    node_id = op[1]
    shards = list(op[2])
    rejoined = NodeStore.recover(
        node_id, _BIG_BUFFERS, os.path.join(root, "failover", node_id)
    )
    # Insert before adopt/reseed so a crash inside either still
    # gets the store killed with the rest of the ctx.
    ctx.stores[node_id] = rejoined
    rejoined.adopt_map(ctx.map)
    for shard in shards:
        replicate_local(
            ctx.owner_store(shard), rejoined, shard, chunk=4
        )


def _sharded(
    name: str, config: LSMConfig, script: Callable[[], List[_Op]]
) -> Scenario:
    return Scenario(
        name,
        script,
        open=lambda root: _solo(
            ShardedStore(3, config, wal_dir=_made(root, "wal"))
        ),
        recover=lambda root: _solo(
            ShardedStore.recover(config, os.path.join(root, "wal"))
        ),
        unit_of=_whole_store,
    )


def _replicated(
    name: str, config: LSMConfig, script: Callable[[], List[_Op]]
) -> Scenario:
    return Scenario(
        name,
        script,
        open=lambda root: _solo(
            ReplicatedStore(
                2, config, mode="sync", wal_dir=_made(root, "repl")
            )
        ),
        recover=lambda root: _standbys_alone(
            config, os.path.join(root, "repl", "replica")
        ),
        unit_of=partial(hash_shard_index, num_shards=2),
        verbs={
            "promote": lambda target, op, _root: target.store.promote(
                op[1], reason="scripted failover"
            )
        },
    )


def _cluster(
    name: str, config: LSMConfig, script: Callable[[], List[_Op]], port: int
) -> Scenario:
    return Scenario(
        name,
        script,
        *_two_nodes("cluster", port, replicated=False, config=config),
        # Batches (the during-migration one included) are atomic per
        # shard sub-batch, same as the sharded store.
        unit_of=partial(hash_shard_index, num_shards=_NODE_SHARDS),
        verbs={"migrate": _migrate, "stale": _stale},
    )


#: The crash scenarios, in sweep order. Adding one is one row here plus
#: the verbs its script uses that no other row has.
SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        _single_tree("single-tree", fsync=False),
        _sharded("sharded", _BIG_BUFFERS, _sharded_script),
        _replicated("replicated-sync", _BIG_BUFFERS, _replicated_script),
        _cluster("cluster", _BIG_BUFFERS, _cluster_script, 7401),
        Scenario(
            "failover",
            _failover_script,
            *_two_nodes("failover", 7411, replicated=True),
            unit_of=partial(hash_shard_index, num_shards=_NODE_SHARDS),
            verbs={
                "replicate": _replicate,
                "failover": _failover,
                "rejoin": _rejoin,
                "stale": _stale,
            },
        ),
        # Small-buffer variants: crashes after flushes and compactions
        # that no checkpoint covers.
        _sharded("sharded-flush", _SMALL_BUFFERS, _padded(_sharded_script, 1000)),
        _replicated(
            "replicated-sync-flush",
            _SMALL_BUFFERS,
            _padded(_replicated_script, 1500),
        ),
        _cluster(
            "cluster-flush", _SMALL_BUFFERS, _padded(_cluster_script, 2000), 7421
        ),
    )
}


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


@dataclass
class SweepReport:
    """Outcome of one sweep: coverage numbers and every violation found."""

    crossings: Dict[str, List[str]] = field(default_factory=dict)
    #: Wire/fence crossings observed during partition runs, keyed by
    #: run name. Kept out of ``crossings``: which of these fire depends
    #: on live timing under load, and the deterministic-sweep guarantee
    #: (same seed => identical ``crossings``) must keep holding.
    partition_crossings: Dict[str, List[str]] = field(default_factory=dict)
    runs: int = 0
    crash_runs: int = 0
    torn_runs: int = 0
    bitflip_runs: int = 0
    fsync_runs: int = 0
    transient_runs: int = 0
    partition_runs: int = 0
    violations: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def total_crossings(self) -> int:
        return sum(len(ids) for ids in self.crossings.values())

    @property
    def distinct_names(self) -> List[str]:
        names = set()
        for ids in list(self.crossings.values()) + list(
            self.partition_crossings.values()
        ):
            names.update(crossing.split("@", 1)[0] for crossing in ids)
        return sorted(names)

    def summary(self) -> str:
        lines = [
            f"crash points enumerated : {self.total_crossings} "
            f"({', '.join(f'{s}={len(c)}' for s, c in self.crossings.items())})",
            f"partition crossings     : "
            f"{sum(len(c) for c in self.partition_crossings.values())} "
            "observed "
            f"({', '.join(f'{r}={len(c)}' for r, c in self.partition_crossings.items())})",
            f"failpoint names covered : {len(self.distinct_names)} "
            f"of {len(FAILPOINTS)} catalogued",
            f"runs executed           : {self.runs} "
            f"(crash={self.crash_runs} torn={self.torn_runs} "
            f"bitflip={self.bitflip_runs} fsync={self.fsync_runs} "
            f"transient={self.transient_runs} "
            f"partition={self.partition_runs})",
            f"invariant violations    : {len(self.violations)}",
            f"elapsed                 : {self.elapsed_s:.1f}s",
        ]
        lines.extend(f"  VIOLATION: {v}" for v in self.violations[:50])
        return "\n".join(lines)


def _run_workload(scenario: Scenario, root: str, tracker: WorkloadTracker):
    """Execute the scripted workload; return (ctx, completed, failure).

    A crash (or durability failure-stop) leaves the interrupted op in
    ``tracker.inflight``; the caller kills the ctx and recovers.

    Every call simulates a fresh process boot: the global table-id
    counter restarts so checkpoint filenames (and thus crossing ids) are
    identical between the enumeration run and every crash run.
    """
    reset_table_ids()
    ctx = scenario.open(root)
    try:
        for op in scenario.script():
            tracker.begin(_effects(op))
            apply_op(scenario, ctx, op, root)
            tracker.commit()
    except (
        InjectedCrash,
        DurabilityError,
        BackgroundError,
        ReplicationError,
    ) as exc:
        # ReplicationError is sync mode's failure-stop: the write is
        # locally durable but unreplicated, so it stays in-flight (maybe
        # state) for the replica-side recovery check.
        return ctx, False, exc
    return ctx, True, None


def _enumerate(scenario: Scenario, seed: int) -> List[str]:
    """Pass 1: run the workload cleanly under a recording plan."""
    with tempfile.TemporaryDirectory(prefix="sweep-enum-") as root:
        plan = FaultPlan(root=root, seed=seed)
        ctx = None
        with fault_plan(plan):
            ctx, completed, failure = _run_workload(
                scenario, root, WorkloadTracker()
            )
            if not completed:  # pragma: no cover - enumeration must be clean
                raise RuntimeError(
                    f"enumeration run failed for {scenario.name}: {failure!r}"
                )
            ctx.close()
        unknown = [
            name for name in plan.crossing_names() if name not in FAILPOINTS
        ]
        if unknown:  # pragma: no cover - catalog drift guard
            raise RuntimeError(f"uncatalogued failpoints crossed: {unknown}")
        return plan.crossing_ids()


def _crash_run(
    scenario: Scenario,
    crossing: str,
    mode: str,
    seed: int,
    report: SweepReport,
    *,
    fsync_fail: bool = False,
    transient_times: int = 0,
) -> None:
    """Pass 2: one fresh workload with a fault scheduled at ``crossing``."""
    with tempfile.TemporaryDirectory(prefix="sweep-run-") as root:
        kwargs: Dict[str, object] = {"root": root, "seed": seed}
        if fsync_fail:
            kwargs["fsync_fail_at"] = crossing
        elif transient_times:
            kwargs["transient_at"] = crossing
            kwargs["transient_times"] = transient_times
        else:
            kwargs["crash_at"] = crossing
            kwargs["crash_mode"] = mode
        plan = FaultPlan(**kwargs)  # type: ignore[arg-type]
        tracker = WorkloadTracker()
        ctx = None
        completed = False
        try:
            with fault_plan(plan):
                try:
                    ctx, completed, _failure = _run_workload(
                        scenario, root, tracker
                    )
                except InjectedCrash:
                    pass  # crash during scenario.open (ctx never returned)
        finally:
            if ctx is not None:
                ctx.kill()
        report.runs += 1
        if not fsync_fail and not transient_times and not plan.fired:
            report.violations.append(
                f"[{scenario.name}] crossing {crossing} never fired in the "
                "crash run — the sweep is not deterministic"
            )
            return
        if fsync_fail and plan.fsyncs_failed and completed:
            report.violations.append(
                f"[{scenario.name}] workload completed cleanly although the "
                f"sync at {crossing} failed — a failed sync was acked"
            )
        expected_transients = 0
        if transient_times:
            expected_transients = transient_times
            if transient_times <= 3 and not completed:
                report.violations.append(
                    f"[{scenario.name}] {transient_times} transient sync "
                    f"errors at {crossing} were not absorbed by retry"
                )
            if plan.transients_injected != expected_transients and completed:
                report.violations.append(
                    f"[{scenario.name}] expected {expected_transients} "
                    f"transient injections at {crossing}, saw "
                    f"{plan.transients_injected}"
                )
        if completed:
            tracker.inflight = []
        _recover_and_check(scenario, root, tracker, crossing, report)


def _recover_and_check(
    scenario: Scenario,
    root: str,
    tracker: WorkloadTracker,
    label: str,
    report: SweepReport,
) -> None:
    recovered = None
    try:
        recovered = scenario.recover(root)
    except ConfigError:
        # Acceptable only if the crash predates any acknowledged state
        # (e.g. shards.json never committed): nothing durable was promised.
        if tracker.acked or tracker.inflight:
            report.violations.append(
                f"[{scenario.name}] recovery after {label} refused "
                "(ConfigError) although writes had been acknowledged"
            )
        return
    except Exception as exc:
        report.violations.append(
            f"[{scenario.name}] recovery after {label} raised {exc!r}"
        )
        return
    try:
        for violation in check_invariants(
            tracker, recovered.get, scenario.unit_of
        ):
            report.violations.append(
                f"[{scenario.name}] after crash at {label}: {violation}"
            )
    finally:
        recovered.kill()


def _bitflip_runs(seed: int, report: SweepReport, count: int) -> None:
    """Flip one bit mid-WAL after a clean run; recovery must refuse.

    The flip lands inside the *second* line of a multi-record segment, so
    valid records follow the damage — the signature of real corruption,
    not a crash tail. Silent acceptance would be data loss. Odd attempts
    flip bit 7, which leaves a byte that is not UTF-8: still damage to
    one record, never a decode error out of recovery.
    """
    scenario = SCENARIOS["single-tree"]
    rng = random.Random(seed * 31 + 5)
    for attempt in range(count):
        with tempfile.TemporaryDirectory(prefix="sweep-flip-") as root:
            ctx, completed, failure = _run_workload(
                scenario, root, WorkloadTracker()
            )
            ctx.close()
            assert completed, failure
            wal_dir = os.path.join(root, "wal")
            target = None
            for name in sorted(os.listdir(wal_dir)):
                path = os.path.join(wal_dir, name)
                with open(path, "rb") as handle:
                    lines = handle.readlines()
                if len(lines) >= 3:
                    target = (path, lines)
                    break
            if target is None:  # pragma: no cover - workload guarantees one
                report.violations.append(
                    "bitflip setup: no multi-record WAL segment found"
                )
                return
            path, lines = target
            # Corrupt a byte of line 1 (0-indexed): records 2.. stay valid.
            line_start = len(lines[0])
            offset = line_start + rng.randrange(1, len(lines[1]) - 1)
            with open(path, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)[0]
                flipped = byte ^ (0x80 if attempt % 2 else 0x04)
                if flipped == 0x0A or byte == 0x0A:
                    flipped = byte ^ 0x01
                handle.seek(offset)
                handle.write(bytes([flipped]))
            report.runs += 1
            report.bitflip_runs += 1
            try:
                recovered = scenario.recover(root)
            except CorruptionError as exc:
                # Expected: refused, with diagnosable context.
                if exc.path is None:
                    report.violations.append(
                        f"bitflip #{attempt}: CorruptionError raised without "
                        "a file path in its context"
                    )
                continue
            except Exception as exc:
                report.violations.append(
                    f"bitflip #{attempt}: recovery raised {exc!r} instead of "
                    "CorruptionError"
                )
                continue
            recovered.kill()
            report.violations.append(
                f"bitflip #{attempt}: recovery silently accepted a "
                f"mid-file bit flip in {os.path.basename(path)}"
            )


def _sample(
    items: List[str],
    count: int,
    rng: random.Random,
    always: Tuple[str, ...] = ("txn.", "repl.node.", "net."),
) -> List[str]:
    """Seeded sample of ``count`` crossings, plus every ``always`` match.

    Quick mode must never skip the two-phase-commit, failover, or
    network-fault crossings — they are few, and each one is a distinct
    protocol state (mid-prepare, torn decision, mid-seed, the promotion
    seal, the demotion, a partitioned link) whose recovery path deserves
    a run on every CI pass — so crossings whose failpoint name starts
    with one of the ``always`` prefixes ride along on top of the random
    sample.
    """
    if count >= len(items):
        return list(items)
    forced = [item for item in items if item.startswith(always)]
    sampled = set(rng.sample(items, count)) | set(forced)
    return sorted(sampled)


# -- partition scenarios -----------------------------------------------------
#
# Wire-level runs, distinct from the crash-at-crossing machinery above:
# a live two-node cluster (designated topology — ``a`` owns every shard,
# ``b`` is a pure standby, so a symmetric cut cannot produce two
# same-epoch owners) with every node-to-node link routed through a
# NetProxy driven by a seeded NetFaultPlan. Two writers — one pinned to
# each node, both targeting shard 0 — record every acknowledged write
# with the acking node, that node's map epoch at ack time, and the ack's
# wall-clock interval. The ownership-history checker then asserts the
# two partition invariants:
#
# * **single writer per instant** — no two acks from different nodes
#   overlap in time, and no node acks at an epoch older than one a
#   different node's completed ack already carried;
# * **zero acked writes lost after heal** — once the cluster converges,
#   the last acked value of every key is readable from the surviving
#   owner.

_P_SHARDS = 4
_P_HEARTBEAT_S = 0.1
_P_LEASE_S = 0.6


@dataclass
class _AckRecord:
    """One acknowledged write, as the ack-history checker sees it."""

    key: str
    value: str
    node: str
    epoch: int
    t_start: float
    t_end: float


async def _partition_writer(
    node_id: str,
    port: int,
    store: NodeStore,
    keys: List[str],
    offset: int,
    step: int,
    records: List[_AckRecord],
    stop: "asyncio.Event",
) -> None:
    """Pin a writer to one node; record only acknowledged writes.

    Rejections (BUSY from a fence, MOVED from a non-owner, resets and
    timeouts from a cut link) are the expected weather of a partition
    run — they back off and retry; only a successful reply becomes an
    ack record, stamped with the acking node's epoch *at ack time*.
    """
    from ..server.client import KVClient, ServerError

    index = offset
    client = None
    try:
        while not stop.is_set():
            if client is None:
                try:
                    client = await KVClient.connect(
                        "127.0.0.1",
                        port,
                        timeout_s=2.0,
                        connect_timeout_s=0.5,
                        retry_s=0.0,
                    )
                except (ConnectionError, OSError):
                    await asyncio.sleep(0.05)
                    continue
            key = keys[index]
            value = f"{node_id}#{index}"
            t_start = time.monotonic()
            try:
                await client.put(key, value)
            except ServerError:
                # BUSY (fenced) or MOVED (not the owner): not an ack.
                await asyncio.sleep(0.03)
                continue
            except (ConnectionError, OSError, asyncio.TimeoutError):
                try:
                    await client.close()
                except Exception:
                    pass
                client = None
                await asyncio.sleep(0.05)
                continue
            records.append(
                _AckRecord(
                    key=key,
                    value=value,
                    node=node_id,
                    epoch=store.map.epoch,
                    t_start=t_start,
                    t_end=time.monotonic(),
                )
            )
            index += step
            if index >= len(keys):
                index = offset
            await asyncio.sleep(0.01)
    finally:
        if client is not None:
            try:
                await client.close()
            except Exception:
                pass


def _check_ack_history(
    run: str,
    records: List[_AckRecord],
    stores: Dict[str, NodeStore],
    report: SweepReport,
) -> None:
    """The ownership-history checker: single-writer-per-instant, epoch
    monotonicity across nodes, and zero acked writes lost after heal."""
    recs = sorted(records, key=lambda record: record.t_start)
    for i, first in enumerate(recs):
        for later in recs[i + 1 :]:
            if later.node == first.node:
                continue
            if later.t_start < first.t_end:
                report.violations.append(
                    f"[partition:{run}] dual ack: {first.node} acked "
                    f"{first.key} while {later.node} acked {later.key} "
                    "in the same instant"
                )
            elif (
                first.t_end <= later.t_start
                and later.epoch < first.epoch
            ):
                report.violations.append(
                    f"[partition:{run}] stale-epoch ack: {later.node} "
                    f"acked {later.key} at epoch {later.epoch} after "
                    f"{first.node} completed an ack at epoch "
                    f"{first.epoch}"
                )
    # Post-heal durability: the last acked value of every key must be
    # readable from the node that owns shard 0 once converged.
    latest: Dict[str, _AckRecord] = {}
    for record in recs:
        current = latest.get(record.key)
        if current is None or record.t_end >= current.t_end:
            latest[record.key] = record
    owner_map = max(
        (store.map for store in stores.values()),
        key=lambda cluster_map: cluster_map.epoch,
    )
    owner = stores[owner_map.owner_id(0)]
    for key, record in sorted(latest.items()):
        try:
            found = owner.get(key)
        except Exception as exc:
            report.violations.append(
                f"[partition:{run}] post-heal read of acked key "
                f"{key} raised {exc!r}"
            )
            continue
        if found != record.value:
            report.violations.append(
                f"[partition:{run}] acked write lost after heal: "
                f"{key} acked as {record.value!r} by {record.node} "
                f"(epoch {record.epoch}) but reads as {found!r}"
            )


async def _probe_busy(
    port: int, key: str, deadline_s: float = 6.0
) -> bool:
    """Whether a direct write at ``port`` answers BUSY (a held fence)
    within the deadline. Acks mean the fence is not (yet) holding —
    keep probing; connection trouble retries."""
    from ..server.client import BusyError, KVClient, ServerError

    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        client = None
        try:
            client = await KVClient.connect(
                "127.0.0.1",
                port,
                timeout_s=2.0,
                connect_timeout_s=0.5,
                retry_s=0.0,
            )
            await client.put(key, "probe")
        except BusyError:
            return True
        except (ServerError, ConnectionError, OSError, asyncio.TimeoutError):
            pass
        finally:
            if client is not None:
                try:
                    await client.close()
                except Exception:
                    pass
        await asyncio.sleep(0.1)
    return False


@dataclass
class _PartitionRun:
    """What a partition script drives: the live proxied pair by node
    id, the plan that cuts its links, and where its findings go."""

    name: str
    servers: Dict[str, ClusterNode]
    stores: Dict[str, NodeStore]
    plan: NetFaultPlan
    report: SweepReport
    quick: bool
    keys: List[str]

    def violation(self, what: str) -> None:
        self.report.violations.append(f"[partition:{self.name}] {what}")

    async def wait(
        self, condition, what: str, deadline_s: float = 10.0
    ) -> bool:
        """Whether ``condition`` came to hold in time. A miss is a
        violation, not an abort: the ack history is still checked."""
        try:
            await wait_until(condition, what, deadline_s)
        except TimeoutError:
            self.violation(what)
            return False
        return True


async def _symmetric(run: _PartitionRun) -> None:
    servers, stores, plan = run.servers, run.stores, run.plan
    plan.partition(["a"], ["b"])
    if await run.wait(
        lambda: bool(servers["b"].promotions), "standby never promoted"
    ):
        # The admission fence must engage while the partition
        # holds (the exact ack-time fence already refuses sooner
        # — the dual-ack check below proves the ordering; this
        # asserts the heartbeat-grained fence converges too).
        await run.wait(
            lambda: bool(stores["a"].repl_fenced_shards()),
            "primary never self-fenced",
        )
        await asyncio.sleep(1.0)  # promoted acks on `b`
    plan.clear()
    await run.wait(
        lambda: stores["a"].map.epoch == stores["b"].map.epoch
        and not stores["a"].owned_shards(),
        "old primary never demoted after heal",
    )


async def _asymmetric(run: _PartitionRun) -> None:
    servers, stores, plan = run.servers, run.stores, run.plan
    # One-directional starvation: the primary cannot reach its
    # standby, the standby's pings still round-trip. Correct
    # outcome is *no* promotion and a fenced (BUSY) primary —
    # degraded but split-brain-proof. The inbound pings keep the
    # heartbeat-grained admission fence disengaged (contact is
    # genuinely alive), so the refusal comes from the exact
    # ack-time fence: probe it on the wire.
    plan.blackhole("a", "b")
    await run.wait(
        lambda: not servers["a"]._shippers[0].streaming,
        "ship stream never degraded under the cut",
    )
    if not await _probe_busy(servers["a"].port, run.keys[-1]):
        run.violation(
            "primary kept acking un-replicated writes under a one-way cut"
        )
    await asyncio.sleep(0.5)
    if servers["b"].promotions:
        run.violation(
            "standby promoted although its pings to the primary still "
            "round-tripped"
        )
    plan.heal("a", "b")
    await run.wait(
        lambda: all(s.streaming for s in servers["a"]._shippers.values())
        and not stores["a"].repl_fenced_shards(),
        "stream/fence never recovered after heal",
    )
    await asyncio.sleep(0.4)  # post-heal acks on `a`


async def _heal_rejoin(run: _PartitionRun) -> None:
    servers, stores, plan = run.servers, run.stores, run.plan
    plan.partition(["a"], ["b"])
    await run.wait(
        lambda: bool(servers["b"].promotions), "standby never promoted"
    )
    plan.clear()
    # The healed old primary must demote AND reseed into a
    # promotable standby — a full rejoin, not just an epoch
    # adoption.
    await run.wait(
        lambda: stores["a"].promotable_shards() == list(range(_P_SHARDS)),
        "old primary never reseeded as a promotable standby",
        deadline_s=15.0,
    )
    # Fail back: cut again, the rejoined node must win.
    plan.partition(["a"], ["b"])
    await run.wait(
        lambda: bool(servers["a"].promotions),
        "rejoined standby never promoted on the second cut",
    )
    plan.clear()
    await run.wait(
        lambda: stores["a"].map.epoch == stores["b"].map.epoch,
        "maps never converged after the second heal",
    )


async def _flapping(run: _PartitionRun) -> None:
    servers, plan = run.servers, run.plan
    # Wire hardening rides along on the flap run: jittered
    # delay, one duplicated frame (the at-least-once surface —
    # re-applied puts are idempotent, and the session the extra
    # reply desyncs is torn down by the reset right after), and
    # one mid-frame reset the shipper must absorb by
    # reconnect-and-reseed.
    plan.delay("a", "b", 0.02, jitter_s=0.01)
    plan.duplicate("a", "b", count=1)
    plan.reset("a", "b", after_frames=8, count=1)
    await asyncio.sleep(0.6)
    plan.heal("a", "b")
    flaps = 3 if run.quick else 6
    for _ in range(flaps):
        plan.blackhole("a", "b")
        await asyncio.sleep(0.15)
        plan.heal("a", "b")
        await asyncio.sleep(0.1)
    if servers["b"].promotions:
        run.violation("sub-lease link flaps caused a promotion")
    await run.wait(
        lambda: all(s.streaming for s in servers["a"]._shippers.values()),
        "stream never settled after the flaps",
    )
    await asyncio.sleep(0.3)


#: The partition scripts, in sweep order: each drives one cut-and-heal
#: posture between :func:`_partition_scenario`'s prologue (cluster up,
#: writers acking) and epilogue (writers stopped, ack history checked).
_PARTITION_SCRIPTS = {
    "symmetric": _symmetric,
    "asymmetric": _asymmetric,
    "heal_rejoin": _heal_rejoin,
    "flapping": _flapping,
}


async def _partition_scenario(
    run: str, root: str, plan: NetFaultPlan, report: SweepReport, quick: bool
) -> None:
    async with local_cluster(
        root,
        shape="standby",
        config=LSMConfig(buffer_size_bytes=1 << 18),
        net_plan=plan,
        heartbeat_interval_s=_P_HEARTBEAT_S,
        lease_timeout_s=_P_LEASE_S,
        repl_timeout_s=0.5,
        self_fence=True,
    ) as (server_list, store_list, _live):
        servers = dict(zip("ab", server_list))
        stores = dict(zip("ab", store_list))
        records: List[_AckRecord] = []
        stop = asyncio.Event()
        keys = keys_for_shard(0, 3000, _P_SHARDS, "pk", width=5)
        writers = [
            asyncio.create_task(
                _partition_writer(
                    node_id,
                    servers[node_id].port,
                    stores[node_id],
                    keys,
                    offset,
                    2,
                    records,
                    stop,
                )
            )
            for offset, node_id in enumerate(("a", "b"))
        ]
        try:
            await asyncio.sleep(0.4)  # healthy warm-up acks on `a`
            await _PARTITION_SCRIPTS[run](
                _PartitionRun(run, servers, stores, plan, report, quick, keys)
            )
        finally:
            stop.set()
            await asyncio.gather(*writers, return_exceptions=True)
        # Let in-flight replication settle before the durability read-back.
        await asyncio.sleep(0.3)
        if not records:
            report.violations.append(
                f"[partition:{run}] no write was ever acknowledged"
            )
        _check_ack_history(run, records, stores, report)


def _partition_run(
    run: str, seed: int, report: SweepReport, quick: bool
) -> None:
    """One scripted partition scenario under a seeded NetFaultPlan.

    Runs inside a recording FaultPlan so the ``repl.node.fence``
    crossings it provokes count toward catalog coverage; the wire-level
    ``net.*`` crossings come from the NetFaultPlan's own trace.
    """
    plan = NetFaultPlan(seed=seed)
    with tempfile.TemporaryDirectory(prefix="sweep-part-") as root:
        record_plan = FaultPlan(root=root, seed=seed)
        try:
            with fault_plan(record_plan):
                asyncio.run(_partition_scenario(run, root, plan, report, quick))
        except Exception as exc:
            report.violations.append(
                f"[partition:{run}] scenario crashed: {exc!r}"
            )
        # One entry per (failpoint, link) — a blackholed dial loop
        # crosses net.connect thousands of times; the per-crossing
        # ordinals are noise at report level.
        crossings = report.partition_crossings.setdefault(run, [])
        seen = set(crossings)
        for crossing in plan.crossing_ids() + [
            crossing
            for crossing in record_plan.crossing_ids()
            if crossing.startswith("repl.node.fence")
        ]:
            entry = crossing.split("#", 1)[0]
            if entry not in seen:
                seen.add(entry)
                crossings.append(entry)
    report.runs += 1
    report.partition_runs += 1


def run_sweep(quick: bool = False, seed: int = 7) -> SweepReport:
    """Run the whole crash-consistency sweep; return its report.

    Full mode crashes at *every* enumerated crossing (plus torn variants
    at tearable sites, bit flips, fsync failures, and transient-error
    runs). Quick mode samples the crossing set with a seeded RNG —
    deterministic, CI-sized. Zero ``report.violations`` is the pass
    criterion.
    """
    started = time.perf_counter()
    report = SweepReport()
    rng = random.Random(seed)

    for scenario in SCENARIOS.values():
        crossings = _enumerate(scenario, seed)
        report.crossings[scenario.name] = crossings
        crash_targets = _sample(crossings, 24, rng) if quick else crossings
        for crossing in crash_targets:
            _crash_run(scenario, crossing, "crash", seed, report)
            report.crash_runs += 1
        tearable = [
            crossing
            for crossing in crossings
            if crossing.split("@", 1)[0] in TEARABLE
        ]
        torn_targets = _sample(tearable, 6, rng) if quick else tearable
        for crossing in torn_targets:
            _crash_run(scenario, crossing, "torn", seed, report)
            report.torn_runs += 1

    _bitflip_runs(seed, report, count=1 if quick else 4)

    # fsync-failure runs: the engine must never ack a write whose sync
    # failed (fsyncgate). Uses the fsync-enabled single-tree scenario.
    fsync_scenario = _single_tree("single-tree-fsync", fsync=True)
    fsync_crossings = [
        crossing
        for crossing in _enumerate(fsync_scenario, seed)
        if crossing.startswith("wal.fsync@")
    ]
    report.crossings[fsync_scenario.name] = fsync_crossings
    fsync_targets = _sample(fsync_crossings, 2 if quick else 8, rng)
    for crossing in fsync_targets:
        _crash_run(
            fsync_scenario, crossing, "crash", seed, report, fsync_fail=True
        )
        report.fsync_runs += 1

    # Transient-I/O runs on a mid-workload sync: 2 consecutive failures
    # must be absorbed by bounded retry; 5 (> retry budget) must poison.
    scenario = SCENARIOS["single-tree"]
    syncs = [
        crossing
        for crossing in report.crossings[scenario.name]
        if crossing.startswith("wal.sync@")
    ]
    if syncs:
        target = syncs[len(syncs) // 2]
        for times in ((2,) if quick else (2, 5)):
            _crash_run(
                scenario, target, "crash", seed, report, transient_times=times
            )
            report.transient_runs += 1

    # Partition scenarios: wire-level, never sampled out — each of the
    # four scripts is a distinct protocol posture (fence-then-promote,
    # degraded-no-promotion, rejoin-then-failback, flap tolerance).
    for run in _PARTITION_SCRIPTS:
        _partition_run(run, seed, report, quick)

    report.elapsed_s = time.perf_counter() - started
    return report
