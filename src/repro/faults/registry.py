"""Deterministic failpoint registry: the engine's fault-injection spine.

Every durability-critical site in the engine calls
:func:`fault_point` with a stable name (see :data:`FAILPOINTS`). With no
plan armed the call is a near-free no-op; under an armed
:class:`FaultPlan` each call becomes a *crossing* — identified by
``name@discriminator#ordinal``, where the discriminator is the file path
relative to the plan root (or an explicit scope) and the ordinal counts
repeat visits — and the plan may fire a fault there:

* **hard crash** — raise :class:`InjectedCrash` (a ``BaseException``, so
  it rips through ordinary ``except Exception`` recovery paths exactly
  like a process death would);
* **torn write** — truncate the file mid-record first, then crash;
* **bit flip** — corrupt one bit of the in-flight tail, then crash;
* **transient I/O error** — raise ``OSError`` for a bounded number of
  consecutive visits (the WAL retries these);
* **fsync failure** — raise ``OSError`` at a sync site once; the WAL
  poisons the segment (fsyncgate semantics — see
  :class:`~repro.errors.DurabilityError`).

Crossings are deterministic: per ``(name, discriminator)`` the ordinal
sequence depends only on the workload, not on thread interleaving, so a
crossing id recorded during an enumeration run names exactly one point
in any replay of the same workload. That property is what the
crash-consistency sweep (:mod:`repro.faults.sweep`) is built on.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = [
    "FAILPOINTS",
    "Failpoint",
    "FaultPlan",
    "InjectedCrash",
    "InjectedWorkerDeath",
    "failpoint_kinds",
    "fault_plan",
    "fault_point",
    "inject_worker_death",
]


class InjectedCrash(BaseException):
    """A simulated process death at a failpoint.

    Deliberately *not* an ``Exception``: engine code that catches broad
    ``Exception`` for cleanup must not be able to swallow a crash, just
    as it could not swallow ``kill -9``. The crash-consistency harness
    catches it explicitly, releases file handles without flushing
    (``kill()``), and re-opens from disk.
    """

    def __init__(self, crossing: str) -> None:
        super().__init__(f"injected crash at {crossing}")
        self.crossing = crossing


class InjectedWorkerDeath(Exception):
    """The injected cause of a background worker's death (degraded mode)."""


@dataclass(frozen=True)
class Failpoint:
    """One catalogued failpoint: a named site in the engine."""

    name: str
    site: str
    description: str


#: The failpoint catalog. Sites must use names registered here; the
#: sweep asserts every crossing it sees is catalogued, so the catalog is
#: the authoritative list for docs and operators.
FAILPOINTS: Dict[str, Failpoint] = {
    fp.name: fp
    for fp in (
        Failpoint(
            "wal.batch.start",
            "core/wal.py _journal",
            "before a group (or PREPARE) record is written",
        ),
        Failpoint(
            "wal.batch.written",
            "core/wal.py _journal",
            "group record written, not yet synced (tearable)",
        ),
        Failpoint(
            "wal.sync",
            "core/wal.py _sync",
            "before the segment flush (transient-IO retry site)",
        ),
        Failpoint(
            "wal.fsync",
            "core/wal.py _sync",
            "before os.fsync (fsync-failure/poison site)",
        ),
        Failpoint(
            "wal.recover.before_delete",
            "core/tree.py recover",
            "groups re-journaled, old segments not yet deleted",
        ),
        Failpoint(
            "flush.build",
            "core/tree.py / concurrency/coordinator.py",
            "before building Level-0 tables from a rotated buffer",
        ),
        Failpoint(
            "flush.install",
            "core/tree.py / concurrency/coordinator.py",
            "tables built, before installing the run in Level 0",
        ),
        Failpoint(
            "compact.step",
            "core/tree.py _run_compactions",
            "before executing one synchronous compaction",
        ),
        Failpoint(
            "compact.merge",
            "concurrency/coordinator.py",
            "before a background compaction merge",
        ),
        Failpoint(
            "compact.install",
            "concurrency/coordinator.py",
            "merge done, before installing compaction outputs",
        ),
        Failpoint(
            "ckpt.table.tmp",
            "storage/persistence.py checkpoint (replace_durably)",
            "SSTable tmp file written, before its fsync and atomic rename",
        ),
        Failpoint(
            "ckpt.table.done",
            "storage/persistence.py checkpoint (replace_durably)",
            "after an SSTable rename into place and the directory fsync",
        ),
        Failpoint(
            "ckpt.manifest.tmp",
            "storage/persistence.py checkpoint (replace_durably)",
            "manifest tmp written, before its fsync and the commit rename",
        ),
        Failpoint(
            "ckpt.manifest.done",
            "storage/persistence.py checkpoint (replace_durably)",
            "checkpoint committed, WAL segments not yet pruned",
        ),
        Failpoint(
            "ckpt.wal_prune",
            "storage/persistence.py checkpoint",
            "before deleting each checkpoint-covered WAL segment",
        ),
        Failpoint(
            "shard.manifest.tmp",
            "shard/store.py _write_manifest (replace_durably)",
            "shards.json tmp written, before its fsync and atomic rename",
        ),
        Failpoint(
            "shard.manifest.done",
            "shard/store.py _write_manifest (replace_durably)",
            "after the shards.json rename and the directory fsync",
        ),
        Failpoint(
            "shard.commit",
            "shard/store.py write_batch",
            "before a per-shard sub-batch commit",
        ),
        Failpoint(
            "txn.prepare",
            "shard/store.py _commit_cross_shard",
            "before a shard's PREPARE record for a cross-shard batch",
        ),
        Failpoint(
            "txn.prepare.record",
            "core/wal.py _journal",
            "PREPARE record written, before the prepare sync (tearable)",
        ),
        Failpoint(
            "txn.decide.start",
            "core/wal.py TxnDecisionLog.append",
            "all shards prepared, before the coordinator decision write",
        ),
        Failpoint(
            "txn.decide",
            "core/wal.py TxnDecisionLog.append",
            "decision record written, before its sync — the commit "
            "point (tearable)",
        ),
        Failpoint(
            "txn.commit",
            "shard/store.py _commit_cross_shard",
            "decision durable, before a shard applies its sub-batch",
        ),
        Failpoint(
            "txn.rollforward",
            "core/wal.py replay_groups",
            "before recovery rolls a committed prepared group forward",
        ),
        Failpoint(
            "cluster.map.tmp",
            "cluster/map.py save (replace_durably)",
            "cluster.json tmp written, before its fsync and atomic rename",
        ),
        Failpoint(
            "cluster.map.done",
            "cluster/map.py save (replace_durably)",
            "after the cluster.json rename and the directory fsync",
        ),
        Failpoint(
            "cluster.migrate.begin",
            "cluster/store.py inbound_begin (migration role)",
            "destination wiped, before the receiving tree opens",
        ),
        Failpoint(
            "cluster.migrate.snapshot",
            "cluster/store.py migrate_shard",
            "before shipping one snapshot chunk to the destination",
        ),
        Failpoint(
            "cluster.migrate.tail",
            "cluster/store.py migrate_shard",
            "before shipping one drained WAL-tail batch",
        ),
        Failpoint(
            "cluster.migrate.fence",
            "cluster/store.py fence",
            "source write fence raised, before the final tail drain",
        ),
        Failpoint(
            "cluster.migrate.seal",
            "cluster/store.py _take_ownership (migration_seal)",
            "destination warm, before it persists the bumped-epoch map "
            "and adopts the shard",
        ),
        Failpoint(
            "cluster.migrate.release",
            "cluster/store.py release_shard",
            "destination sealed, before the source persists the new map "
            "and releases the shard",
        ),
        Failpoint(
            "repl.node.ship",
            "cluster/store.py _ServingShard.on_commit",
            "commit group durable on the primary, before shipping it to "
            "the replica node",
        ),
        Failpoint(
            "repl.node.sync",
            "cluster/store.py inbound_begin (replica role)",
            "standby directory wiped for reseeding, before the fresh "
            "replica tree opens",
        ),
        Failpoint(
            "repl.node.apply",
            "cluster/store.py _inbound_apply (replica role)",
            "shipped batch received on the replica node, before its "
            "replica-WAL append",
        ),
        Failpoint(
            "repl.node.heartbeat",
            "cluster/node.py _heartbeat_loop",
            "before one outbound peer heartbeat round",
        ),
        Failpoint(
            "repl.node.promote.start",
            "cluster/store.py promote_local",
            "failover decided (lease expired, or quarantine in a "
            "replicated store), before the failover map is built",
        ),
        Failpoint(
            "repl.node.promote.seal",
            "cluster/store.py _take_ownership (promote_shards)",
            "failover decided, before the bumped-epoch map is persisted "
            "— the promotion commit point",
        ),
        Failpoint(
            "repl.node.promote.done",
            "cluster/store.py promote_shards",
            "failover map durable, standby trees adopted as serving",
        ),
        Failpoint(
            "repl.node.demote",
            "cluster/store.py adopt_map",
            "newer map observed, before this node stops serving a shard "
            "it lost",
        ),
        Failpoint(
            "repl.node.fence",
            "cluster/store.py repl_fence",
            "standby contact lost past the fence window, before the "
            "primary stops acking writes to the shard (self-fencing)",
        ),
        # Network crossings, declared by the deterministic TCP relay in
        # faults/net.py. The first two fire on every proxied connection /
        # forward frame (injection points); the rest fire when a
        # NetFaultPlan rule engages on that link.
        Failpoint(
            "net.connect",
            "faults/net.py NetProxy._relay",
            "proxied connection accepted on a directed link, before "
            "dialing the target",
        ),
        Failpoint(
            "net.frame",
            "faults/net.py NetProxy._pump_forward",
            "one forward frame split off the wire, before delivery to "
            "the target",
        ),
        Failpoint(
            "net.blackhole",
            "faults/net.py NetFaultPlan.on_connect/on_frame",
            "link silenced: the connection is held unanswered or the "
            "in-flight frame stalls until heal",
        ),
        Failpoint(
            "net.delay",
            "faults/net.py NetFaultPlan.on_frame",
            "fixed-plus-jitter delivery delay applied to a forward frame",
        ),
        Failpoint(
            "net.reset",
            "faults/net.py NetFaultPlan.on_frame",
            "deterministic frame prefix delivered, before resetting both "
            "sides of the connection mid-frame",
        ),
        Failpoint(
            "net.duplicate",
            "faults/net.py NetFaultPlan.on_frame",
            "forward frame about to be delivered twice (at-least-once "
            "wire behavior)",
        ),
    )
}

#: Failpoints whose in-flight tail may legitimately be torn: the bytes
#: after the last sync belong to an unacknowledged write.
TEARABLE = (
    "wal.batch.written",
    "txn.prepare.record",
    "txn.decide",
)

#: Crash flavors a plan can fire at its crossing.
CRASH_MODES = ("crash", "torn", "bitflip")


def failpoint_kinds(name: str) -> List[str]:
    """The fault kinds meaningfully injectable at failpoint ``name``.

    Every site supports a hard ``crash``; :data:`TEARABLE` sites add
    ``torn``/``bitflip`` (they have an un-synced file tail to mutate);
    the sync sites add the retry/poison flavors a
    :class:`FaultPlan` can schedule there. Powers
    ``repro.cli fault-sweep --list``.
    """
    if name not in FAILPOINTS:
        raise KeyError(f"unknown failpoint {name!r}")
    kinds = ["crash"]
    if name.startswith("net."):
        kinds.append("wire")
    if name in TEARABLE:
        kinds += ["torn", "bitflip"]
    if name == "wal.sync":
        kinds.append("transient")
    if name in ("wal.sync", "wal.fsync"):
        kinds.append("fsync-fail")
    return kinds


class FaultPlan:
    """One armed fault schedule plus the crossing trace it records.

    Args:
        root: Directory prefix stripped from site paths to form stable
            discriminators (temp dirs differ per run; crossings must not).
        crash_at: Crossing id (``name@disc#ordinal``) to crash at.
        crash_mode: ``"crash"`` (default), ``"torn"`` (truncate within
            the in-flight tail first), or ``"bitflip"`` (corrupt one bit
            of the tail first). Torn/bitflip degrade to a plain crash at
            crossings with no file or no in-flight tail.
        transient_at: Crossing id at which to start raising ``OSError``.
        transient_times: How many consecutive visits of that
            ``(name, discriminator)`` raise (bounded-retry testing).
        fsync_fail_at: Crossing id (a ``wal.fsync``/``wal.sync`` site) at
            which one ``OSError`` is raised to model a failed sync.
        seed: Drives the deterministic choice of tear length / flipped
            bit.
    """

    def __init__(
        self,
        *,
        root: Optional[str] = None,
        crash_at: Optional[str] = None,
        crash_mode: str = "crash",
        transient_at: Optional[str] = None,
        transient_times: int = 2,
        fsync_fail_at: Optional[str] = None,
        seed: int = 7,
    ) -> None:
        if crash_mode not in CRASH_MODES:
            raise ValueError(f"crash_mode must be one of {CRASH_MODES}")
        self.root = os.path.abspath(root) if root else None
        self.crash_at = crash_at
        self.crash_mode = crash_mode
        self.transient_at = transient_at
        self.transient_times = transient_times
        self.fsync_fail_at = fsync_fail_at
        self.seed = seed
        #: Crossing ids in first-hit order (enumeration output).
        self.crossings: List[str] = []
        #: Whether the scheduled crash fired.
        self.fired = False
        self.fired_crossing: Optional[str] = None
        #: Transient OSErrors actually raised (observability for tests).
        self.transients_injected = 0
        self.fsyncs_failed = 0
        self._counts: Dict[tuple, int] = {}
        self._transient_left: Optional[int] = None
        self._transient_key: Optional[tuple] = None
        self._lock = threading.Lock()
        if transient_at is not None:
            name, disc, _ordinal = _split_crossing(transient_at)
            self._transient_key = (name, disc)

    # -- queries -------------------------------------------------------------

    def crossing_ids(self) -> List[str]:
        """Every crossing hit, sorted (stable across thread schedules)."""
        with self._lock:
            return sorted(self.crossings)

    def crossing_names(self) -> List[str]:
        """Distinct failpoint names hit (catalog-coverage checks)."""
        with self._lock:
            return sorted({c.split("@", 1)[0] for c in self.crossings})

    # -- the hot path --------------------------------------------------------

    def hit(
        self,
        name: str,
        path: Optional[str],
        scope: Optional[str],
        tail_bytes: int,
        handle,
    ) -> None:
        """Record one crossing; fire whatever fault is scheduled there."""
        with self._lock:
            if self.fired:
                # Post-crash: other threads may still be mid-operation;
                # they proceed unharmed (their work was in flight at the
                # crash, which is exactly the state recovery must handle).
                return
            disc = self._discriminator(name, path, scope)
            ordinal = self._counts.get((name, disc), 0)
            self._counts[(name, disc)] = ordinal + 1
            crossing = f"{name}@{disc}#{ordinal}"
            self.crossings.append(crossing)

            if self._transient_key == (name, disc):
                start = _split_crossing(self.transient_at)[2]
                if start <= ordinal < start + self.transient_times:
                    self.transients_injected += 1
                    raise OSError(f"injected transient I/O error at {crossing}")

            if crossing == self.fsync_fail_at:
                self.fsyncs_failed += 1
                raise OSError(f"injected sync failure at {crossing}")

            if crossing == self.crash_at:
                self.fired = True
                self.fired_crossing = crossing
                if path is not None and self.crash_mode in ("torn", "bitflip"):
                    _mutate_tail(
                        path, handle, tail_bytes, self.crash_mode, self.seed
                    )
                raise InjectedCrash(crossing)

    def _discriminator(
        self, name: str, path: Optional[str], scope: Optional[str]
    ) -> str:
        if scope is not None:
            return scope
        if path is None:
            return "-"
        absolute = os.path.abspath(path)
        if self.root is not None and absolute.startswith(self.root + os.sep):
            return absolute[len(self.root) + 1 :].replace(os.sep, "/")
        return os.path.basename(absolute)


def _split_crossing(crossing: str) -> tuple:
    name, _at, rest = crossing.partition("@")
    disc, _hash, ordinal = rest.rpartition("#")
    return name, disc, int(ordinal) if ordinal else 0


def _mutate_tail(
    path: str, handle, tail_bytes: int, mode: str, seed: int
) -> None:
    """Tear or bit-flip the unsynced tail of ``path`` before crashing."""
    if handle is not None:
        try:
            handle.flush()
        except (OSError, ValueError):
            pass
    try:
        size = os.path.getsize(path)
    except OSError:
        return
    tail = min(tail_bytes, size) if tail_bytes > 0 else 0
    if tail <= 0 or size <= 0:
        return
    if mode == "torn":
        # Truncate strictly inside the in-flight tail: at least one byte
        # of it is lost, at least zero survive — a classic torn write.
        cut = 1 + (seed + size) % tail
        with open(path, "r+b") as raw:
            raw.truncate(size - cut)
        return
    # bitflip: corrupt one bit inside the tail region.
    offset = size - 1 - ((seed + size) % tail)
    with open(path, "r+b") as raw:
        raw.seek(offset)
        byte = raw.read(1)
        if not byte:
            return
        raw.seek(offset)
        raw.write(bytes([byte[0] ^ 0x04]))


#: The armed plan, if any. Module-global on purpose: threading a plan
#: through every engine constructor would make fault injection part of
#: every signature; a process-wide registry mirrors how real failpoint
#: systems (RocksDB's SyncPoint, FreeBSD's fail(9)) work.
_ACTIVE: Optional[FaultPlan] = None


def fault_point(
    name: str,
    *,
    path: Optional[str] = None,
    scope: Optional[str] = None,
    tail_bytes: int = 0,
    handle=None,
) -> None:
    """Declare one failpoint crossing. A near-free no-op when unarmed.

    ``path`` (a real file) or ``scope`` (a logical label) discriminates
    repeated sites; ``tail_bytes`` bounds how much of the file's tail is
    in flight (un-synced) and therefore eligible for torn-write /
    bit-flip mutation; ``handle`` lets the plan flush buffered bytes
    before mutating the file underneath.
    """
    plan = _ACTIVE
    if plan is None:
        return
    plan.hit(name, path, scope, tail_bytes, handle)


@contextmanager
def fault_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the block (no nesting)."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a FaultPlan is already armed")
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None


def inject_worker_death(tree, reason: str = "injected worker death") -> None:
    """Kill a tree's background workers, as a hardware fault would.

    The pool records an :class:`InjectedWorkerDeath` as its first error
    and stops its threads; the next foreground operation on the tree
    raises :class:`~repro.errors.BackgroundError`, and a
    :class:`~repro.shard.ShardedStore` owning the tree quarantines the
    shard. This is the official hook the degraded-mode tests, benchmark,
    and ``examples/fault_smoke.py`` use.
    """
    coordinator = getattr(tree, "_background", None)
    if coordinator is None:
        raise ValueError(
            "inject_worker_death needs a tree in background_mode"
        )
    coordinator.kill_workers(InjectedWorkerDeath(reason))
