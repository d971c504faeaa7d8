"""Coordination of background flushes/compactions for one LSM tree.

The :class:`BackgroundCoordinator` owns the *manifest lock* — the single
mutex guarding the tree's structural state (the active buffer reference,
the immutable-buffer queue, and each level's run list). Everything long
runs outside it: compaction merges and flush table-builds only read
immutable inputs, then commit their result under the lock in O(runs) list
operations. Reads take the lock just long enough to snapshot list
references (runs and SSTables are immutable once built), so gets and scans
never block behind background work — the version-style read path of
§2.1.2.

Scheduling follows SILK (§2.2.3): flushes get dedicated workers so a long
deep compaction can never starve buffer draining, and compaction workers
pick jobs in the planner's shallow-first scan order, which serves L0→L1
(the other ingestion-critical class) before deeper levels. Backpressure is
RocksDB-shaped: writers are *slowed* once Level 0 reaches twice its
compaction trigger and *stopped* while the immutable queue is full or
Level 0 reaches four times the trigger, with both accounted in
:class:`~repro.core.stats.TreeStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from threading import Condition, RLock
from typing import TYPE_CHECKING, List, Optional

from ..core.memtable import MemTable
from ..core.range_tombstone import RangeTombstone, dedupe
from ..core.run import SortedRun
from ..core.wal import WriteAheadLog
from ..errors import BackgroundError, ClosedError
from ..faults.registry import fault_point
from .pool import BackgroundWorkerPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.tree import LSMTree

#: Seconds between re-checks while blocked on a condition; wakeups are
#: normally delivered by notify_all, this bounds lost-wakeup latency.
_WAIT_S = 0.05

#: :class:`ImmutableBuffer` lifecycle states.
PENDING = "pending"
FLUSHING = "flushing"
FAILED = "failed"


@dataclass
class ImmutableBuffer:
    """One rotated (frozen) memory buffer awaiting flush.

    ``seq`` orders installs: flush workers may *build* tables for several
    buffers in parallel, but runs enter Level 0 strictly in rotation order
    so recency ordering across L0 runs is preserved.
    """

    memtable: MemTable
    wal: WriteAheadLog
    tombstones: List[RangeTombstone] = field(default_factory=list)
    seq: int = 0
    state: str = PENDING


class BackgroundCoordinator:
    """Runs one tree's flushes and compactions on worker threads."""

    def __init__(self, tree: "LSMTree") -> None:
        self.tree = tree
        config = tree.config
        self.manifest_lock = RLock()
        self._cv = Condition(self.manifest_lock)
        self._install_seq = 0
        self._busy_levels: set = set()
        self._compactions_in_flight = 0
        self._stopping = False
        #: RocksDB orders its L0 triggers compaction < slowdown < stop
        #: (4/20/36 by default): Level 0 *oscillates at* the compaction
        #: trigger under steady ingestion, so slowing writers there would
        #: slow them always. Backpressure starts at twice the compaction
        #: trigger and stops writes at four times (§2.2.3).
        self._slowdown_runs = config.level0_run_limit * 2
        self._stop_runs = config.level0_run_limit * 4
        self.pool = BackgroundWorkerPool(poll=config.tombstone_ttl_us > 0)
        self.pool.spawn("flush", config.flush_threads, self._flush_step)
        self.pool.spawn(
            "compact", config.compaction_threads, self._compaction_step
        )

    # -- foreground hooks ---------------------------------------------------

    def check_error(self) -> None:
        """Surface the first background failure, if any (§ error contract)."""
        error = self.pool.first_error
        if error is not None:
            raise BackgroundError(
                "a background flush/compaction worker failed; "
                "the tree refuses further writes"
            ) from error

    def before_write(self) -> None:
        """Apply backpressure ahead of one write: slowdown, then stop.

        Called *before* the writer takes the tree's write mutex, so a
        stalled writer never blocks the flush workers that will unstall
        it. With several client threads the queue bound is soft by up to
        the number of concurrent writers, as in RocksDB.
        """
        self.check_error()
        tree = self.tree
        config = tree.config
        stall_started: Optional[float] = None
        with self._cv:
            while not self._stopping:
                queue_full = len(tree._immutable) >= config.num_buffers
                l0_stopped = self._l0_run_count() >= self._stop_runs
                if not queue_full and not l0_stopped:
                    break
                if stall_started is None:
                    stall_started = time.perf_counter()
                    tree.stats.incr("stall_events")
                self.pool.kick()
                self._cv.wait(_WAIT_S)
                error = self.pool.first_error
                if error is not None:
                    break
            slowdown = self._l0_run_count() >= self._slowdown_runs
            if self._stopping:
                raise ClosedError("tree is closing")
        if stall_started is not None:
            tree.stats.incr(
                "stall_us", (time.perf_counter() - stall_started) * 1e6
            )
        self.check_error()
        if slowdown and config.slowdown_sleep_us > 0:
            tree.stats.incr("slowdown_events")
            tree.stats.incr("slowdown_us", config.slowdown_sleep_us)
            time.sleep(config.slowdown_sleep_us / 1e6)

    def backpressure_state(self) -> dict:
        """Snapshot the slowdown/stop triggers without blocking.

        Unlike :meth:`before_write` this never waits: it reports what a
        write issued right now would experience, so admission-control
        layers (the server) can convert ``"stop"`` into a retryable BUSY
        reply instead of parking a thread on the condition variable.
        """
        with self._cv:
            immutable = len(self.tree._immutable)
            l0_runs = self._l0_run_count()
        queue_full = immutable >= self.tree.config.num_buffers
        if queue_full or l0_runs >= self._stop_runs:
            state = "stop"
        elif l0_runs >= self._slowdown_runs:
            state = "slowdown"
        else:
            state = "ok"
        return {
            "state": state,
            "level0_runs": l0_runs,
            "immutable_buffers": immutable,
            "slowdown_trigger": self._slowdown_runs,
            "stop_trigger": self._stop_runs,
        }

    def rotate(self) -> None:
        """Freeze the active buffer (if non-empty) and wake flush workers."""
        with self._cv:
            self.tree._rotate_active()
            self._cv.notify_all()
        self.pool.kick()

    def wait_for_flushes(self) -> None:
        """Block until every rotated buffer has been installed in Level 0."""
        with self._cv:
            while (
                self.tree._immutable
                and not self._stopping
                and self.pool.first_error is None
            ):
                self.pool.kick()
                self._cv.wait(_WAIT_S)
        self.check_error()

    def drain(self) -> None:
        """Block until no background work is pending, running, or due."""
        tree = self.tree
        with self._cv:
            while not self._stopping:
                if self.pool.first_error is not None:
                    break
                busy = (
                    bool(tree._immutable)
                    or self._compactions_in_flight > 0
                    or bool(self._busy_levels)
                )
                if not busy and tree.planner.plan(
                    tree.levels, tree.disk.now_us
                ) is None:
                    break
                self.pool.kick()
                self._cv.wait(_WAIT_S)
        self.check_error()

    def stop(self) -> None:
        """Stop workers without draining; pending buffers stay in memory."""
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        self.pool.stop()

    def kill_workers(self, exc: BaseException) -> None:
        """Fault-injection hook: kill the workers as a hardware fault would.

        Unlike :meth:`stop`, the pool records ``exc`` as its first error,
        so foreground operations start raising
        :class:`~repro.errors.BackgroundError` — the trigger for shard
        quarantine in :class:`~repro.shard.ShardedStore`.
        """
        self.pool.inject_failure(exc)
        with self._cv:
            self._cv.notify_all()

    # -- worker steps -------------------------------------------------------

    def _flush_step(self) -> bool:
        """Claim the oldest pending buffer, build its tables, install them.

        Table building runs without the manifest lock; the install waits
        for rotation order (``seq``) so Level 0 stays newest-first even
        with several flush workers racing.
        """
        tree = self.tree
        with self._cv:
            # A FAILED buffer stays queued (its writes are acknowledged
            # and readable) and blocks every later install — runs enter
            # Level 0 in rotation order — so behind one there is nothing
            # to do: claiming the next buffer would build its tables,
            # fail to install them, and spin doing so.
            buffer = next(
                (b for b in tree._immutable if b.state != FLUSHING), None
            )
            claimable = buffer is not None and buffer.state == PENDING
            tree.stats.count_background_step(claimable)
            if not claimable:
                return False
            buffer.state = FLUSHING
        try:
            fault_point("flush.build", scope=f"rot-{buffer.seq}")
            entries = buffer.memtable.entries()
            tombstones = dedupe(buffer.tombstones)
            tables = (
                tree.executor.build_tables(
                    entries, cause="flush", range_tombstones=tombstones
                )
                if entries or tombstones
                else []
            )
            fault_point("flush.install", scope=f"rot-{buffer.seq}")
        except BaseException:
            with self._cv:
                buffer.state = FAILED
                self._cv.notify_all()
            raise
        with self._cv:
            while (
                self._install_seq != buffer.seq
                and not self._stopping
                and self.pool.first_error is None
            ):
                self._cv.wait(_WAIT_S)
            if self._install_seq != buffer.seq:
                # Aborted (stop or an earlier buffer failed): leave the
                # buffer pending and readable; tables are rebuilt on retry.
                buffer.state = PENDING
                return True
            if tables:
                tree._ensure_level(0).add_run_newest(SortedRun(tables))
                tree.stats.incr("flushes")
                tree.stats.incr(
                    "flushed_bytes",
                    sum(table.data_bytes for table in tables),
                )
            self._install_seq = buffer.seq + 1
            tree._immutable.remove(buffer)
            self._cv.notify_all()
        buffer.wal.close()
        self.pool.kick()
        return True

    def _compaction_step(self) -> bool:
        """Plan and run one compaction avoiding levels already in flight.

        The merge happens off-lock; only the plan and the level splice
        hold the manifest lock, so reads snapshot consistent state and
        disjoint-level jobs proceed in parallel.
        """
        tree = self.tree
        with self._cv:
            plan = tree.planner.plan_background(
                tree.levels, tree.disk.now_us, self._busy_levels
            )
            tree.stats.count_background_step(plan is not None)
            if plan is None:
                return False
            job = plan.job
            tree._ensure_level(job.target_level)
            self._busy_levels.update((job.source_level, job.target_level))
            self._compactions_in_flight += 1
        outputs = []
        try:
            executor = tree.executor
            if executor.trivial_move_applies(
                job, plan.bottommost, plan.target_leveled
            ):
                with self._cv:
                    executor.trivial_move(job, tree.levels)
            else:
                fault_point("compact.merge", scope=f"L{job.source_level}")
                outputs = executor.merge_job(job, plan.bottommost)
                fault_point("compact.install", scope=f"L{job.source_level}")
                with self._cv:
                    executor.install_job(
                        job, tree.levels, outputs, plan.target_leveled
                    )
                    # The merge may have dropped superseded versions;
                    # expire snapshots older than the tip (a trivial move
                    # drops nothing and skips this).
                    tree._note_version_gc()
                executor.refresh_cache(job, outputs)
        finally:
            with self._cv:
                self._busy_levels.difference_update(
                    (job.source_level, job.target_level)
                )
                self._compactions_in_flight -= 1
                self._cv.notify_all()
        self.pool.kick()
        return True

    # -- internals ----------------------------------------------------------

    def _l0_run_count(self) -> int:
        levels = self.tree.levels
        return levels[0].run_count if levels else 0
