"""A small pool of background worker threads with cooperative scheduling.

Workers repeatedly call a *step* function that performs one unit of work
(claim-and-flush one buffer, plan-and-run one compaction) and reports
whether any work was available. A worker runs a step only because work
*may* exist; the wake protocol has three rules:

1. **An empty step wakes nobody.** A step that changed state announces
   it itself with :meth:`BackgroundWorkerPool.kick`; a step that found
   nothing has nothing to announce. (A notify on the idle path is a busy
   loop as soon as two roles share the condition: each empty step wakes
   the sibling, whose empty step wakes the first.)
2. **A kick is never lost.** :meth:`~BackgroundWorkerPool.kick` bumps a
   generation under the condition; a worker samples it before its step
   and sleeps after an empty step only if it has not moved — so a kick
   that lands while the step was looking for work reruns the step
   instead of being slept through.
3. **No poll unless the work is timed.** An idle worker sleeps until
   kicked. Only a pool built with ``poll=True`` also re-runs its steps
   every :data:`IDLE_WAIT_S`, for work that becomes due without any
   state change — a tree asks for it only when its config sets
   ``tombstone_ttl_us`` (Lethe's time-triggered plans).

Exceptions escaping a step are captured — never propagated into the
thread — so the owning tree can surface them on the next foreground
operation (see :class:`~repro.errors.BackgroundError`).
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

#: Seconds an idle worker of a polling pool sleeps before re-polling.
#: Every *state-change* hand-off (rotate → flush, flush install →
#: compaction, compaction install → next compaction, resume, stop) is
#: delivered by :meth:`BackgroundWorkerPool.kick`, so a pool polls only
#: for time-triggered plans (Lethe-style delete-persistence deadlines),
#: which become due because the simulated clock advanced — something
#: reads do without kicking anyone.
IDLE_WAIT_S = 0.02

#: A unit of background work: returns True if it found work to do.
WorkStep = Callable[[], bool]


class BackgroundWorkerPool:
    """Named worker threads stepping work functions until stopped.

    The pool is deliberately policy-free: *what* a worker does (and in
    which priority order) lives in the step callables the coordinator
    provides. The pool owns thread lifecycle — spawn, park/wake, pause for
    tests, and join on stop.
    """

    def __init__(self, name: str = "lsm-bg", *, poll: bool = False) -> None:
        self.name = name
        #: Re-run empty steps every :data:`IDLE_WAIT_S` (rule 3).
        self._poll = poll
        self._threads: List[threading.Thread] = []
        self._cv = threading.Condition()
        self._stopped = False
        self._paused = False
        #: Bumped by every :meth:`kick`; see rule 2 in the module docstring.
        self._generation = 0
        #: The first failure only: a persistently failing step is retried
        #: on every poll, and nothing ever reads the later exceptions.
        self._error: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------

    def spawn(self, role: str, count: int, step: WorkStep) -> None:
        """Start ``count`` daemon threads running ``step`` in a loop."""
        for index in range(count):
            thread = threading.Thread(
                target=self._run,
                args=(step,),
                name=f"{self.name}-{role}-{index}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def stop(self) -> None:
        """Stop all workers and join them. Idempotent."""
        with self._cv:
            self._stopped = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join()
        self._threads = []

    # -- coordination -------------------------------------------------------

    def kick(self) -> None:
        """Announce that new work may be available.

        Wakes sleeping workers, and makes any worker currently inside a
        step run another one before it sleeps.
        """
        with self._cv:
            self._generation += 1
            self._cv.notify_all()

    def inject_failure(self, exc: BaseException) -> None:
        """Record ``exc`` as a worker failure and stop the pool.

        The fault-injection hook behind degraded-mode tests: equivalent
        to every worker dying mid-step. ``first_error`` reports the
        exception, so the owning tree's next foreground operation raises
        :class:`~repro.errors.BackgroundError` exactly as it would for an
        organic worker death.
        """
        self._record_failure(exc)
        self.stop()

    def pause(self) -> None:
        """Park all workers after their current step (test/maintenance)."""
        with self._cv:
            self._paused = True

    def resume(self) -> None:
        """Undo :meth:`pause`."""
        with self._cv:
            self._paused = False
            self._cv.notify_all()

    @property
    def first_error(self) -> Optional[BaseException]:
        """The first exception captured from any worker, if any."""
        with self._cv:
            return self._error

    # -- worker loop --------------------------------------------------------

    def _record_failure(self, exc: BaseException) -> None:
        with self._cv:
            if self._error is None:
                self._error = exc

    def _run(self, step: WorkStep) -> None:
        while True:
            with self._cv:
                while self._paused and not self._stopped:
                    self._cv.wait()
                if self._stopped:
                    return
                generation = self._generation
            did_work = False
            try:
                did_work = step()
            except BaseException as exc:  # surfaced via first_error
                self._record_failure(exc)
            with self._cv:
                if (
                    not did_work
                    and self._generation == generation
                    and not self._paused
                    and not self._stopped
                ):
                    self._cv.wait(IDLE_WAIT_S if self._poll else None)
