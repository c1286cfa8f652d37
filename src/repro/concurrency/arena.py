"""Reusable fiber arena for the deterministic scheduler.

The scheduler runs almost every script step as a plain
function call on the scheduling loop's own thread.  The exception is a
step that might genuinely context-switch mid-stack — a pending forced
preemption, or a lock already held somewhere — which needs a real call
stack that can block while the loop keeps scheduling.  A :class:`Fiber`
is that stack: a parked daemon thread that executes one step at a time
on request and can suspend itself cooperatively at a yield point.

Fibers are **pooled per process** (:class:`FiberArena`): a schedule
that needs one borrows it, runs the step, and returns it, so the
thread-creation/join cost is paid once per worker process, not per
schedule.  Handoffs on the fiber path are counted in the ``sched.*``
metrics family.
"""

import itertools
import os
import threading
from typing import Callable, List, Optional, Tuple

_fiber_ids = itertools.count()


class Fiber:
    """One reusable suspendable call stack (a parked daemon thread).

    Strict token passing: at any instant either the caller is running
    (fiber blocked in :meth:`park` or idle between steps) or the fiber
    is running (caller blocked in ``_wait``) — never both, which is what
    lets the scheduler treat a fiber segment as a vCPU that holds the
    one scheduling token.
    """

    def __init__(self):
        self._work = threading.Event()
        self._report = threading.Event()
        self._fn: Optional[Callable[[], None]] = None
        self._status: Tuple[str, Optional[BaseException]] = ("done", None)
        self._thread = threading.Thread(
            target=self._loop, name=f"fiber-{next(_fiber_ids)}",
            daemon=True)
        self._thread.start()

    # -- fiber-thread side -------------------------------------------------------

    def _loop(self):
        while True:
            self._work.wait()
            self._work.clear()
            fn, self._fn = self._fn, None
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                self._status = ("done", exc)
            else:
                self._status = ("done", None)
            self._report.set()

    def park(self, timeout: float):
        """Suspend the running step mid-stack (called *on* the fiber
        thread from a yield hook); returns when the caller resumes it."""
        self._status = ("parked", None)
        self._report.set()
        if not self._work.wait(timeout):
            raise RuntimeError(
                f"parked fiber was never resumed within {timeout}s")
        self._work.clear()

    # -- caller side -------------------------------------------------------------

    def start(self, fn: Callable[[], None], timeout: float):
        """Run ``fn`` on the fiber; block until it parks or finishes.

        Returns ``("parked", None)`` or ``("done", exc-or-None)``.
        """
        self._fn = fn
        self._report.clear()
        self._work.set()
        return self._wait(timeout)

    def resume(self, timeout: float):
        """Resume a parked step; block until it parks again or finishes."""
        self._report.clear()
        self._work.set()
        return self._wait(timeout)

    def _wait(self, timeout: float):
        if not self._report.wait(timeout):
            raise RuntimeError(
                f"fiber did not report back within {timeout}s")
        return self._status

    @property
    def idle(self) -> bool:
        """True when no step is in flight (safe to return to the arena)."""
        return self._status[0] == "done"


class FiberArena:
    """A per-process pool of :class:`Fiber` stacks.

    ``lease``/``release`` bracket one fiber segment; a fiber abandoned
    mid-park (a run that aborted with a task still suspended) is simply
    dropped — its daemon thread either times out of :meth:`Fiber.park`
    or dies with the process, and the arena never hands it out again.
    """

    def __init__(self):
        self._free: List[Fiber] = []
        self.created = 0

    def lease(self) -> Tuple[Fiber, bool]:
        """A ready fiber plus whether it was reused from the pool."""
        if self._free:
            return self._free.pop(), True
        self.created += 1
        return Fiber(), False

    def release(self, fiber: Fiber):
        if fiber.idle:
            self._free.append(fiber)

    def __len__(self):
        return len(self._free)


_PROCESS_ARENA: Optional[FiberArena] = None


def process_arena() -> FiberArena:
    """This process's fiber arena (created on first use; pool workers
    fork before their first unit, so each warms its own)."""
    global _PROCESS_ARENA
    if _PROCESS_ARENA is None:
        _PROCESS_ARENA = FiberArena()
    return _PROCESS_ARENA


def reset_process_arena(arena: Optional[FiberArena] = None):
    """Replace (or clear) the process arena — test hook."""
    global _PROCESS_ARENA
    _PROCESS_ARENA = arena


# ``fork`` copies the arena object but not its threads: a pooled fiber
# in the child is a corpse whose ``start`` would block forever.  The
# sharded executor pins the ``fork`` start method, so drop the inherited
# pool in every forked child and let it warm its own.
os.register_at_fork(after_in_child=reset_process_arena)


__all__ = ["Fiber", "FiberArena", "process_arena", "reset_process_arena"]
