"""Deterministic cooperative multi-vCPU scheduler.

Instrumented code inside the monitor calls :func:`yield_point` at every
lock acquire, lock release (hypercall return), physical-memory write,
shootdown IPI, and security-model step; each such call hands control to
the scheduler, which picks the next vCPU.  Because the *only*
scheduling freedom in the whole system is that choice at each decision
point, an execution is fully determined by its :class:`Schedule` — a
seed, a tuple of preemptions, and an optional vCPU crash — which is
what makes every explored interleaving replayable from a single small
value.

Every vCPU is driven as a generator continuation by one plain-Python
loop on the calling thread.  A step whose scheduling is already
settled — no forced preemption pending, no lock held anywhere — is a
plain function call (its yields resolve inline, see
:meth:`DeterministicScheduler._decide_inline`); a step that might
genuinely context-switch mid-stack borrows a pooled fiber from
:mod:`repro.concurrency.arena`.  No thread is created or joined per
run, and the common case does zero ``Event`` handoffs.

The module doubles as the instrumentation plane (mirroring
``repro.faults.plane``): all hooks are module-level functions that
no-op unless a scheduler is installed *and* the caller is executing one
of its vCPU tasks.  Monitor code can therefore call them
unconditionally; sequential callers pay nothing.
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.concurrency.arena import process_arena
from repro.concurrency.locks import LockManager
from repro.errors import FaultInjected
from repro.obs.metrics import REGISTRY

#: Yield kinds at which the interleaving explorer considers preempting.
#: Anything else (plain ``phys.write`` under an owning lock) cannot be
#: the first action of a conflict, per the persistent-set argument in
#: :mod:`repro.concurrency.explorer`.
BRANCH_KINDS = frozenset(
    {"task.start", "step", "lock.acquire", "shootdown.ipi", "hc.return"})

#: Synthetic fault site used when a schedule crashes a vCPU.
VCPU_CRASH_SITE = "vcpu.crash"

#: Scheduler telemetry, surfaced through ``/metrics`` next to the
#: ``snapshot_cache.*`` family.  ``handoffs`` counts fiber start/resume
#: round trips; the inline path does none.
SCHED_STATS = REGISTRY.counter_group(
    "sched", ("handoffs", "inline_decisions", "arena_reuses",
              "fiber_steps", "runs"))


class _VCpuParked(BaseException):
    """Unwinds a crashed vCPU's continuation.

    A ``BaseException`` on purpose: after a crash is delivered the task
    must stop for good, and no ``except ReproError``/``except
    Exception`` in monitor or workload code may resurrect it.
    """


@dataclass(frozen=True)
class Schedule:
    """A complete, replayable description of one interleaving.

    ``preemptions`` maps decision indices to the vCPU forced at that
    decision; at every other decision the scheduler continues the
    previously running vCPU (or the lowest enabled one).  ``crash``, if
    set, kills vCPU ``crash[0]`` at its ``crash[1]``-th yield point
    with a :class:`~repro.errors.FaultInjected` at site ``vcpu.crash``.
    """

    seed: int = 0
    preemptions: Tuple[Tuple[int, int], ...] = ()
    crash: Optional[Tuple[int, int]] = None

    def describe(self) -> str:
        """The human-readable replay string printed with violations."""
        parts = [f"seed={self.seed}"]
        if self.preemptions:
            parts.append("preempt=" + ",".join(
                f"@{i}->vcpu{v}" for i, v in self.preemptions))
        if self.crash is not None:
            parts.append(f"crash=vcpu{self.crash[0]}@yield{self.crash[1]}")
        return " ".join(parts)


@dataclass(frozen=True)
class Decision:
    """One scheduling decision: who ran, who else could have."""

    index: int
    chosen: int
    chosen_kind: str
    enabled: Tuple[int, ...]
    kinds: Tuple[Tuple[int, str], ...]   # (vid, parked-at kind) per enabled


@dataclass(frozen=True)
class YieldPoint:
    """One executed yield: where a vCPU handed control back."""

    vid: int
    yield_index: int       # 1-based, per vCPU
    kind: str
    detail: Optional[str]
    locks_held: Tuple[str, ...]

    @property
    def in_critical_section(self) -> bool:
        return bool(self.locks_held)


@dataclass
class Task:
    """One vCPU's workload and its cooperative-scheduling state.

    Pure scheduling state: how the task *executes* (inline on the loop
    or on a pooled fiber) is the scheduler's private business and
    deliberately not represented here.  ``fn`` is the task's callable,
    or None when a step-drivable workload runs its script.
    """

    vid: int
    fn: Optional[Callable[[], None]]
    pending_kind: str = "task.start"
    pending_detail: Optional[str] = None
    yield_index: int = 0
    waiting_lock: Optional[str] = None
    crashed: bool = False
    parked: bool = False
    done: bool = False
    exc: Optional[BaseException] = None
    txn_scope: Optional[object] = None
    # Set by a snapshot-tree restore: the task is parked *inside* its
    # current script step, so the first ``resume_swallow`` yields it
    # re-executes were already recorded (and crash-checked) in the
    # cached prefix and are silently consumed instead of being recorded
    # again (1 for a ``step`` park, 2 for a ``lock.acquire`` park —
    # the step yield plus the acquire yield).
    resume_swallow: int = 0
    # Also set by a restore, for a task parked at ``hc.return``: its
    # script position was seeded *post-advance* (the next step to run),
    # unlike a live park where the position still names the step in
    # flight.  Snapshot capture consults this so it doesn't advance the
    # position a second time; cleared the moment the task records a new
    # yield of its own.
    restored_return: bool = False


@dataclass
class RunResult:
    """Everything one scheduled execution produced."""

    schedule: Schedule
    decisions: Tuple[Decision, ...]
    yields: Tuple[YieldPoint, ...]
    trace: Tuple[int, ...]                 # chosen vid per decision
    lock_violations: tuple
    stale_translations: tuple
    task_errors: Dict[int, BaseException]
    parked: Tuple[int, ...]

    @property
    def ok(self) -> bool:
        return (not self.lock_violations and not self.stale_translations
                and not self.task_errors)

    def critical_yields(self) -> Tuple[YieldPoint, ...]:
        """Yield points taken while the yielding vCPU held locks."""
        return tuple(y for y in self.yields if y.in_critical_section)


class DeterministicScheduler:
    """Runs one :class:`Schedule` over a set of vCPU workloads.

    ``workloads`` is either a list of callables (``workloads[i]``
    becomes vCPU ``i``'s task) or a step-drivable workload object
    exposing ``scripts``/``positions``/``run_step``/``advance``/
    ``steps_remaining`` (see
    :class:`~repro.faults.campaign.ScriptWorkloads`) — the latter lets
    the loop drive scripts step by step and the snapshot tree
    park/restore tasks between steps.  ``probe``, if given, is called
    with the monitor after every decision — outside any task, so it
    must not hit any yield points — and returns an iterable of
    findings (the stale-translation detector).

    Every not-done task gets a *driver generator* (:meth:`_drive`) and
    the loop simply ``next()``s the chosen task's driver at each
    decision.  The driver suspends (``yield``) exactly when a decision
    must be made by the loop — i.e. when the pick at a yield point is
    *not* the yielding task itself.

    The load-bearing dichotomy is decided at each step boundary
    (:meth:`_can_inline`): once every forced preemption index is behind
    ``len(decisions)`` (monotone — decisions only grow) and no lock is
    held anywhere, a step's every yield must pick the running task
    itself: ``_pick`` falls through *forced* (none pending) to *last*
    (the running task), and the running task can never be lock-blocked
    because only its own locks exist.  Such a step is executed as a
    plain function call — its yields resolve through
    :meth:`_decide_inline` with zero control transfers.  A step that
    cannot be proven settled runs on a pooled fiber
    (:mod:`repro.concurrency.arena`), which can suspend mid-stack under
    strict token passing.

    For step-drivable workloads the ``hc.return`` yield is *hoisted* to
    the driver: :meth:`_release_locks` releases the locks and defers
    the yield, and the driver emits it after the step's stack has fully
    unwound — which is what makes tasks parked at ``hc.return``
    capture-eligible for the snapshot tree (no stack to clone).
    Nothing observable runs between the in-stack site and the hoisted
    one: the post-release tail of a hypercall is pure bookkeeping
    (``check_none_held`` after ``release_all`` cannot fire, and a
    rejected ``StepOutcome`` is returned to a caller that discards it).
    """

    def __init__(self, monitor, workloads, schedule=None, *,
                 lock_manager=None, probe=None, timeout=60.0):
        self.monitor = monitor
        self.schedule = schedule if schedule is not None else Schedule()
        self.locks = lock_manager if lock_manager is not None else LockManager()
        self.probe = probe
        self.timeout = timeout
        if hasattr(workloads, "run_step"):
            self.script_workloads = workloads
            fns = [None] * len(workloads.scripts)
        else:
            self.script_workloads = None
            fns = list(workloads)
        self.tasks = [Task(vid=vid, fn=fn) for vid, fn in enumerate(fns)]
        self.decisions: List[Decision] = []
        self.yields: List[YieldPoint] = []
        self.stale: List[object] = []
        self._preempt = dict(self.schedule.preemptions)
        self._max_forced = max(self._preempt, default=-1)
        self._last: Optional[int] = None
        self._ran = False
        # Optional snapshot-tree capture hook (repro.concurrency
        # .snapshot.SnapshotPlan).  Offered the frozen world right
        # before each scheduling decision; None costs one ``is None``
        # test per decision.
        self.snapshots = None
        self._current: Optional[Task] = None
        self._gens: Dict[int, object] = {}
        self._fiber_of: Dict[int, object] = {}
        self._deferred: Dict[int, str] = {}

    # -- the run ----------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute the schedule to completion and return the record."""
        if self._ran:
            raise RuntimeError("a DeterministicScheduler is single-use; "
                               "build a fresh one to replay")
        self._ran = True
        SCHED_STATS["runs"] += 1
        with installed(self):
            for task in self.tasks:
                if not task.done:
                    # a task pre-completed by a snapshot restore ran its
                    # whole script inside the cached prefix
                    self._gens[task.vid] = self._drive(task)
            while True:
                chosen = self._loop_decide()
                if chosen is None:
                    break
                self._advance(chosen)
                self._probe_now()
        return self.result()

    def result(self) -> RunResult:
        return RunResult(
            schedule=self.schedule,
            decisions=tuple(self.decisions),
            yields=tuple(self.yields),
            trace=tuple(d.chosen for d in self.decisions),
            lock_violations=tuple(self.locks.violations),
            stale_translations=tuple(self.stale),
            task_errors={t.vid: t.exc for t in self.tasks
                         if t.exc is not None},
            parked=tuple(t.vid for t in self.tasks if t.parked),
        )

    def _advance(self, task):
        gen = self._gens[task.vid]
        self._current = task
        try:
            next(gen)
        except StopIteration:
            pass
        finally:
            self._current = None

    # -- scheduling policy ------------------------------------------------------

    def _runnable(self, task) -> bool:
        return task.waiting_lock is None or \
            not self.locks.would_block(task.vid, task.waiting_lock)

    def _pick(self, enabled):
        forced = self._preempt.get(len(self.decisions))
        if forced is not None:
            for task in enabled:
                if task.vid == forced:
                    return task
        if self._last is not None:
            for task in enabled:
                if task.vid == self._last:
                    return task
        return min(enabled, key=lambda t: t.vid)

    # -- decision machinery -----------------------------------------------------

    def _loop_decide(self) -> Optional[Task]:
        """One scheduling decision made from the loop; returns the
        chosen task, or None once every task is done."""
        live = [t for t in self.tasks if not t.done]
        if not live:
            return None
        enabled = [t for t in live if self._runnable(t)]
        if not enabled:
            raise RuntimeError(
                "scheduler deadlock: "
                + "; ".join(f"vcpu{t.vid} waits on "
                            f"{t.waiting_lock!r}" for t in live))
        if self.snapshots is not None:
            self.snapshots.offer(self)
        chosen = self._pick(enabled)
        self.decisions.append(Decision(
            index=len(self.decisions),
            chosen=chosen.vid,
            chosen_kind=chosen.pending_kind,
            enabled=tuple(t.vid for t in enabled),
            kinds=tuple((t.vid, t.pending_kind) for t in enabled)))
        self._last = chosen.vid
        return chosen

    def _record_yield(self, task, kind, detail) -> bool:
        """The front half of every yield: the record, the crash check,
        the pending-kind update.  Returns True when the yield was a
        snapshot-restore swallow (execution just continues)."""
        if task.resume_swallow:
            # Snapshot restore: this yield is the cached prefix's park
            # point being re-reached; everything about it — the yield
            # record, the crash check, the scheduling decision — is
            # already seeded.  Consume it and keep executing.
            task.resume_swallow -= 1
            return True
        task.restored_return = False
        task.yield_index += 1
        self.yields.append(YieldPoint(
            vid=task.vid, yield_index=task.yield_index, kind=kind,
            detail=detail, locks_held=self.locks.held_by(task.vid)))
        if (not task.crashed and self.schedule.crash is not None
                and self.schedule.crash == (task.vid, task.yield_index)):
            task.crashed = True
            raise FaultInjected(VCPU_CRASH_SITE,
                                hit=task.yield_index, label=kind)
        if task.crashed:
            # the crash already fired; the vCPU must not execute further
            raise _VCpuParked()
        task.pending_kind = kind
        task.pending_detail = detail
        return False

    def _decide_inline(self, task) -> bool:
        """Decide the next step from inside the yielding task itself.

        Strict token passing means the parked world is frozen while
        this vCPU runs, so the yielding task can evaluate exactly the
        pick the loop would make.  When that pick is the yielding vCPU
        itself — the overwhelmingly common case under a small
        preemption bound, where every non-preempted decision just
        continues the running vCPU — the decision, its record, and the
        probe all happen inline and no control transfer occurs.  Any
        other pick (a preemption, a lock handover, a finished task)
        suspends the task so the loop decides, and the recorded
        :class:`RunResult` is byte-identical either way.
        """
        live = [t for t in self.tasks if not t.done]
        enabled = [t for t in live if self._runnable(t)]
        if not enabled or self._pick(enabled) is not task:
            return False
        if self.snapshots is not None:
            self.snapshots.offer(self)
        self.decisions.append(Decision(
            index=len(self.decisions),
            chosen=task.vid,
            chosen_kind=task.pending_kind,
            enabled=tuple(t.vid for t in enabled),
            kinds=tuple((t.vid, t.pending_kind) for t in enabled)))
        self._last = task.vid
        SCHED_STATS["inline_decisions"] += 1
        if self.probe is not None:
            # The probe normally runs outside any task, where
            # instrumentation hooks no-op; ``suspended`` gives it the
            # same hook-free environment inside one.
            with suspended():
                self.stale.extend(self.probe(self.monitor) or ())
        return True

    def _probe_now(self):
        if self.probe is not None:
            self.stale.extend(self.probe(self.monitor) or ())

    # -- hook dispatch ----------------------------------------------------------

    def _task_yield(self, task, kind, detail):
        """Record the yield; decide inline or park the task's fiber."""
        if self._record_yield(task, kind, detail):
            return
        if self._decide_inline(task):
            return
        fiber = self._fiber_of.get(task.vid)
        if fiber is None:
            raise RuntimeError(
                f"scheduler invariant violated: vcpu{task.vid} needed a "
                f"context switch at {kind!r} inside an inline step")
        fiber.park(self.timeout)

    def _release_locks(self, task, where):
        """Drop the task's locks; defer the hc.return yield if scripted."""
        released = self.locks.release_all(task.vid)
        if self.script_workloads is not None and not _suspended():
            # hoisted: the driver emits the hc.return yield once the
            # step's stack has unwound (see class docstring)
            self._deferred[task.vid] = where
            return released
        try:
            if not _suspended():
                self._task_yield(task, "hc.return", where)
        finally:
            self.locks.check_none_held(task.vid, f"return from {where}")
        return released

    # -- the inline/fiber dichotomy ---------------------------------------------

    def _can_inline(self) -> bool:
        return (len(self.decisions) > self._max_forced
                and not self.locks.any_held())

    # -- drivers ----------------------------------------------------------------

    def _drive(self, task):
        """The driver generator: one per task; records how the task
        ended (finished, parked by a crash, or died with an error)."""
        try:
            if self.script_workloads is not None:
                yield from self._script_body(task)
            else:
                yield from self._callable_body(task)
        except _VCpuParked:
            task.parked = True
        except FaultInjected as exc:
            if exc.site == VCPU_CRASH_SITE:
                # crash delivered outside any hypercall: the vCPU just
                # stops, with nothing to roll back
                task.parked = True
            else:
                task.exc = exc
        except BaseException as exc:          # noqa: BLE001 - report, don't die
            task.exc = exc
        finally:
            task.done = True

    def _script_body(self, task):
        workloads = self.script_workloads
        vid = task.vid
        while workloads.steps_remaining(vid):
            try:
                if self._can_inline():
                    workloads.run_step(vid)
                else:
                    yield from self._fiber_step(
                        task, lambda: workloads.run_step(vid))
            finally:
                # Emit a deferred hc.return even while an exception
                # unwinds the step (a crashed vCPU's _VCpuParked): the
                # yield belongs to the hypercall wrapper's finally, so
                # a crashed vCPU still records it.
                where = self._deferred.pop(vid, None)
                if where is not None:
                    try:
                        yield from self._emit(task, "hc.return", where)
                    finally:
                        self.locks.check_none_held(
                            vid, f"return from {where}")
            workloads.advance(vid)

    def _callable_body(self, task):
        # An opaque callable is one indivisible "step": the inline
        # conditions, monotone for the whole run once true, make every
        # yield inside it pick the task itself.
        if self._can_inline():
            task.fn()
        else:
            yield from self._fiber_step(task, task.fn)

    def _emit(self, task, kind, detail):
        """A driver-level yield point (empty stack below it)."""
        if self._record_yield(task, kind, detail):
            return
        if self._decide_inline(task):
            return
        yield

    def _fiber_step(self, task, fn):
        """Run one step on a pooled fiber, yielding to the loop at
        every suspension until the step completes."""
        fiber, reused = process_arena().lease()
        if reused:
            SCHED_STATS["arena_reuses"] += 1
        SCHED_STATS["fiber_steps"] += 1
        self._fiber_of[task.vid] = fiber
        try:
            SCHED_STATS["handoffs"] += 1
            status, exc = fiber.start(fn, self.timeout)
            while status == "parked":
                yield
                SCHED_STATS["handoffs"] += 1
                status, exc = fiber.resume(self.timeout)
        finally:
            self._fiber_of.pop(task.vid, None)
            process_arena().release(fiber)
        if exc is not None:
            raise exc


# ---------------------------------------------------------------------------
# Module-level instrumentation plane (mirrors repro.faults.plane)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[DeterministicScheduler] = None
_TLS = threading.local()


def active_scheduler() -> Optional[DeterministicScheduler]:
    return _ACTIVE


@contextmanager
def installed(scheduler):
    """Install ``scheduler`` as the process-wide plane for one run."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a scheduler is already installed")
    _ACTIVE = scheduler
    try:
        yield scheduler
    finally:
        _ACTIVE = None


def current_task() -> Optional[Task]:
    """The executing :class:`Task`, or None outside any vCPU task."""
    sched = _ACTIVE
    if sched is None:
        return None
    return sched._current


def current_vid() -> Optional[int]:
    """The executing vCPU id, or None outside any scheduled task."""
    task = current_task()
    return None if task is None else task.vid


def _suspended() -> bool:
    return getattr(_TLS, "depth", 0) > 0


@contextmanager
def suspended():
    """Silence all hooks on this thread (rollback must not re-enter)."""
    _TLS.depth = getattr(_TLS, "depth", 0) + 1
    try:
        yield
    finally:
        _TLS.depth -= 1


def yield_point(kind, detail=None):
    """A potential context switch; no-op outside a scheduled task."""
    sched = _ACTIVE
    if sched is None or _suspended():
        return
    task = sched._current
    if task is None:
        return
    sched._task_yield(task, kind, detail)


def acquire_locks(monitor, names):
    """Pre-acquire ``names`` in global order (strict 2PL entry).

    Blocks (by parking at a ``lock.acquire`` yield that the scheduler
    only resumes once the lock is free) rather than spinning, so the
    enabled-set the explorer sees is exact.
    """
    sched = _ACTIVE
    if sched is None or _suspended():
        return
    task = sched._current
    if task is None:
        return
    from repro.concurrency.locks import order_locks
    for name in order_locks(names):
        task.waiting_lock = name
        sched._task_yield(task, "lock.acquire", name)
        task.waiting_lock = None
        sched.locks.acquire(task.vid, name)
        scope = task.txn_scope
        if scope is not None:
            scope.snapshot_structure(monitor, name)


def release_locks(where):
    """Release every lock of the current vCPU (hypercall return)."""
    sched = _ACTIVE
    if sched is None:
        return ()
    task = sched._current
    if task is None:
        return ()
    return sched._release_locks(task, where)


def guard_mutation(name):
    """Rule-3 checkpoint: a ``name``-guarded structure is being written."""
    sched = _ACTIVE
    if sched is None or _suspended():
        return
    task = sched._current
    if task is None:
        return
    sched.locks.check_mutation(task.vid, name)


def txn_journal() -> Optional[Dict[int, int]]:
    """The running task's undo journal, or None if writes go unjournalled.

    The journal maps word index to its pre-transaction value, first
    write wins (see :class:`~repro.hyperenclave.txn.TxnScope`).  Bulk
    frame operations look it up once per frame and record each word
    with ``journal.setdefault``; single words go through
    :func:`record_phys_write`.
    """
    if _suspended():
        return None
    task = current_task()
    if task is None or task.txn_scope is None:
        return None
    return task.txn_scope.journal


def record_phys_write(index, old_value):
    """Journal a physical-memory word about to be overwritten."""
    journal = txn_journal()
    if journal is not None:
        journal.setdefault(index, old_value)
