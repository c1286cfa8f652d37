"""Deterministic cooperative multi-vCPU scheduler.

Instrumented code inside the monitor calls :func:`yield_point` at every
physical-memory write and shootdown IPI; the scheduler's script driver
adds its own yields at every security-model step, lock acquire and
hypercall return.  Each yield hands control to the scheduler, which
picks the next vCPU.  Because the *only* scheduling freedom in the
whole system is that choice at each decision point, an execution is
fully determined by its :class:`Schedule` — a seed, a tuple of
preemptions, and an optional vCPU crash — which is what makes every
explored interleaving replayable from a single small value.

Every vCPU is driven as a generator continuation by one plain-Python
loop on the calling thread.  The driver owns every suspension outside
a hypercall body: it parks at the ``step`` yield, takes the step's
declared lock plan one ``lock.acquire`` park at a time, runs the body,
and parks at ``hc.return``.  A body can therefore suspend only where
it is really interrupted — at a ``shootdown.ipi``, or at a
``phys.write`` a hand-made schedule forces.  A body that starts while
a forced preemption is still pending borrows a pooled fiber from
:mod:`repro.concurrency.arena` so it can suspend mid-stack; every other
body is a plain function call whose yields resolve inline.  Either
way one routine makes every decision
(:meth:`DeterministicScheduler._decide`).  No thread is created or
joined per run.

The module doubles as the instrumentation plane (mirroring
``repro.faults.plane``): all hooks are module-level functions that
no-op unless a scheduler is installed *and* the caller is executing one
of its vCPU tasks.  Monitor code can therefore call them
unconditionally; sequential callers pay nothing.  The one exception is
the undo journal (:func:`txn_scope`), which every hypercall keeps,
inside a task or not.
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.concurrency.arena import process_arena
from repro.concurrency.locks import LockManager
from repro.errors import FaultInjected, LockProtocolViolation
from repro.obs.metrics import REGISTRY

#: Yield kinds at which the interleaving explorer considers preempting.
#: Anything else (plain ``phys.write`` under an owning lock) cannot be
#: the first action of a conflict, per the persistent-set argument in
#: :mod:`repro.concurrency.explorer`.
BRANCH_KINDS = frozenset(
    {"task.start", "step", "lock.acquire", "shootdown.ipi", "hc.return"})

#: Synthetic fault site used when a schedule crashes a vCPU.
VCPU_CRASH_SITE = "vcpu.crash"

#: How long either side of a fiber handoff waits for the other before
#: the run is declared hung.
FIBER_TIMEOUT_S = 60.0

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


#: Builds a record from the tuple of its fields, skipping the
#: keyword-checking ``__new__``: ``_new(Decision, fields)``.
_new = tuple.__new__


class Decision(NamedTuple):
    """One scheduling decision: who ran, who else could have.

    Records are named tuples, built with one ``tuple.__new__``: they
    refuse attribute assignment, build from keywords, pickle, and hash
    and compare by value.
    """

    index: int
    chosen: int
    chosen_kind: str
    enabled: Tuple[int, ...]
    kinds: Tuple[Tuple[int, str], ...]   # (vid, parked-at kind) per enabled


class YieldPoint(NamedTuple):
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
    becomes vCPU ``i``'s task, one opaque step) or a step-drivable
    workload object exposing ``scripts``/``positions``/
    ``steps_remaining``/``plan_step``/``count_step``/``run_step``/
    ``advance`` (see :class:`~repro.faults.campaign.ScriptWorkloads`) —
    the latter lets the loop drive scripts step by step and the
    snapshot tree park/restore tasks between driver yields.
    ``plan_step(vid)`` resolves a step once (a ``StepPlan``) and
    ``run_step(vid, plan)`` runs it as planned.  ``probe``, if given,
    is called with the monitor after every decision — outside any task,
    so it must not hit any yield points — and returns an iterable of
    findings (the stale-translation detector).

    Every not-done task gets a *driver generator* (:meth:`_drive`) and
    the loop simply ``next()``s the chosen task's driver at each
    decision.  The driver suspends (``yield``) exactly when a decision
    must be made by the loop — i.e. when the pick at a yield point is
    *not* the yielding task itself.

    For a script the driver does, per step and in this order
    (:meth:`_script_body`): plan the step; park at ``step``; count the
    step; park at one ``lock.acquire`` per lock of the plan, in global
    order, and take it; run the body; park at ``hc.return`` once a
    transactional hypercall released its locks
    (:meth:`_release_locks` defers that yield to the driver).  The
    transaction scope opens inside the body, after the whole plan is
    held, and takes the plan from the driver (:func:`take_step_plan`)
    instead of resolving it again.  Every driver park has an empty
    stack under it, which is what makes those parks capture-eligible
    for the snapshot tree.

    The body's own yields (``phys.write``, ``shootdown.ipi``) are the
    only ones with a stack under them.  Once every forced preemption
    index is behind ``len(decisions)`` (monotone — decisions only grow)
    each of them must pick the running task itself: the pick falls
    through *forced* (none pending) to *last* (the running task), and
    a body never waits for a lock because its whole plan is held
    before it starts.  Such a body runs as a plain function call, its
    yields decided inline with zero control transfers
    (:meth:`_can_inline`).  A body that starts while a forced
    preemption is pending runs on a pooled fiber
    (:mod:`repro.concurrency.arena`), which can suspend mid-stack under
    strict token passing.

    One routine, :meth:`_decide`, makes every decision, from the loop
    or inline from the yielding task, and appends its
    :class:`Decision` and its pick to ``trace``, which is kept beside
    ``decisions`` so nothing rebuilds it.
    """

    def __init__(self, monitor, workloads, schedule=None, *, probe=None):
        self.monitor = monitor
        self.schedule = schedule if schedule is not None else Schedule()
        self.locks = LockManager()
        self.probe = probe
        if hasattr(workloads, "run_step"):
            self.script_workloads = workloads
            fns = [None] * len(workloads.scripts)
        else:
            self.script_workloads = None
            fns = list(workloads)
        self.tasks = [Task(vid=vid, fn=fn) for vid, fn in enumerate(fns)]
        self.decisions: List[Decision] = []
        self.trace: List[int] = []         # chosen vid per decision
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
        # vid -> the held plan of its step, until take_step_plan
        self._handed: Dict[int, object] = {}
        # vids whose step is unwinding an exception through its
        # deferred hc.return park
        self._unwinding = set()
        # the snapshot tree's completion that ends this run, once found
        self._spliced = None

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
                chosen = self._decide()
                if chosen is None:
                    break
                self._advance(chosen)
                if self._spliced is not None:
                    self._splice()
                    break
                if self.probe is not None:
                    # outside any task, where every hook no-ops
                    self.stale.extend(self.probe(self.monitor) or ())
        return self.result()

    def _splice(self):
        """End the run with the completion :meth:`_emit` found: close
        every driver (each sits at a driver park, so nothing runs),
        then take the completion's records and final task states."""
        for gen in self._gens.values():
            gen.close()
        self._spliced.apply_to(self)

    def result(self) -> RunResult:
        return RunResult(
            schedule=self.schedule,
            decisions=tuple(self.decisions),
            yields=tuple(self.yields),
            trace=tuple(self.trace),
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

    # -- the decision -----------------------------------------------------------

    def _decide(self, yielding=None) -> Optional[Task]:
        """Make one scheduling decision and return the chosen task.

        The pick is the vCPU a forced preemption names at this index,
        else the last pick, else the lowest vCPU, among the enabled
        ones: not done, and free to take the lock they wait for.  From
        the loop (``yielding`` None) this returns None once every task
        is done.  From inside the ``yielding`` task, which strict token
        passing lets see exactly what the loop would, it decides only
        when the pick is that task — under a small preemption bound
        almost always — and the record and the probe happen inline.
        Any other pick (a preemption, a lock handover, a finished task)
        returns None with nothing recorded, and the task suspends so
        the loop decides; the :class:`RunResult` is the same.
        """
        locks = self.locks
        enabled = [task for task in self.tasks if not task.done and (
            task.waiting_lock is None
            or not locks.would_block(task.vid, task.waiting_lock))]
        if not enabled:
            live = [task for task in self.tasks if not task.done]
            if live and yielding is None:
                raise RuntimeError(
                    "scheduler deadlock: "
                    + "; ".join(f"vcpu{t.vid} waits on "
                                f"{t.waiting_lock!r}" for t in live))
            return None
        index = len(self.decisions)
        forced = self._preempt.get(index)
        last = self._last
        chosen = None
        for task in enabled:
            if task.vid == forced:
                chosen = task
                break
            if task.vid == last:
                chosen = task
        if chosen is None:
            chosen = enabled[0]
        if yielding is not None and chosen is not yielding:
            return None
        if self.snapshots is not None:
            self.snapshots.offer(self)
        vid = chosen.vid
        self.decisions.append(_new(Decision, (
            index, vid, chosen.pending_kind,
            tuple([task.vid for task in enabled]),
            tuple([(task.vid, task.pending_kind) for task in enabled]))))
        self.trace.append(vid)
        self._last = vid
        if yielding is not None:
            SCHED_STATS["inline_decisions"] += 1
            if self.probe is not None:
                # hook-free, as on the loop: silence this thread (a
                # fiber's, for a body on a fiber)
                _TLS.depth += 1
                try:
                    self.stale.extend(self.probe(self.monitor) or ())
                finally:
                    _TLS.depth -= 1
        return chosen

    def _record_yield(self, task, kind, detail):
        """The front half of every yield: the record, the crash check,
        the pending-kind update."""
        vid = task.vid
        index = task.yield_index = task.yield_index + 1
        self.yields.append(_new(YieldPoint, (
            vid, index, kind, detail, self.locks.held_by(vid))))
        if task.crashed:
            # the crash already fired; the vCPU must not execute further
            raise _VCpuParked()
        crash = self.schedule.crash
        if crash is not None and crash == (vid, index):
            task.crashed = True
            raise FaultInjected(VCPU_CRASH_SITE, hit=index, label=kind)
        task.pending_kind = kind
        task.pending_detail = detail

    # -- hook dispatch ----------------------------------------------------------

    def _task_yield(self, task, kind, detail):
        """A yield with a stack under it (a body's, or an opaque
        callable's): record it, then decide inline or park the task's
        fiber."""
        self._record_yield(task, kind, detail)
        if self._decide(task) is not None:
            return
        fiber = self._fiber_of.get(task.vid)
        if fiber is None:
            raise RuntimeError(
                f"scheduler invariant violated: vcpu{task.vid} needed a "
                f"context switch at {kind!r} inside an inline step")
        fiber.park(FIBER_TIMEOUT_S)

    def _release_locks(self, task, where):
        """Drop the task's locks; defer the hc.return yield if scripted."""
        released = self.locks.release_all(task.vid)
        if self.script_workloads is not None and not _TLS.depth:
            # hoisted: the driver emits the hc.return yield once the
            # step's stack has unwound (see class docstring)
            self._deferred[task.vid] = where
            return released
        try:
            if not _TLS.depth:
                self._task_yield(task, "hc.return", where)
        finally:
            self.locks.check_none_held(task.vid, f"return from {where}")
        return released

    # -- the inline/fiber dichotomy ---------------------------------------------

    def _can_inline(self) -> bool:
        return len(self.decisions) > self._max_forced

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
        """One script, step by step, in the order the class docstring
        gives.  A task restored from a snapshot node enters just past
        the park its ``pending_kind`` names (``task.start`` is the top)
        and re-executes nothing."""
        workloads = self.script_workloads
        vid = task.vid
        resume = task.pending_kind
        if resume == "hc.return":
            workloads.advance(vid)
        while workloads.steps_remaining(vid):
            plan = workloads.plan_step(vid)
            if resume not in ("step", "lock.acquire"):
                yield from self._emit(task, "step",
                                      type(plan.step).__name__)
            if resume != "lock.acquire":
                workloads.count_step()
            ran = False
            try:
                yield from self._acquire(task, plan,
                                         resume == "lock.acquire")
                self._handed[vid] = plan
                if self._can_inline():
                    workloads.run_step(vid, plan)
                else:
                    yield from self._fiber_step(
                        task, lambda: workloads.run_step(vid, plan))
                ran = True
            finally:
                self._handed.pop(vid, None)    # no transactional body ran
                # Emit a deferred hc.return even while an exception
                # unwinds the step (a crashed vCPU's _VCpuParked): the
                # yield belongs to the hypercall's return, so a crashed
                # vCPU still records it.  Parked there, the task goes
                # on to re-raise, not to its next step, so no snapshot
                # or resume key may be taken meanwhile.
                where = self._deferred.pop(vid, None)
                if where is not None:
                    if not ran:
                        self._unwinding.add(vid)
                    try:
                        yield from self._emit(task, "hc.return", where)
                    finally:
                        self._unwinding.discard(vid)
                        self.locks.check_none_held(
                            vid, f"return from {where}")
            workloads.advance(vid)
            resume = None

    def _acquire(self, task, plan, parked):
        """Take a step's lock plan in global order, parking at one
        ``lock.acquire`` yield before each lock; the loop only picks a
        task whose awaited lock is free.  ``parked``: a restored task
        was captured at the first of these parks (captures hold no
        lock), so it takes that lock without parking again.

        A crash delivered at one of these parks stops the hypercall
        before its body and its transaction begin, so there is nothing
        to roll back: the vCPU drops what it holds and still returns.
        """
        vid = task.vid
        try:
            for name in plan.locks:
                task.waiting_lock = name
                if not parked:
                    yield from self._emit(task, "lock.acquire", name)
                parked = False
                task.waiting_lock = None
                self.locks.acquire(vid, name)
        except FaultInjected:
            self.locks.release_all(vid)
            self._deferred[vid] = plan.handler.__name__
            raise

    def _callable_body(self, task):
        # An opaque callable is one indivisible "step": the inline
        # conditions, monotone for the whole run once true, make every
        # yield inside it pick the task itself.
        if self._can_inline():
            task.fn()
        else:
            yield from self._fiber_step(task, task.fn)

    def _emit(self, task, kind, detail):
        """A driver-level yield point (empty stack below it).

        Past the last forced preemption of a leaf run, the snapshot
        plan may recognise the state as one an earlier run went on
        from to its end (``SnapshotPlan.resume``): the task then hands
        control back to the loop undecided, and the loop splices that
        run's records in and stops (:meth:`_splice`)."""
        self._record_yield(task, kind, detail)
        plan = self.snapshots
        if (plan is not None and plan.completes
                and len(self.decisions) > self._max_forced):
            self._spliced = plan.resume(self)
        if self._spliced is not None or self._decide(task) is None:
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
            status, exc = fiber.start(fn, FIBER_TIMEOUT_S)
            while status == "parked":
                yield
                SCHED_STATS["handoffs"] += 1
                status, exc = fiber.resume(FIBER_TIMEOUT_S)
        finally:
            self._fiber_of.pop(task.vid, None)
            process_arena().release(fiber)
        if exc is not None:
            raise exc


# ---------------------------------------------------------------------------
# Module-level instrumentation plane (mirrors repro.faults.plane)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[DeterministicScheduler] = None


class _PlaneLocal(threading.local):
    """Per thread: how many blocks silence the hooks (:func:`suspended`,
    an inline probe), and the undo scope :func:`journalling` set."""

    depth = 0
    txn_scope = None


_TLS = _PlaneLocal()


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


@contextmanager
def suspended():
    """Silence all hooks on this thread (rollback must not re-enter)."""
    _TLS.depth += 1
    try:
        yield
    finally:
        _TLS.depth -= 1


def yield_point(kind, detail=None):
    """A potential context switch; no-op outside a scheduled task."""
    sched = _ACTIVE
    if sched is None or _TLS.depth:
        return
    task = sched._current
    if task is None:
        return
    sched._task_yield(task, kind, detail)


def take_step_plan():
    """The plan of the script step whose locks the driver holds for the
    running vCPU, handed over once (to the body's transactional
    wrapper); None outside a script step or once taken."""
    task = current_task()
    return None if task is None else _ACTIVE._handed.pop(task.vid, None)


def take_locks(names):
    """Hold ``names`` for the running vCPU without a yield: the entry of
    a transactional hypercall whose plan the script driver did not take
    (an opaque task's, or one a planted override enters).  A lock the
    vCPU holds already is skipped, and another vCPU holding one is a
    :class:`~repro.errors.LockProtocolViolation`."""
    sched = _ACTIVE
    if sched is None or _TLS.depth:
        return
    task = sched._current
    if task is None:
        return
    for name in names:
        owner = sched.locks.owner_of(name)
        if owner == task.vid:
            continue
        if owner is not None:
            raise LockProtocolViolation(
                "contended-entry", task.vid,
                f"entered a hypercall while vCPU {owner} holds {name!r}")
        sched.locks.acquire(task.vid, name)


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
    if sched is None or _TLS.depth:
        return
    task = sched._current
    if task is None:
        return
    sched.locks.check_mutation(task.vid, name)


@contextmanager
def journalling(scope):
    """Make ``scope`` (a :class:`~repro.hyperenclave.txn.TxnScope`) the
    one :func:`txn_scope` finds on this thread while the block runs."""
    previous = _TLS.txn_scope
    _TLS.txn_scope = scope
    try:
        yield scope
    finally:
        _TLS.txn_scope = previous


def txn_scope():
    """The transaction scope open on this thread, or None if writes go
    unjournalled.  A hypercall body runs on one thread from start to
    end — inline, or on its fiber — so this is the running hypercall's
    scope, inside a vCPU task or not.

    Frame operations look it up once per frame and record the whole
    frame; single words go through :func:`record_phys_write`.
    """
    return None if _TLS.depth else _TLS.txn_scope


def record_phys_write(index, old_value):
    """Journal a physical-memory word about to be overwritten."""
    scope = txn_scope()
    if scope is not None:
        scope.record_word(index, old_value)
