"""Systematic interleaving exploration: bounded-preemption search.

The scheduler makes every execution a pure function of its
:class:`~repro.concurrency.scheduler.Schedule`, so exploring
interleavings is exploring schedules.  The explorer runs breadth-first
over preemption counts (the CHESS insight: real concurrency bugs
almost always need very few preemptions, so bound them and search
exhaustively within the bound):

* The root schedule has no preemptions — each vCPU runs to completion
  in vid order, the "sequential" interleaving.
* From every executed schedule, a child is created for each decision
  point after its last preemption where a *different* enabled vCPU
  could have been chosen — but only at decisions whose chosen task was
  parked at a kind in :data:`~repro.concurrency.scheduler.BRANCH_KINDS`.

The branch-kind filter is the persistent-set/DPOR-lite reduction: a
vCPU parked at a plain ``phys.write`` is mid-critical-section, writing
under locks it already holds; those writes cannot be *observed* by any
other vCPU until a lock, hypercall-return, or step boundary, and the
stale-translation probe runs at every decision regardless, so deferring
the preemption to the next branch kind explores an equivalent trace.
Children are deduplicated by their predicted vid-trace prefix — two
preemption vectors forcing the same prefix replay the same execution.

A single schedule run on its own, with no campaign bound, always
re-executes from scratch (stateless model checking), so a reported
violation's ``(seed, schedule)`` pair reproduces it standalone by
construction.  Campaign sweeps instead restore a schedule's shared
prefix from a snapshot tree (:mod:`repro.concurrency.snapshot`) and
execute only the suffix — the equivalence suites pin that restored
runs are byte-identical to from-scratch ones, so replayability is
unchanged.
:func:`first_branch_index` is the one rule for where a schedule's
children branch; the tree captures snapshots only there.
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.concurrency.scheduler import BRANCH_KINDS, RunResult, Schedule
from repro.obs import trace as _trace


@dataclass(frozen=True)
class Violation:
    """One finding, pinned to the schedule that reproduces it."""

    schedule: Schedule
    kind: str        # lock-protocol | stale-translation | vcpu-error | ...
    detail: str

    def __str__(self):
        return f"[{self.kind}] {self.detail} (replay: {self.schedule.describe()})"


@dataclass
class ExplorationResult:
    """Everything a bounded-preemption sweep produced."""

    preemption_bound: int
    max_schedules: int
    runs: List[Tuple[Schedule, RunResult]] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    truncated: bool = False

    @property
    def schedules_run(self) -> int:
        return len(self.runs)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self):
        """Violations grouped by kind (dict of kind -> list)."""
        grouped = {}
        for violation in self.violations:
            grouped.setdefault(violation.kind, []).append(violation)
        return grouped

    def summary(self) -> str:
        """One human line: schedules explored and what was found."""
        head = (f"{self.schedules_run} schedules explored "
                f"(preemption bound {self.preemption_bound}"
                f"{', truncated' if self.truncated else ''}): ")
        if self.ok:
            return head + "no violations"
        parts = [f"{len(items)} {kind}"
                 for kind, items in sorted(self.by_kind().items())]
        return head + ", ".join(parts)


def result_violations(schedule, result) -> List[Violation]:
    """The violations a single :class:`RunResult` carries on its own."""
    found = []
    for violation in result.lock_violations:
        found.append(Violation(schedule, "lock-protocol", str(violation)))
    for stale in result.stale_translations:
        found.append(Violation(schedule, "stale-translation", str(stale)))
    for vid in sorted(result.task_errors):
        exc = result.task_errors[vid]
        found.append(Violation(
            schedule, "vcpu-error",
            f"vcpu{vid} died: {type(exc).__name__}: {exc}"))
    return found


def _note_schedule(schedule, new_violations):
    """Trace one explored schedule and any violations it surfaced."""
    if not _trace.enabled():
        return
    _trace.event("schedule", schedule=schedule.describe(),
                 violations=len(new_violations))
    for violation in new_violations:
        _trace.event("violation", kind=violation.kind,
                     detail=violation.detail,
                     schedule=violation.schedule.describe())


def explore(run_schedule: Callable[[Schedule, int], RunResult], *,
            seed: int = 0,
            preemption_bound: int = 2,
            max_schedules: int = 512,
            crash: Optional[Tuple[int, int]] = None,
            check=None) -> ExplorationResult:
    """Bounded-preemption BFS over schedules.

    ``run_schedule(schedule, branch_bound)`` executes the schedule on a
    fresh world (deterministically — same schedule, same result); it
    may restore a cached prefix instead of re-running it, as long as
    the result is byte-identical to a from-scratch run.
    ``branch_bound`` is :meth:`FrontierState.branch_bound`: a runner
    that caches work for the schedule's children caches under it, any
    other runner ignores it.  ``check(schedule, result)``, if given,
    yields extra ``(kind, detail)`` findings per run (invariant sweeps,
    noninterference) that become :class:`Violation` entries.

    A :class:`FrontierState` driven one schedule at a time: each
    schedule runs and is checked before its children are enqueued.
    """
    state = FrontierState.start(seed=seed,
                                preemption_bound=preemption_bound,
                                max_schedules=max_schedules, crash=crash)
    while True:
        wave = state.take_wave(limit=1)
        if not wave:
            break
        schedule = wave[0]
        result = run_schedule(schedule, state.branch_bound(wave))
        findings = list(check(schedule, result)) if check is not None \
            else []
        state.absorb(wave, [(result, findings)])
    return state.result()


def first_branch_index(schedule: Schedule,
                       preemption_bound: int) -> Optional[int]:
    """The first decision index at which a child of ``schedule`` can
    branch under ``preemption_bound``, or None when no child can exist.

    A child adds one forced preemption *after* the schedule's last one,
    so a schedule already at the bound has no children, and one below
    it branches no earlier than the decision after its last preemption
    (the root schedule from decision 0).  :meth:`FrontierState.absorb`
    enqueues children by this rule, and
    :class:`~repro.concurrency.snapshot.SnapshotPlan` captures
    snapshots only where it allows a child: anywhere else a capture
    either repeats one an ancestor's run offered or is never looked up.
    """
    if len(schedule.preemptions) >= preemption_bound:
        return None
    return schedule.preemptions[-1][0] + 1 if schedule.preemptions else 0


@dataclass
class FrontierState:
    """The picklable bookkeeping of a bounded-preemption BFS in flight.

    Everything the wavefront loop mutates lives here — executed runs,
    violations, the FIFO frontier, and the child-dedup prefix set — so
    a durable orchestrator can checkpoint the exploration between waves
    and resume it in another process: :meth:`take_wave` pops the next
    wavefront, :meth:`absorb` does the append/dedup/branch bookkeeping.
    Two drivers walk it: :func:`explore`, one schedule at a time in
    process, and the durable wave step
    (:class:`~repro.service.orchestrator.CampaignStep`), a whole wave
    or a fair-share chunk of one per pool map, which the durable and
    service loops drive.  Their equivalence (and
    resumed-equals-uninterrupted) is structural, not re-implemented: a
    schedule's children always enqueue *behind* every schedule already
    in the FIFO frontier, so the one-at-a-time loop pops the entire
    current frontier before reaching any child generated along the
    way, which is exactly a wavefront; and run results are pure
    functions of their schedules, so running a wave out of order in
    workers and absorbing it in frontier order changes nothing.
    """

    preemption_bound: int
    max_schedules: int
    seed: int = 0
    crash: Optional[Tuple[int, int]] = None
    runs: List[Tuple[Schedule, RunResult]] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    truncated: bool = False
    frontier: deque = field(default_factory=deque)
    seen_prefixes: set = field(default_factory=set)

    @classmethod
    def start(cls, *, seed: int = 0, preemption_bound: int = 2,
              max_schedules: int = 512,
              crash: Optional[Tuple[int, int]] = None) -> "FrontierState":
        """A fresh exploration: the empty schedule on the frontier."""
        state = cls(preemption_bound=preemption_bound,
                    max_schedules=max_schedules, seed=seed, crash=crash)
        state.frontier.append(Schedule(seed=seed, crash=crash))
        return state

    @property
    def done(self) -> bool:
        return self.truncated or not self.frontier

    def take_wave(self, limit: Optional[int] = None) -> List[Schedule]:
        """Pop the next wavefront (empty when the exploration is done).

        Marks the exploration truncated — without popping — when the
        run cap is already met.

        ``limit`` caps how many schedules are popped: the multi-campaign
        scheduler runs a frontier in fair-share chunks, and because the
        frontier is FIFO and :meth:`absorb` appends children at the
        back, absorbing a wave chunk-by-chunk visits schedules in
        exactly the order one whole-wave absorb would — the chunked
        exploration's result is identical by construction.
        """
        if not self.frontier:
            return []
        if len(self.runs) >= self.max_schedules:
            self.truncated = True
            return []
        count = min(len(self.frontier),
                    self.max_schedules - len(self.runs))
        if limit is not None:
            count = min(count, max(limit, 0))
        return [self.frontier.popleft() for _ in range(count)]

    def branch_bound(self, wave: List[Schedule]) -> int:
        """The preemption bound under which a child of the just-popped
        ``wave`` can still run: the exploration's own, or 0 — no
        schedule is below it — when ``max_schedules`` ends the sweep
        first.

        Children enqueue behind the whole frontier, so none of them
        runs once ``runs + wave + frontier`` reaches the cap.  Runners
        that cache work for a schedule's children (the snapshot tree's
        captures) then treat the wave like schedules at the bound.
        """
        if (len(self.runs) + len(wave) + len(self.frontier)
                >= self.max_schedules):
            return 0
        return self.preemption_bound

    def pending(self) -> int:
        """Schedules still eligible to run (frontier capped by the
        remaining ``max_schedules`` budget)."""
        if len(self.runs) >= self.max_schedules:
            return 0
        return min(len(self.frontier),
                   self.max_schedules - len(self.runs))

    def absorb(self, wave: List[Schedule], outputs) -> None:
        """Fold one executed wave back in, enqueueing its children.

        ``outputs`` aligns with ``wave``: ``(result, findings)`` per
        schedule, findings being the extra ``(kind, detail)`` items a
        ``check`` hook would have produced.
        """
        for schedule, (result, findings) in zip(wave, outputs):
            self.runs.append((schedule, result))
            known = len(self.violations)
            self.violations.extend(result_violations(schedule, result))
            self.violations.extend(
                Violation(schedule, kind, detail)
                for kind, detail in findings)
            _note_schedule(schedule, self.violations[known:])
            first = first_branch_index(schedule, self.preemption_bound)
            if first is None:
                continue
            for decision in result.decisions:
                if decision.index < first:
                    continue
                if decision.chosen_kind not in BRANCH_KINDS:
                    continue
                for vid in decision.enabled:
                    if vid == decision.chosen:
                        continue
                    prefix = result.trace[:decision.index] + (vid,)
                    if prefix in self.seen_prefixes:
                        continue
                    self.seen_prefixes.add(prefix)
                    self.frontier.append(Schedule(
                        seed=self.seed,
                        preemptions=schedule.preemptions
                        + ((decision.index, vid),),
                        crash=schedule.crash))

    def result(self) -> ExplorationResult:
        return ExplorationResult(preemption_bound=self.preemption_bound,
                                 max_schedules=self.max_schedules,
                                 runs=self.runs,
                                 violations=self.violations,
                                 truncated=self.truncated)
