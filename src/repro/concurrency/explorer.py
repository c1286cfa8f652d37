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

Single-schedule :func:`replay` always re-executes from scratch
(stateless model checking), so a reported violation's ``(seed,
schedule)`` pair reproduces it standalone by construction.  Campaign
sweeps may instead restore a schedule's shared prefix from the
process-local snapshot tree (:mod:`repro.concurrency.snapshot`) and
execute only the suffix — the equivalence suites pin that restored
runs are byte-identical to from-scratch ones, so replayability is
unchanged.
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


def explore(run_schedule: Callable[[Schedule], RunResult], *,
            seed: int = 0,
            preemption_bound: int = 2,
            max_schedules: int = 512,
            crash: Optional[Tuple[int, int]] = None,
            check=None) -> ExplorationResult:
    """Bounded-preemption BFS over schedules.

    ``run_schedule(schedule)`` must rebuild the world from scratch and
    execute the schedule (deterministically — same schedule, same
    result).  ``check(schedule, result)``, if given, yields extra
    ``(kind, detail)`` findings per run (invariant sweeps,
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
        result = run_schedule(schedule)
        findings = list(check(schedule, result)) if check is not None \
            else []
        state.absorb(wave, [(result, findings)])
    return state.result()


@dataclass
class FrontierState:
    """The picklable bookkeeping of a bounded-preemption BFS in flight.

    Everything the wavefront loop mutates lives here — executed runs,
    violations, the FIFO frontier, and the child-dedup prefix set — so
    a durable orchestrator can checkpoint the exploration between waves
    and resume it in another process: :meth:`take_wave` pops the next
    wavefront, :meth:`absorb` does the append/dedup/branch bookkeeping.
    :func:`explore`, :func:`explore_batched` and the durable and service
    loops all drive this one class, so their equivalence (and
    resumed-equals-uninterrupted) is structural, not re-implemented.
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
            if len(schedule.preemptions) >= self.preemption_bound:
                continue
            last = (schedule.preemptions[-1][0]
                    if schedule.preemptions else -1)
            for decision in result.decisions:
                if decision.index <= last:
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


def explore_batched(run_batch, *,
                    seed: int = 0,
                    preemption_bound: int = 2,
                    max_schedules: int = 512,
                    crash: Optional[Tuple[int, int]] = None
                    ) -> ExplorationResult:
    """:func:`explore`, one BFS wavefront at a time — byte-identical.

    ``run_batch(schedules)`` executes a list of schedules (in any order,
    e.g. fanned out across worker processes) and returns, *aligned with
    its input*, ``(result, findings)`` pairs where ``findings`` are the
    extra ``(kind, detail)`` items a ``check`` hook would have produced.

    Identity with :func:`explore` holds by construction: a schedule's
    children always enqueue *behind* every schedule already in the FIFO
    frontier, so the one-at-a-time loop pops the entire current
    frontier before reaching any child generated along the way — which
    is exactly a wavefront.  Runs execute out of order in workers, but
    run results are pure functions of their schedules, and the
    :class:`FrontierState` append/dedup/branch bookkeeping replays in
    frontier order.
    """
    state = FrontierState.start(seed=seed,
                                preemption_bound=preemption_bound,
                                max_schedules=max_schedules, crash=crash)
    while True:
        wave = state.take_wave()
        if not wave:
            break
        state.absorb(wave, run_batch(wave))
    return state.result()


def replay(run_schedule, schedule) -> RunResult:
    """Re-execute one schedule (the standalone-reproduction entry)."""
    return run_schedule(schedule)
