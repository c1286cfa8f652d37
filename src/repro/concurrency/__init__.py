"""Multi-vCPU concurrency plane: deterministic scheduling, systematic
interleaving exploration, lock discipline, and TLB shootdown checking.

The sequential model checks "every hypercall preserves the invariants";
this package checks the quantifier the production monitor actually
lives under: *every interleaving of hypercalls across vCPUs*.  The
pieces:

* :mod:`~repro.concurrency.scheduler` — cooperative token-passing
  scheduler; every execution is a pure function of a small replayable
  :class:`~repro.concurrency.scheduler.Schedule`.
* :mod:`~repro.concurrency.locks` — the per-structure lock model and
  the three-rule discipline checker.
* :mod:`~repro.concurrency.shootdown` — the TLB shootdown protocol and
  the stale-translation detector.
* :mod:`~repro.concurrency.explorer` — bounded-preemption BFS with a
  persistent-set-style reduction over the schedule space.

Campaign drivers that tie these to the invariant families, the
noninterference check, and PR 1's fault plane live in
:mod:`repro.faults.campaign`.
"""

from repro.concurrency.explorer import (
    ExplorationResult,
    Violation,
    explore,
    result_violations,
)
from repro.concurrency.locks import (
    LOCK_ENCLAVES,
    LOCK_EPCM,
    LOCK_FRAMES,
    LockManager,
    enclave_lock,
    lock_rank,
    order_locks,
)
from repro.concurrency.scheduler import (
    BRANCH_KINDS,
    SCHED_STATS,
    VCPU_CRASH_SITE,
    Decision,
    DeterministicScheduler,
    RunResult,
    Schedule,
    Task,
    YieldPoint,
    active_scheduler,
    current_task,
    current_vid,
    guard_mutation,
    installed,
    record_phys_write,
    release_locks,
    suspended,
    yield_point,
)
from repro.concurrency.shootdown import detect_stale_translations, tlb_shootdown
from repro.concurrency.snapshot import (
    SnapshotPlan,
    SnapshotTree,
    locality_key,
    process_tree,
    reset_process_tree,
)

__all__ = [
    "BRANCH_KINDS",
    "SCHED_STATS",
    "VCPU_CRASH_SITE",
    "Decision",
    "DeterministicScheduler",
    "ExplorationResult",
    "LOCK_ENCLAVES",
    "LOCK_EPCM",
    "LOCK_FRAMES",
    "LockManager",
    "RunResult",
    "Schedule",
    "SnapshotPlan",
    "SnapshotTree",
    "Task",
    "Violation",
    "YieldPoint",
    "active_scheduler",
    "current_task",
    "current_vid",
    "detect_stale_translations",
    "enclave_lock",
    "explore",
    "guard_mutation",
    "installed",
    "lock_rank",
    "locality_key",
    "order_locks",
    "process_tree",
    "record_phys_write",
    "reset_process_tree",
    "release_locks",
    "result_violations",
    "suspended",
    "tlb_shootdown",
    "yield_point",
]
