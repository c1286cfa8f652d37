"""repro.engine — the parallel checking fabric.

Every checking engine in the repro (fault campaigns, the
bounded-preemption interleaving explorer, the two-world noninterference
sweeps, the hardened pure checks) is a pure function of its seeds, so
its work units can be fanned out across processes and the results
merged deterministically.  This package provides:

* :mod:`repro.engine.executor` — a deterministic sharded
  ``ProcessPoolExecutor`` wrapper: work units are partitioned by a
  stable shard key and the merge reassembles results in unit order, so
  the combined output is byte-identical to the sequential run no matter
  how many workers raced.
* :mod:`repro.engine.fingerprint` — canonical 64-bit fingerprints over
  the mutable monitor structures (phys, pt_allocator, epcm, enclaves,
  cpus/TLBs), stable across worker processes.
* :mod:`repro.engine.memo` — fingerprint-keyed memoisation of invariant
  sweeps, the vCPU consistency check, and noninterference observation
  diffs, with per-structure dirty tracking: only families whose
  structures changed since an already-certified state are re-checked.
* :mod:`repro.engine.campaigns` — parallel counterparts of every
  sequential campaign, each byte-identical to its sequential twin.
* :mod:`repro.engine.bug_matrix` — the 13-planted-bug conviction
  matrix, runnable through the parallel fabric.

Time to verdict is measured from outside the package, by the benchmark
under ``perfbench/``.
"""

from repro.engine.executor import ShardedExecutor, resolve_workers
from repro.engine.fingerprint import (
    STRUCTURES,
    fingerprint,
    state_fingerprint,
    structure_fingerprints,
)
from repro.engine.memo import FAMILY_DEPS, CheckMemo
from repro.engine.campaigns import (
    parallel_bitflip_campaigns,
    parallel_crash_in_critical_section_campaign,
    parallel_crash_ni_campaign,
    parallel_crash_step_campaign,
    parallel_interleaving_campaign,
    parallel_pure_check_grid,
    sequential_pure_check_grid,
)
from repro.engine.bug_matrix import run_matrix, run_matrix_parallel

__all__ = [
    "ShardedExecutor",
    "resolve_workers",
    "STRUCTURES",
    "fingerprint",
    "state_fingerprint",
    "structure_fingerprints",
    "FAMILY_DEPS",
    "CheckMemo",
    "parallel_bitflip_campaigns",
    "parallel_crash_in_critical_section_campaign",
    "parallel_crash_ni_campaign",
    "parallel_crash_step_campaign",
    "parallel_interleaving_campaign",
    "parallel_pure_check_grid",
    "sequential_pure_check_grid",
    "run_matrix",
    "run_matrix_parallel",
]
