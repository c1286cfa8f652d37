"""The per-structure lock model of the multi-vCPU monitor.

RustMonitor's shared state decomposes into independently lockable
structures, each with a fixed rank in one global acquisition order:

======================  =============================================
lock name               guards
======================  =============================================
``enclaves``            the ``eid -> Enclave`` directory + ``_next_eid``
``enclave:{eid}``       one enclave's mutable fields and its GPT/EPT
``epcm``                the EPC page-state map
``frames``              the page-table frame allocator bitmap
======================  =============================================

Every hypercall declares its lock set next to its body (strict
two-phase locking: all acquires up front in rank order, all releases
at hypercall return), which makes deadlock impossible by construction
and makes the three discipline rules checkable:

1. **global lock order** — acquires must be strictly rank-ascending
   within one hypercall,
2. **no hold-across-hypercall-return** — the lock set must be empty
   whenever a vCPU is between hypercalls,
3. **writes only under the owning lock** — every mutation entry point
   of a guarded structure asserts its lock is held by the executing
   vCPU.

The scheduler's script driver takes a step's declared set before the
body runs, parking at one ``lock.acquire`` yield per lock until it is
free; a hypercall entered any other way takes its set on entry,
without a yield.  The :class:`LockManager` enforces mutual exclusion
always and records discipline breaches, so a buggy monitor keeps
running and its downstream damage stays observable.
"""

from typing import Dict, List, Optional, Tuple

from repro.errors import LockProtocolViolation
from repro.obs import trace as _trace

LOCK_ENCLAVES = "enclaves"
LOCK_EPCM = "epcm"
LOCK_FRAMES = "frames"

_RANK_CLASS = {LOCK_ENCLAVES: 1, LOCK_EPCM: 3, LOCK_FRAMES: 4}


def enclave_lock(eid) -> str:
    """The lock guarding enclave ``eid``'s fields and page tables."""
    return f"enclave:{eid}"


def lock_rank(name) -> Tuple[int, int]:
    """Position of ``name`` in the global lock order (totally ordered)."""
    if name.startswith("enclave:"):
        return (2, int(name.split(":", 1)[1]))
    try:
        return (_RANK_CLASS[name], 0)
    except KeyError:
        raise ValueError(f"unknown lock {name!r}")


def order_locks(names) -> List[str]:
    """Deduplicate and sort ``names`` into global acquisition order."""
    return sorted(set(names), key=lock_rank)


class LockManager:
    """Mutual exclusion plus the three-rule discipline checker.

    Mutual exclusion is always enforced (``would_block`` /
    ``acquire``); discipline breaches are appended to ``violations``.
    """

    def __init__(self):
        self._owner: Dict[str, int] = {}          # lock -> vid
        self._held: Dict[int, List[str]] = {}     # vid -> locks, in order
        self.violations: List[LockProtocolViolation] = []

    # -- queries ------------------------------------------------------------------

    def owner_of(self, name) -> Optional[int]:
        return self._owner.get(name)

    def holds(self, vid, name) -> bool:
        return self._owner.get(name) == vid

    def held_by(self, vid) -> Tuple[str, ...]:
        return tuple(self._held.get(vid, ()))

    def any_held(self) -> bool:
        return bool(self._owner)

    def would_block(self, vid, name) -> bool:
        """Is ``name`` held by a *different* vCPU than ``vid``?"""
        owner = self._owner.get(name)
        return owner is not None and owner != vid

    # -- transitions -----------------------------------------------------------------

    def acquire(self, vid, name):
        """Take a free (or re-entered) lock; checks the global order."""
        if self.would_block(vid, name):
            raise RuntimeError(       # scheduler bug, not a model error
                f"acquire of contended lock {name!r} by vCPU {vid}")
        held = self._held.setdefault(vid, [])
        if name in held:
            return
        if held and lock_rank(name) <= lock_rank(held[-1]):
            self._violate("lock-order", vid,
                          f"acquired {name!r} while holding "
                          f"{held[-1]!r} (rank order is "
                          f"{' < '.join(order_locks(held + [name]))})")
        self._owner[name] = vid
        held.append(name)
        _trace.event("lock.acquire", vid=vid, lock=name,
                     held=len(held))

    def release_all(self, vid) -> Tuple[str, ...]:
        """Drop every lock ``vid`` holds (the hypercall-return bulk
        release of strict two-phase locking)."""
        released = tuple(self._held.pop(vid, ()))
        for name in released:
            del self._owner[name]
        return released

    # -- discipline checks ------------------------------------------------------------

    def check_mutation(self, vid, name):
        """Rule 3: a guarded structure is being mutated by ``vid``."""
        if not self.holds(vid, name):
            self._violate(
                "unlocked-mutation", vid,
                f"mutated {name!r}-guarded state while holding "
                f"{list(self.held_by(vid)) or 'no locks'}")

    def check_none_held(self, vid, where):
        """Rule 2: ``vid`` sits outside any hypercall."""
        held = self.held_by(vid)
        if held:
            self._violate("hold-across-return", vid,
                          f"still holds {list(held)} at {where}")

    def _violate(self, rule, vid, message):
        self.violations.append(LockProtocolViolation(rule, vid, message))
