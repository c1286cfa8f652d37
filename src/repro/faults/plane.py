"""The deterministic, seed-driven fault-injection plane.

A :class:`FaultPlane` owns a set of *armed* faults keyed by named
injection sites.  Instrumented code in :mod:`repro.hyperenclave`
declares sites by calling the module-level hooks below — which are
no-ops (one ``is None`` test) unless a plane is installed, so the
production paths pay nothing:

* ``crash_point(site, label)`` — declared between the mutation steps of
  every hypercall (``"hc.add_page"``, ...); an armed plane raises
  :class:`~repro.errors.FaultInjected`, modelling a crash at exactly
  that step.
* ``allocation_gate(site, exhaust)`` — declared at the top of every
  allocator (``"frames.alloc"``, ``"epcm.allocate"``); an armed plane
  either raises ``FaultInjected`` or, when armed as ``EXHAUST``, the
  allocator's own typed exhaustion error.
* ``filter_write(paddr, value)`` — threaded through
  ``PhysMemory.write_word``; an armed plane raises (``"phys.write"``, a
  write fault) or silently flips a seed-chosen bit of the value
  (``"phys.flip"``, modelling DRAM corruption).

Arming is by *hit index*: ``plane.arm("frames.alloc", index=2)`` fires
on the third time the site is reached.  A plane built with
``record_only=True`` never fires but still counts hits, which is how
the campaign driver enumerates the injectable steps of a hypercall
before sweeping them.  Everything derives from the integer ``seed``;
two planes with equal seeds and arms behave identically, which the
crash-step noninterference campaign relies on.
"""

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import FaultInjected
from repro.obs import trace as _trace

# Arm kinds.
RAISE = "raise"      # raise FaultInjected at the site
EXHAUST = "exhaust"  # raise the site's own typed resource error
FLIP = "flip"        # corrupt the value in flight (write sites only)

# The well-known non-hypercall sites (hypercall sites are "hc.<name>").
SITE_FRAME_ALLOC = "frames.alloc"
SITE_EPCM_ALLOC = "epcm.allocate"
SITE_PHYS_WRITE = "phys.write"
SITE_PHYS_FLIP = "phys.flip"


@dataclass(frozen=True)
class FiredFault:
    """One injection that actually happened."""

    site: str
    hit: int
    kind: str
    label: Optional[str] = None


@dataclass
class _Arm:
    index: int
    kind: str
    flip_bit: int = 0


class FaultPlane:
    """Deterministic fault injector: seed + arms -> reproducible faults."""

    def __init__(self, seed=0, record_only=False):
        self.seed = seed
        self.record_only = record_only
        self._arms: Dict[str, List[_Arm]] = {}
        self.counts: Dict[str, int] = {}
        self.hit_labels: Dict[str, List[Optional[str]]] = {}
        self.fired: List[FiredFault] = []
        self._suspended = 0

    # -- arming -------------------------------------------------------------------

    def arm(self, site, index=0, kind=RAISE):
        """Fire ``kind`` on the ``index``-th hit of ``site`` (0-based)."""
        if kind not in (RAISE, EXHAUST, FLIP):
            raise ValueError(f"unknown fault kind {kind!r}")
        flip_bit = random.Random(
            f"{self.seed}:{site}:{index}").randrange(64)
        self._arms.setdefault(site, []).append(
            _Arm(index=index, kind=kind, flip_bit=flip_bit))
        return self

    def reset_counts(self):
        """Forget hit counters (arms stay) — one sweep run per reset."""
        self.counts.clear()
        self.hit_labels.clear()

    # -- the hit protocol ------------------------------------------------------------

    def _record(self, site, label):
        count = self.counts.get(site, 0)
        self.counts[site] = count + 1
        self.hit_labels.setdefault(site, []).append(label)
        return count

    def hit(self, site, label=None) -> Optional[_Arm]:
        """Register one hit; raise or return the matching non-raising arm."""
        if self._suspended:
            return None
        count = self._record(site, label)
        for arm in self._arms.get(site, ()):
            if arm.index == count:
                self.fired.append(FiredFault(site, count, arm.kind, label))
                _trace.event("fault.fired", site=site, hit=count,
                             kind=arm.kind)
                if arm.kind == RAISE and not self.record_only:
                    raise FaultInjected(site, hit=count, label=label)
                return arm
        return None

    def filter_value(self, site, value, label=None):
        """A hit that carries a value (write sites): may flip one bit."""
        arm = self.hit(site, label=label)
        if arm is not None and arm.kind == FLIP and not self.record_only:
            return value ^ (1 << arm.flip_bit)
        return value

    @contextmanager
    def suspend(self):
        """No injection inside the block (used during rollback)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def __repr__(self):
        return (f"FaultPlane(seed={self.seed}, arms="
                f"{ {s: [(a.index, a.kind) for a in arms] for s, arms in self._arms.items()} }, "
                f"fired={len(self.fired)})")


# ---------------------------------------------------------------------------
# The installed plane (module-global so instrumented code needs no plumbing)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[FaultPlane] = None


def active_plane() -> Optional[FaultPlane]:
    return _ACTIVE


@contextmanager
def installed(plane: FaultPlane):
    """Make ``plane`` the active plane for the dynamic extent."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plane
    try:
        yield plane
    finally:
        _ACTIVE = previous


@contextmanager
def suspended():
    """Suppress the active plane (if any) for the dynamic extent."""
    plane = _ACTIVE
    if plane is None:
        yield
        return
    with plane.suspend():
        yield


# -- the hooks instrumented code calls (cheap when no plane is installed) -----


def crash_point(site, label=None):
    """Declare an abort-at-step-k site (between hypercall mutations)."""
    plane = _ACTIVE
    if plane is not None:
        plane.hit(site, label=label)


def allocation_gate(site, exhaust=None):
    """Declare an allocator entry point; may raise injected exhaustion."""
    plane = _ACTIVE
    if plane is None:
        return
    arm = plane.hit(site)
    if arm is not None and arm.kind == EXHAUST and not plane.record_only:
        raise exhaust() if exhaust is not None else FaultInjected(site)


def filter_write(paddr, value):
    """Declare a physical-memory write; may fault or corrupt the value."""
    plane = _ACTIVE
    if plane is None:
        return value
    plane.hit(SITE_PHYS_WRITE, label=f"paddr={paddr:#x}")
    return plane.filter_value(SITE_PHYS_FLIP, value,
                              label=f"paddr={paddr:#x}")
