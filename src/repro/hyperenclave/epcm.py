"""The Enclave Page Cache Map — layer 10.

"RustMonitor maintains a data structure (i.e., Enclave Page Cache Map,
EPCM) to store the EPC page states, and checks the correctness for
memory allocation."  (Sec. 2.1)

One entry per EPC frame, recording whether the frame is free, which
enclave owns it, the guest virtual address it backs, and its role.  The
EPCM invariant of Sec. 5.2 demands that *every* enclave page-table
mapping corresponds to a valid entry here — the benches plant a monitor
that skips the bookkeeping and watch the invariant catch it.
"""

import enum
from dataclasses import dataclass
from typing import Optional

from repro.concurrency import scheduler as conc
from repro.errors import EpcExhausted, EpcmError
from repro.faults import plane as faults
from repro.hyperenclave.hardware import Value


class PageState(enum.Enum):
    """Lifecycle state of an EPC page (a reduced SGX page-type lattice)."""

    FREE = "free"
    SECS = "secs"      # enclave control structure (ECREATE)
    REG = "reg"        # regular enclave page (EADD)
    PT = "pt"          # enclave page-table frame


@dataclass(frozen=True)
class EpcmEntry:
    """One EPCM slot: state, owning enclave, backed VA."""
    state: PageState = PageState.FREE
    owner: Optional[int] = None   # enclave id
    va: Optional[int] = None      # the GVA the page backs (REG pages)

    def is_free(self):
        return self.state is PageState.FREE

    def snapshot(self):
        return (self.state.value, self.owner, self.va)


_FREE = EpcmEntry()


class Epcm:
    """The EPC map: an array of entries indexed by EPC frame index.

    ``value`` is the whole array as an immutable
    :class:`~repro.hyperenclave.hardware.Value` of frozen entries;
    every state transition stores a new one.
    """

    def __init__(self, layout):
        self.layout = layout
        self.value = Value((_FREE,) * layout.epc_size)

    # -- lookups -----------------------------------------------------------------

    def entry_for_frame(self, frame) -> EpcmEntry:
        return self.value[self.layout.epc_index(frame)]

    def entries(self):
        """(frame, entry) pairs for the whole EPC."""
        return [(self.layout.epc_base + i, e)
                for i, e in enumerate(self.value)]

    def owned_by(self, eid):
        return [(frame, entry) for frame, entry in self.entries()
                if entry.owner == eid and not entry.is_free()]

    def free_count(self):
        return sum(1 for e in self.value if e.is_free())

    def lookup_mapping(self, eid, va) -> Optional[int]:
        """The EPC frame recorded for ``(enclave, va)``, if any."""
        for frame, entry in self.entries():
            if (entry.owner == eid and entry.va == va
                    and entry.state is PageState.REG):
                return frame
        return None

    # -- state transitions ----------------------------------------------------------

    def allocate(self, eid, state, va=None) -> int:
        """Claim the lowest free EPC frame for enclave ``eid``.

        Exhaustion (organic, or injected via the ``epcm.allocate``
        site) raises the typed :class:`~repro.errors.EpcExhausted`.
        """
        conc.guard_mutation("epcm")
        faults.allocation_gate(
            faults.SITE_EPCM_ALLOC,
            exhaust=lambda: EpcExhausted("EPC exhausted (injected)"))
        for index, entry in enumerate(self.value):
            if entry.is_free():
                self._set(index, EpcmEntry(state, eid, va))
                return self.layout.epc_base + index
        raise EpcExhausted("EPC exhausted")

    def record(self, frame, eid, state, va=None):
        """Claim a *specific* free frame (used when the caller has
        already chosen the frame)."""
        conc.guard_mutation("epcm")
        entry = self.entry_for_frame(frame)
        if not entry.is_free():
            raise EpcmError(
                f"EPC frame {frame} is busy "
                f"(state={entry.state.value}, owner={entry.owner})")
        self._set(self.layout.epc_index(frame), EpcmEntry(state, eid, va))

    def release(self, frame, eid):
        """Free one frame after checking ownership."""
        conc.guard_mutation("epcm")
        entry = self.entry_for_frame(frame)
        if entry.is_free():
            raise EpcmError(f"EPC frame {frame} already free")
        if entry.owner != eid:
            raise EpcmError(
                f"EPC frame {frame} owned by {entry.owner}, not {eid}")
        self._set(self.layout.epc_index(frame), _FREE)

    def release_all(self, eid):
        """Free every frame owned by enclave ``eid`` (destroy path)."""
        conc.guard_mutation("epcm")
        self.value = Value(_FREE if entry.owner == eid else entry
                           for entry in self.value)

    def _set(self, index, entry):
        value = self.value
        self.value = Value(value[:index] + (entry,) + value[index + 1:])

    def snapshot(self):
        return tuple(e.snapshot() for e in self.value)

    def clone(self):
        """An independent map over the same layout, sharing the entry
        array value."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        return new
