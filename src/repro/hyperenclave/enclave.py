"""Enclave objects — layer 11.

An enclave bundles the monitor-side state of one trusted execution
domain: its ELRANGE (the GVA window backed by EPC pages), its
marshalling buffer, the two monitor-managed page tables (GPT and EPT,
Sec. 2.1 / Fig. 1), its lifecycle state, and the saved vCPU context used
across entries/exits.
"""

import enum
from collections import namedtuple

from repro.errors import HypercallError
from repro.hyperenclave.hardware import value_field
from repro.hyperenclave.mbuf import MarshallingBuffer


class EnclaveState(enum.Enum):
    """ECREATE → EADD* → EINIT → (enter/exit)* lifecycle."""

    CREATED = "created"          # ECREATE done, pages may be added
    INITIALIZED = "initialized"  # EINIT done, may be entered
    RUNNING = "running"          # a vCPU is inside
    DESTROYED = "destroyed"


#: What an enclave's lifecycle changes, as one immutable value: its
#: state, the vCPU context saved at its last exit, and its measurement.
EnclaveValue = namedtuple("EnclaveValue",
                          ("state", "saved_context", "measurement"))


class Enclave:
    """Monitor-side state of one enclave.

    The descriptor fields (ELRANGE, marshalling buffer, page tables,
    GPA base) are fixed at creation; ``state``, ``saved_context`` and
    ``measurement`` are fields of ``value``, an :data:`EnclaveValue`
    that each change replaces.
    """

    #: The value of an enclave ECREATE just made (the measurement is a
    #: toy EADD accumulator).
    FRESH = EnclaveValue(state=EnclaveState.CREATED, saved_context=None,
                         measurement=0)

    state = value_field("state")
    saved_context = value_field("saved_context")
    measurement = value_field("measurement")

    def __init__(self, eid, elrange_base, elrange_size, mbuf, gpt, ept,
                 gpa_base):
        self.eid = eid
        self.elrange_base = elrange_base
        self.elrange_size = elrange_size
        self.mbuf = mbuf
        self.gpt = gpt            # GVA -> GPA, monitor-managed
        self.ept = ept            # GPA -> HPA, monitor-managed
        self.gpa_base = gpa_base  # where ELRANGE lands in guest-physical
        self.value = self.FRESH
        if mbuf is not None and self.overlaps_elrange(
                mbuf.va_base, mbuf.size):
            raise HypercallError(
                f"enclave {eid}: marshalling buffer overlaps ELRANGE")

    def clone(self, gpt, ept):
        """An independent copy over pre-cloned page tables.

        Built via ``object.__new__`` so the constructor's overlap
        validation does not re-run — deliberately: the buggy variants
        plant enclaves that would fail it, and a clone must reproduce
        the state it was given, bugs included.
        """
        new = object.__new__(type(self))
        new.eid = self.eid
        new.elrange_base = self.elrange_base
        new.elrange_size = self.elrange_size
        new.mbuf = self.mbuf          # frozen descriptor
        new.gpt = gpt
        new.ept = ept
        new.gpa_base = self.gpa_base
        new.value = self.value
        return new

    # -- address classification -----------------------------------------------------

    @property
    def elrange_end(self):
        return self.elrange_base + self.elrange_size

    def in_elrange(self, va):
        return self.elrange_base <= va < self.elrange_end

    def overlaps_elrange(self, base, size):
        return self.elrange_base < base + size and base < self.elrange_end

    def in_mbuf(self, va):
        return self.mbuf is not None and self.mbuf.contains_va(va)

    def elrange_gpa(self, va):
        """The GPA an ELRANGE VA maps to (linear inside the window)."""
        if not self.in_elrange(va):
            raise HypercallError(
                f"va {va:#x} outside ELRANGE of enclave {self.eid}")
        return self.gpa_base + (va - self.elrange_base)

    # -- lifecycle guards ---------------------------------------------------------------

    def require_state(self, *allowed):
        if self.state not in allowed:
            names = "/".join(s.value for s in allowed)
            raise HypercallError(
                f"enclave {self.eid} is {self.state.value}, needs {names}")

    def absorb_measurement(self, va, words):
        """Toy measurement: mix added-page identity into a running hash.

        Remote attestation is out of the paper's scope (Sec. 2), but the
        hypercall surface keeps the hook so lifecycle traces look right.
        """
        mix = hash((va, words)) & ((1 << 64) - 1)
        self.measurement = (self.measurement * 1099511628211 + mix) \
            & ((1 << 64) - 1)

    def __repr__(self):
        return (f"Enclave(eid={self.eid}, state={self.state.value}, "
                f"elrange=[{self.elrange_base:#x}, {self.elrange_end:#x}))")
