"""The observation function V(p, σ) of Sec. 5.3.

"The observation for a principal p includes: (1) the CPU's registers if
p is the active principal; (2) p's saved register context, (3) mappings
in the page table owned by principal p, and (4) contents of the memory
pages that are not shared with other principals. Even though the mapping
of marshalling buffer is shared among principals, it is considered
observable ... because the mapping is immutable once an enclave has been
initialized. The contents of pages in the marshalling buffer are handled
differently [data oracles]."

:func:`observe` computes V as an immutable, comparable
:class:`Observation`; two states are *indistinguishable* to ``p`` iff
their observations are equal.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.hyperenclave.epcm import PageState
from repro.hyperenclave.monitor import HOST_ID


@dataclass(frozen=True)
class Observation:
    """V(p, σ): everything principal ``p`` may see.  Frozen and
    structurally comparable."""

    principal: int
    is_active: bool
    cpu_regs: Optional[Tuple[Tuple[str, int], ...]]   # only if active
    saved_context: Optional[Tuple[Tuple[str, int], ...]]
    page_mappings: Tuple          # (table-name, va, pa, size, flags)
    memory_pages: Tuple           # (page-id, words) for non-shared pages
    metadata: Tuple               # principal-visible bookkeeping

    def diff(self, other) -> Tuple[str, ...]:
        """Human-readable list of differing components (for witnesses)."""
        differing = []
        for name in ("is_active", "cpu_regs", "saved_context",
                     "page_mappings", "memory_pages", "metadata"):
            if getattr(self, name) != getattr(other, name):
                differing.append(name)
        return tuple(differing)


def observe(state, principal) -> Observation:
    """V(p, sigma): compute principal ``p``'s observation."""
    if principal == HOST_ID:
        return _observe_host(state)
    return _observe_enclave(state, principal)


# ---------------------------------------------------------------------------
# Host view
# ---------------------------------------------------------------------------


def _observe_host(state) -> Observation:
    monitor = state.monitor
    config = monitor.config
    is_active = state.active == HOST_ID
    # (3) the normal VM's EPT mappings (installed on the host's behalf).
    mappings = tuple(("os-ept", va, pa, size, flags)
                     for va, pa, size, flags
                     in sorted(monitor.os_ept.mappings()))
    # (4) untrusted memory contents, minus marshalling-buffer backings
    # (shared; their contents are declassified via oracles).
    shared_frames = set()
    for enclave in monitor.enclaves.values():
        if enclave.mbuf is None:
            continue
        for _va, pa in enclave.mbuf.pages(config):
            shared_frames.add(config.frame_of(pa))
    # Only frames holding a nonzero word can contribute a page.
    layout = monitor.layout
    pages = [(("untrusted", frame), monitor.phys.frame_words(frame))
             for frame in monitor.phys.nonzero_frames()
             if layout.is_untrusted(frame) and frame not in shared_frames]
    # Host-visible metadata: the lifecycle bookkeeping it drives itself.
    metadata = tuple(sorted(
        (eid, enclave.state.value, enclave.elrange_base,
         enclave.elrange_size,
         (enclave.mbuf.va_base, enclave.mbuf.pa_base, enclave.mbuf.size)
         if enclave.mbuf else None)
        for eid, enclave in monitor.enclaves.items()))
    return Observation(
        principal=HOST_ID,
        is_active=is_active,
        cpu_regs=monitor.vcpu.context() if is_active else None,
        saved_context=monitor.saved_host_context,
        page_mappings=mappings,
        memory_pages=tuple(pages),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Enclave view
# ---------------------------------------------------------------------------


def _observe_enclave(state, eid) -> Observation:
    monitor = state.monitor
    enclave = monitor.enclaves.get(eid)
    if enclave is None:
        return Observation(principal=eid, is_active=False, cpu_regs=None,
                           saved_context=None, page_mappings=(),
                           memory_pages=(), metadata=("destroyed",))
    is_active = state.active == eid
    # (3) the enclave's own GPT and EPT mappings (both monitor-owned on
    # its behalf); the mbuf mapping is included — it is immutable.
    mappings = []
    for name, table in (("gpt", enclave.gpt), ("ept", enclave.ept)):
        for va, pa, size, flags in sorted(table.mappings()):
            mappings.append((name, va, pa, size, flags))
    # (4) contents of its own (EPCM-recorded) EPC pages — never shared.
    pages = []
    for frame, entry in monitor.epcm.owned_by(eid):
        if entry.state is PageState.REG:
            pages.append((("epc", entry.va), monitor.phys.frame_words(frame)))
    pages.sort(key=lambda item: item[0])
    metadata = (enclave.state.value, enclave.elrange_base,
                enclave.elrange_size, enclave.measurement,
                (enclave.mbuf.va_base, enclave.mbuf.size)
                if enclave.mbuf else None)
    return Observation(
        principal=eid,
        is_active=is_active,
        cpu_regs=monitor.vcpu.context() if is_active else None,
        saved_context=enclave.saved_context,
        page_mappings=tuple(mappings),
        memory_pages=tuple(pages),
        metadata=metadata,
    )
