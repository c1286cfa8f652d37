"""TLB shootdown protocol and the stale-translation detector.

A single-core monitor may simply flush its own TLB after unmapping a
page.  With N vCPUs, *every other* core may still cache the dead
translation, so an unmap must complete a shootdown — an IPI per remote
core, each a scheduling point — before the freed frame is scrubbed or
reused.  This is the concurrent form of the paper's Sec. 5 concern that
no window may exist "where a mapping points at a free frame": here the
mapping lives on in a remote TLB instead of a page table.

The detector formalises when a cached translation is *harmfully* stale.
A TLB entry that merely outlived its page-table mapping is benign while
the shootdown is in flight, because the frame underneath it still holds
the enclave's page (the monitor unmaps, *then* shoots down, *then*
scrubs and releases).  The conviction condition is a cached translation
whose target frame the EPCM no longer accounts to that enclave at that
address — at that point the vCPU can reach memory the monitor believes
reclaimed.

This module deliberately duck-types the monitor (``cpus``, ``epcm``,
``layout``, ``config``, ``enclave_translate``) instead of importing
:mod:`repro.hyperenclave`, keeping the concurrency package importable
from inside the hyperenclave modules it instruments.
"""

from typing import List

from repro.errors import ReproError, StaleTranslation
from repro.concurrency import scheduler as conc

_HOST_ID = 0  # mirrors repro.hyperenclave.monitor.HOST_ID (no import: cycle)


def tlb_shootdown(monitor):
    """Flush the translation of every vCPU, remote cores first.

    Each remote flush is preceded by a ``shootdown.ipi`` yield point —
    the window in which that core still runs on its stale TLB, which is
    exactly where the explorer interleaves other vCPUs.  Remote flushes
    are *not* rolled back if the surrounding hypercall aborts: flushing
    a cache is always safe (every dropped entry is re-derivable from
    the page tables), matching real IPIs that cannot be recalled.

    On a single-vCPU monitor this degenerates to exactly one local
    ``flush_all`` — sequential flush-count accounting is unchanged.
    """
    vid = conc.current_vid()
    if vid is None:
        vid = getattr(monitor, "_vid", 0)
    for other, cpu in enumerate(monitor.cpus):
        if other == vid:
            continue
        conc.yield_point("shootdown.ipi", f"ipi vcpu{vid}->vcpu{other}")
        cpu.tlb.flush_all()
    monitor.cpus[vid].tlb.flush_all()


def detect_stale_translations(monitor) -> List[StaleTranslation]:
    """Convict every harmfully stale TLB entry across all vCPUs.

    Runs as the scheduler's per-decision probe (it performs no yields),
    so a violation is caught inside the window where it is live, even
    if a later flush would have hidden it by the end of the schedule.
    """
    findings = []
    config = monitor.config
    page = config.page_size
    for vid, cpu in enumerate(monitor.cpus):
        eid = cpu.active
        if eid == _HOST_ID:
            continue  # host loads bypass the TLB (direct physical map)
        for (_asid, (va_page, write)), (pa_page, span) in \
                cpu.tlb_entries():
            # A block (huge-page) TLB entry caches the translation of
            # its whole span; comparing only the base page would miss an
            # interior page whose mapping changed underneath the entry.
            # Sweep every page the entry covers (one conviction per
            # entry suffices).
            for off in range(0, span or page, page):
                va = va_page + off
                try:
                    expected = config.page_base(
                        monitor.enclave_translate(eid, va, write=write))
                except ReproError:
                    expected = None
                if expected == pa_page + off:
                    continue
                frame = config.frame_of(pa_page + off)
                if monitor.layout.is_epc(frame):
                    entry = monitor.epcm.entry_for_frame(frame)
                    if (entry.owner == eid and entry.va == va
                            and entry.state.value == "reg"):
                        # Unmapped but not yet released: the in-flight
                        # shootdown window, in which the frame still
                        # holds this enclave's page.  Benign by
                        # construction.
                        continue
                    reason = (f"frame {frame} is "
                              f"{entry.state.value}/owner={entry.owner}")
                elif expected is None:
                    reason = "there is no mapping"
                else:
                    reason = f"the va now maps to {expected:#x}"
                findings.append(StaleTranslation(
                    vid=vid, principal=eid, va_page=va,
                    cached_pa=pa_page + off, reason=reason))
                break
    return findings
