"""Deliberately broken RustMonitor variants.

Verification work is only convincing if the checkers *fail* on broken
designs; each class here deletes exactly one validation rule or takes
one tempting shortcut, reproducing the paper's negative examples:

* :class:`ShallowCopyMonitor` — the real-world bug of Sec. 4.1
  ("Malformed Page Tables in the Wild"): enclave page tables are
  initialised by shallow-copying the top level of the guest's tables, so
  they contain pointers to tables stored in guest-controlled memory.
* :class:`AliasingMonitor` — Fig. 5 case (1): a content-dedup
  "optimisation" shares one EPC frame between enclaves.
* :class:`OutsideElrangeMonitor` — Fig. 5 case (2): a VA outside the
  ELRANGE gets mapped to an EPC page, fooling the enclave into
  corrupting its own secure memory.
* :class:`NoEpcmRecordMonitor` — maps EPC pages without recording them
  (covert mappings; breaks the EPCM invariant).
* :class:`HugePageMonitor` — builds enclave tables with huge pages
  (breaks the no-huge-pages enclave invariant).
* :class:`MbufOverlapMonitor` — allows the marshalling buffer to overlap
  the ELRANGE (breaks the disjointness enclave invariant).
* :class:`SecureMbufMonitor` — allows the marshalling buffer to be
  backed by secure memory, aliasing EPC into the untrusted world.
* :class:`LeakyExitMonitor` — forgets to restore the host register
  context on exit, leaking enclave registers (noninterference, not a
  page-table invariant: shows the security theorem catches what the
  structural invariants cannot).
* :class:`NoScrubMonitor` — destroys enclaves without scrubbing their
  EPC pages, leaking secrets to the next owner.
* :class:`NonTransactionalMonitor` — runs every hypercall without the
  rollback transaction, so a mid-hypercall failure strands
  partial mutations (the pre-transactional monitor; caught by the
  crash-step fault campaign rather than by any single invariant).
* :class:`MissingLockMonitor` — drops the strict-2PL lock acquisition
  while keeping every hypercall body; invisible to all sequential
  checks, convicted by the interleaving explorer's lock-discipline
  rules.
* :class:`NoShootdownMonitor` — replaces the TLB shootdown protocol
  with a local-only flush; convicted by the stale-translation detector
  when another vCPU races a ``hc_trim_page``.

All variants keep the full hypercall surface so identical workloads run
against them.
"""

from repro.errors import HypercallError, TranslationFault
from repro.hyperenclave import pte
from repro.hyperenclave.constants import WORD_BYTES
from repro.hyperenclave.enclave import Enclave, EnclaveState
from repro.hyperenclave.epcm import PageState
from repro.hyperenclave.mbuf import MarshallingBuffer
from repro.hyperenclave.monitor import HOST_ID, RustMonitor
from repro.hyperenclave.paging import PageTable

ALL_BUGGY_MONITORS = []


def _register(cls):
    ALL_BUGGY_MONITORS.append(cls)
    return cls


@_register
class ShallowCopyMonitor(RustMonitor):
    """Sec. 4.1: enclave GPTs start as a shallow copy of an app's GPT.

    "The copy selected the relevant address ranges from the level-4 page
    table, but otherwise copied the existing entries. This is not secure,
    because HyperEnclave's page tables would then contain pointers to
    level-3 tables that are stored in physical memory controlled by the
    guest."

    ``hc_create_from_app`` performs the insecure initialisation; the
    refinement relation R (which requires every intermediate table to
    live in the monitor's frame area) is unprovable for the result, and
    the page-table-residency invariant catches it.
    """

    BUG = "shallow-copy-page-tables"

    def hc_create_from_app(self, app, elrange_base, elrange_size,
                           mbuf_va, mbuf_pa, mbuf_size) -> int:
        """The insecure initialisation: create, then shallow-copy the app's top-level GPT entries into the enclave's root."""
        eid = self.hc_create(elrange_base, elrange_size, mbuf_va,
                             mbuf_pa, mbuf_size)
        enclave = self.enclaves[eid]
        config = self.config
        # Shallow copy: lift the app's top-level entries (which point at
        # next-level tables in *guest* memory) straight into the
        # enclave's root, for every top-level slot the ELRANGE touches.
        app_root_frame = config.frame_of(app.gpt_root_gpa)
        top = config.levels
        first = config.entry_index(elrange_base, top)
        last = config.entry_index(elrange_base + elrange_size - 1, top)
        for index in range(first, last + 1):
            guest_entry = self.phys.read_word(
                config.frame_base(app_root_frame) + index * WORD_BYTES)
            if config.arch.is_present(guest_entry):
                enclave.gpt.write_entry(enclave.gpt.root_frame, index,
                                        guest_entry)
        return eid


@_register
class AliasingMonitor(RustMonitor):
    """Fig. 5 case (1): EPC page deduplication across enclaves.

    When an added page's content matches a page already in the EPC, the
    existing frame is shared instead of copied — so two enclaves gain
    access to the same physical EPC page, violating ELRANGE isolation.
    """

    BUG = "cross-enclave-page-alias"

    def hc_add_page(self, eid, va, src_gpa) -> int:
        """EADD with the dedup shortcut: identical content shares the existing EPC frame across enclaves."""
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.CREATED)
        config = self.config
        self._require_page_aligned(va, "va")
        self._require_page_aligned(src_gpa, "src_gpa")
        if not enclave.in_elrange(va):
            raise HypercallError("va outside ELRANGE")
        if enclave.gpt.query(va) is not None:
            raise HypercallError("va already added")
        src_hpa = self.os_ept.translate(src_gpa, write=False)
        src_words = self.phys.frame_words(config.frame_of(src_hpa))
        # The "optimisation": reuse any EPC frame with identical content.
        shared = None
        for frame, entry in self.epcm.entries():
            if entry.state is PageState.REG and \
                    self.phys.frame_words(frame) == src_words:
                shared = frame
                break
        if shared is None:
            frame = self.epcm.allocate(eid, PageState.REG, va=va)
            self.phys.copy_frame(frame, config.frame_of(src_hpa))
        else:
            frame = shared  # no copy, no ownership transfer — the bug
        gpa = enclave.elrange_gpa(va)
        enclave.gpt.map_page(va, gpa, self.config.arch.leaf_flags())
        enclave.ept.map_page(gpa, config.frame_base(frame),
                             self.config.arch.leaf_flags())
        enclave.absorb_measurement(va, src_words)
        return frame


@_register
class OutsideElrangeMonitor(RustMonitor):
    """Fig. 5 case (2): the ELRANGE membership check is missing.

    A cooperating-but-confused kernel module can then map a "scratch" VA
    outside the ELRANGE onto an EPC page; the enclave believes that VA is
    normal memory and can be fooled into corrupting its own secure pages.
    """

    BUG = "mapping-outside-elrange"

    def hc_add_page(self, eid, va, src_gpa) -> int:
        """EADD with the ELRANGE membership check deleted."""
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.CREATED)
        config = self.config
        self._require_page_aligned(va, "va")
        self._require_page_aligned(src_gpa, "src_gpa")
        # BUG: no in_elrange(va) validation.
        if enclave.gpt.query(va) is not None:
            raise HypercallError("va already added")
        src_hpa = self.os_ept.translate(src_gpa, write=False)
        frame = self.epcm.allocate(eid, PageState.REG, va=va)
        self.phys.copy_frame(frame, config.frame_of(src_hpa))
        # GPA chosen linearly from the ELRANGE base even for outside VAs.
        gpa = enclave.gpa_base + (va - enclave.elrange_base) \
            % enclave.elrange_size
        if enclave.ept.query(gpa) is not None:
            gpa = enclave.gpa_base + enclave.elrange_size
        enclave.gpt.map_page(va, gpa, self.config.arch.leaf_flags())
        enclave.ept.map_page(gpa, config.frame_base(frame),
                             self.config.arch.leaf_flags())
        return frame


@_register
class NoEpcmRecordMonitor(RustMonitor):
    """Maps EPC pages without recording them in the EPCM.

    "All the page mappings in the page tables of enclaves correspond to
    an entry in the HyperEnclave's EPCM list ... This rules out covert
    mappings." (Sec. 5.2) — this monitor creates exactly such covert
    mappings.
    """

    BUG = "covert-mapping-no-epcm"

    def hc_add_page(self, eid, va, src_gpa) -> int:
        """EADD that maps the page but releases its EPCM record."""
        frame = super().hc_add_page(eid, va, src_gpa)
        # BUG: bookkeeping "optimised away" — release the record but
        # keep the mapping live.
        self.epcm.release(frame, eid)
        return frame


@_register
class HugePageMonitor(RustMonitor):
    """Builds enclave page tables that use huge pages.

    The enclave invariants forbid huge pages in enclave tables
    (Sec. 5.2): a huge mapping spans EPC and non-EPC frames far too
    easily and defeats per-page EPCM accounting.
    """

    BUG = "huge-pages-in-enclave-tables"

    def hc_create(self, elrange_base, elrange_size, mbuf_va, mbuf_pa,
                  mbuf_size) -> int:
        """ECREATE that additionally installs a huge EPT mapping over the EPC."""
        eid = super().hc_create(elrange_base, elrange_size, mbuf_va,
                                mbuf_pa, mbuf_size)
        enclave = self.enclaves[eid]
        enclave.ept.allow_huge = True   # the deleted restriction
        config = self.config
        span = config.level_span(2)
        gpa = (enclave.gpa_base + enclave.elrange_size + span - 1) \
            // span * span
        # One huge EPT mapping covering a whole level-2 span of physical
        # memory starting inside the EPC (span-aligned).
        frames_per_span = span // config.page_size
        base_frame = -(-self.layout.epc_base // frames_per_span) \
            * frames_per_span
        enclave.ept.map_huge(gpa, config.frame_base(base_frame), 2,
                             self.config.arch.leaf_flags())
        return eid


@_register
class MbufOverlapMonitor(RustMonitor):
    """Allows the marshalling buffer to overlap the ELRANGE.

    Breaks "the ELRANGE and the range of marshalling buffer are
    disjoint" (Sec. 5.2): an ELRANGE VA then resolves into shared
    untrusted memory, so "secure" stores are host-visible.
    """

    BUG = "mbuf-overlaps-elrange"

    def hc_create(self, elrange_base, elrange_size, mbuf_va, mbuf_pa,
                  mbuf_size) -> int:
        """ECREATE with the mbuf/ELRANGE disjointness validation bypassed."""
        config = self.config
        self._require_page_aligned(elrange_base, "elrange_base")
        self._require_page_aligned(mbuf_va, "mbuf_va")
        self._require_page_aligned(mbuf_pa, "mbuf_pa")
        mbuf = MarshallingBuffer(va_base=mbuf_va, pa_base=mbuf_pa,
                                 size=mbuf_size)
        eid = self._next_eid
        self._next_eid += 1
        gpt = PageTable(config, self.phys, self.pt_allocator,
                        allow_huge=False, name=f"enc{eid}-gpt")
        ept = PageTable(config, self.phys, self.pt_allocator,
                        allow_huge=False, name=f"enc{eid}-ept")
        enclave = Enclave.__new__(Enclave)  # skip the overlap validation
        enclave.eid = eid
        enclave.elrange_base = elrange_base
        enclave.elrange_size = elrange_size
        enclave.mbuf = mbuf
        enclave.gpt = gpt
        enclave.ept = ept
        enclave.gpa_base = elrange_base
        enclave.value = Enclave.FRESH
        self.epcm.allocate(eid, PageState.SECS)
        for va_page, pa_page in mbuf.pages(config):
            gpt.map_page(va_page, pa_page, self.config.arch.leaf_flags())
            if ept.query(pa_page) is None:
                ept.map_page(pa_page, pa_page, self.config.arch.leaf_flags())
        self._set_enclave(eid, enclave)
        return eid

    def hc_add_page(self, eid, va, src_gpa) -> int:
        """EADD tolerating VAs already claimed by the overlapping mbuf."""
        enclave = self._enclave(eid)
        if enclave.gpt.query(va) is not None:
            # overlapping mbuf page already holds this VA — skip the add
            # silently, like the buggy validation would.
            return -1
        return super().hc_add_page(eid, va, src_gpa)


@_register
class SecureMbufMonitor(RustMonitor):
    """Accepts a marshalling buffer backed by secure (EPC) memory.

    The untrusted-backing check is the only thing keeping EPC frames out
    of the shared channel; without it the buffer aliases secure memory
    into a window the host also expects to map.
    """

    BUG = "mbuf-backed-by-secure-memory"

    def hc_create(self, elrange_base, elrange_size, mbuf_va, mbuf_pa,
                  mbuf_size) -> int:
        """ECREATE with the untrusted-backing check on the mbuf deleted."""
        config = self.config
        self._require_page_aligned(elrange_base, "elrange_base")
        self._require_page_aligned(mbuf_va, "mbuf_va")
        self._require_page_aligned(mbuf_pa, "mbuf_pa")
        if elrange_size <= 0 or elrange_size % config.page_size:
            raise HypercallError("ELRANGE size must be whole pages")
        mbuf = MarshallingBuffer(va_base=mbuf_va, pa_base=mbuf_pa,
                                 size=mbuf_size)
        # BUG: no is_untrusted() validation of the backing pages.
        eid = self._next_eid
        self._next_eid += 1
        gpt = PageTable(config, self.phys, self.pt_allocator,
                        allow_huge=False, name=f"enc{eid}-gpt")
        ept = PageTable(config, self.phys, self.pt_allocator,
                        allow_huge=False, name=f"enc{eid}-ept")
        enclave = Enclave(eid=eid, elrange_base=elrange_base,
                          elrange_size=elrange_size, mbuf=mbuf,
                          gpt=gpt, ept=ept, gpa_base=elrange_base)
        self.epcm.allocate(eid, PageState.SECS)
        for va_page, pa_page in mbuf.pages(config):
            gpt.map_page(va_page, pa_page, self.config.arch.leaf_flags())
            if ept.query(pa_page) is None:
                ept.map_page(pa_page, pa_page, self.config.arch.leaf_flags())
        self._set_enclave(eid, enclave)
        return eid


@_register
class LeakyExitMonitor(RustMonitor):
    """Forgets to restore the host context on enclave exit.

    The enclave's general registers remain live in the vCPU when the
    host resumes — a direct confidentiality leak that the register part
    of the observation function (Sec. 5.3) detects even though every
    page-table invariant still holds.
    """

    BUG = "registers-leak-on-exit"

    def hc_exit(self, eid):
        """Exit without restoring the host register context."""
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.RUNNING)
        if self.active != eid:
            raise HypercallError("exit from a non-active enclave")
        enclave.saved_context = self.vcpu.context()
        # BUG: self.vcpu.restore(self.saved_host_context) is missing.
        self.saved_host_context = None
        self.vcpu.gpt_root = None
        self.vcpu.ept_root = self.os_ept.root_frame
        self.tlb.flush_all()
        enclave.state = EnclaveState.INITIALIZED
        self.active = HOST_ID


@_register
class NoTlbFlushMonitor(RustMonitor):
    """Skips the TLB flush on enclave exit.

    Sec. 2.1: on every transition RustMonitor switches the vCPU mode
    "and also flush[es] the corresponding TLB entries".  Without the
    flush, the enclave's virtual translations survive into the host
    world: an app touching the victim's ELRANGE virtual address hits the
    stale entry and reads EPC memory straight through the cache — no
    page-table invariant is violated, only the flush discipline.
    """

    BUG = "no-tlb-flush-on-exit"

    def hc_exit(self, eid):
        """Exit without flushing the TLB."""
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.RUNNING)
        if self.active != eid:
            raise HypercallError("exit from a non-active enclave")
        enclave.saved_context = self.vcpu.context()
        self.vcpu.restore(self.saved_host_context)
        self.saved_host_context = None
        self.vcpu.gpt_root = None
        self.vcpu.ept_root = self.os_ept.root_frame
        # BUG: self.tlb.flush_all() is missing.
        enclave.state = EnclaveState.INITIALIZED
        self.active = HOST_ID


@_register
class NoScrubMonitor(RustMonitor):
    """Destroys enclaves without scrubbing their EPC pages.

    The next enclave to receive a recycled EPC frame reads the previous
    owner's plaintext — caught by the noninterference checker on
    create-destroy-create traces, invisible to the static invariants.
    """

    BUG = "no-scrub-on-destroy"

    def hc_destroy(self, eid):
        """Destroy without scrubbing the enclave's EPC pages."""
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.CREATED,
                              EnclaveState.INITIALIZED)
        # BUG: no phys.zero_frame() over the owned EPC pages.
        self.epcm.release_all(eid)
        for frame in enclave.gpt.table_frames():
            self.phys.zero_frame(frame)
            self.pt_allocator.dealloc(frame)
        for frame in enclave.ept.table_frames():
            self.phys.zero_frame(frame)
            self.pt_allocator.dealloc(frame)
        enclave.state = EnclaveState.DESTROYED
        self._set_enclave(eid, None)


@_register
class NonTransactionalMonitor(RustMonitor):
    """Runs every hypercall body without the rollback wrapper.

    This is the monitor as it was before crash consistency: correct on
    every *successful* hypercall (all structural invariants hold, all
    refinement checks pass), but a failure halfway through ``hc_add_page``
    strands an EPCM entry nothing points at, or a GPT mapping with no
    EPT translation behind it.  No single-state invariant sweep over
    successful traces can see the difference — only the crash-step fault
    campaign does, which is what makes the campaign's all-green run on
    the real monitor evidence rather than vacuity.
    """

    BUG = "no-rollback-on-fault"

    # The undecorated bodies, reachable via functools.wraps.
    hc_create = RustMonitor.hc_create.__wrapped__
    hc_add_page = RustMonitor.hc_add_page.__wrapped__
    hc_aug_page = RustMonitor.hc_aug_page.__wrapped__
    hc_remove_page = RustMonitor.hc_remove_page.__wrapped__
    hc_trim_page = RustMonitor.hc_trim_page.__wrapped__
    hc_init = RustMonitor.hc_init.__wrapped__
    hc_enter = RustMonitor.hc_enter.__wrapped__
    hc_exit = RustMonitor.hc_exit.__wrapped__
    hc_destroy = RustMonitor.hc_destroy.__wrapped__


@_register
class MissingLockMonitor(RustMonitor):
    """Runs every hypercall with no locking discipline at all.

    The hypercall *bodies* are unchanged — only the strict-2PL lock
    plan is dropped, which is exactly the bug a sequential
    test suite can never see: every single-vCPU execution is identical
    to the correct monitor's.  Under the interleaving explorer the
    rule-3 mutation guards convict it on the very first schedule that
    runs two lifecycle hypercalls on different vCPUs (unlocked
    mutations of the EPCM, the frame pool, and the enclave directory),
    and deeper schedules show the downstream damage those races cause.
    """

    BUG = "no-locking-discipline"

    def lock_plan(self, hypercall, args):
        """BUG: plan no lock; every mutation of every body runs
        unlocked."""
        return ()


@_register
class NoShootdownMonitor(RustMonitor):
    """Skips the remote TLB invalidations when unmapping live pages.

    The tempting "optimisation": IPI round-trips are expensive, and the
    *local* flush keeps the calling vCPU correct, so single-core tests
    all pass.  But ``hc_trim_page`` on a live enclave races enclave
    execution on other vCPUs by design — after the trim releases the
    EPC frame, any other core that entered the enclave still holds the
    dead translation in its TLB and reads a frame the EPCM no longer
    accounts to the enclave.  The interleaving campaign's
    stale-translation detector convicts exactly that window.
    """

    BUG = "no-tlb-shootdown"

    def _tlb_shootdown(self):
        """BUG: flush only the calling vCPU's TLB; no IPIs are sent."""
        self.cpus[self.current_vid].tlb.flush_all()
