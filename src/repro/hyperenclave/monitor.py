"""RustMonitor — the trusted hypervisor core (layers 12-13).

Implements enclave lifecycle management as emulation of the privileged
SGX instructions (Sec. 2.1): ``hc_create`` (ECREATE), ``hc_add_page``
(EADD), ``hc_init`` (EINIT), plus ``hc_enter``/``hc_exit`` world
switches.  All EPTs and all *enclave* GPTs are built here, from scratch,
in secure memory; the primary OS keeps managing its own and its apps'
GPTs as ordinary guest data (Sec. 2.1, "to prevent possible page table
attacks").

Every validation rule in the hypercalls exists to uphold a Sec. 5.2
invariant; the buggy variants in :mod:`repro.hyperenclave.buggy` each
delete exactly one rule, and the benches watch the corresponding
invariant checker catch it.

Every hypercall is **transactional** (see :mod:`repro.hyperenclave.txn`):
a failure at any step — validation, resource exhaustion, or an injected
fault — rolls the monitor back to its pre-hypercall state before
re-raising, so the Sec. 5.2 invariants are preserved by *failed*
hypercalls too, not just successful ones.  The ``@transactional``
decorator also declares the locks each hypercall takes
(:meth:`RustMonitor.lock_plan`), which the concurrency plane's
scheduler holds before the body runs.  The ``faults.crash_point`` calls
between mutations are the named abort-at-step-k injection sites the
crash-step campaign sweeps.

Every structure a hypercall mutates — the allocator bitmap, the EPCM,
the enclave directory, each enclave's lifecycle triple, each vCPU —
holds one immutable value, and a mutation stores a new one; the
structure table of :mod:`repro.hyperenclave.txn` names them.  Physical
memory is the exception: a frame map of immutable word tuples.  So a
clone shares every value, a rollback puts kept values back, and a
fingerprint kept on a value serves every monitor that shares it.
"""

from contextlib import contextmanager
from types import MappingProxyType
from typing import Mapping, Optional, Tuple

from repro.concurrency import scheduler as conc
from repro.concurrency.locks import (
    LOCK_ENCLAVES,
    LOCK_EPCM,
    LOCK_FRAMES,
    enclave_lock,
)
from repro.concurrency.shootdown import tlb_shootdown
from repro.errors import HypercallError, TranslationFault
from repro.faults import plane as faults
from repro.hyperenclave import pte
from repro.hyperenclave.txn import transactional
from repro.hyperenclave.constants import MemoryLayout, WORD_BYTES
from repro.hyperenclave.enclave import Enclave, EnclaveState
from repro.hyperenclave.epcm import Epcm, PageState
from repro.hyperenclave.frames import BitmapFrameAllocator
from repro.hyperenclave.guest import PrimaryOS
from repro.hyperenclave.hardware import CpuLocal, PhysMemory
from repro.hyperenclave.mbuf import MarshallingBuffer
from repro.hyperenclave.paging import PageTable, two_stage_translate

HOST_ID = 0  # principal id of the primary OS / normal VM


class RustMonitor:
    """The trusted monitor: owns secure memory and all EPTs.

    The monitor serves ``num_vcpus`` virtual CPUs.  Register file, TLB,
    active principal, and the parked host context are all per-vCPU
    (:class:`~repro.hyperenclave.hardware.CpuLocal`); the scalar views
    ``monitor.vcpu`` / ``monitor.tlb`` / ``monitor.active`` /
    ``monitor.saved_host_context`` dispatch on the *executing* vCPU —
    the scheduled task's vid under the concurrency plane, else the
    monitor's own ``_vid`` cursor (settable via :meth:`on_cpu`).  With
    the default single vCPU everything behaves exactly as before.

    ``enclaves`` is a read-only mapping, replaced on every create and
    destroy, and ``cpus`` a tuple of per-core holders.
    """

    def __init__(self, config, layout: Optional[MemoryLayout] = None,
                 os_huge_pages=True, num_vcpus=1):
        self.config = config
        self.layout = layout or MemoryLayout.default_for(config)
        self.phys = PhysMemory(config)
        self.pt_allocator = BitmapFrameAllocator(self.layout.pt_pool_frames)
        self.epcm = Epcm(self.layout)
        # the enclave directory, a read-only mapping each create and
        # destroy replaces (:meth:`_set_enclave`)
        self.enclaves: Mapping[int, Enclave] = MappingProxyType({})
        self._next_eid = 1
        if num_vcpus < 1:
            raise HypercallError("a monitor needs at least one vCPU")
        self.cpus = tuple(CpuLocal() for _ in range(num_vcpus))
        self._vid = 0
        # Boot: build the normal VM's EPT — identity over untrusted
        # memory only.  Nothing in the secure range is ever entered here;
        # that absence *is* spatial isolation (Sec. 2.1).
        self.os_ept = PageTable(config, self.phys, self.pt_allocator,
                                allow_huge=os_huge_pages, name="os-ept")
        self._boot_map_untrusted()
        self.primary_os = PrimaryOS(config, self.phys, self.os_ept,
                                    self.layout)
        for cpu in self.cpus:
            cpu.vcpu.ept_root = self.os_ept.root_frame

    # -- per-vCPU views ---------------------------------------------------------------

    @property
    def num_vcpus(self):
        return len(self.cpus)

    @property
    def current_vid(self) -> int:
        """The executing vCPU: the scheduled task's, else the cursor."""
        vid = conc.current_vid()
        return self._vid if vid is None else vid

    @property
    def _cpu(self) -> CpuLocal:
        return self.cpus[self.current_vid]

    @property
    def vcpu(self) -> CpuLocal:
        return self._cpu

    @property
    def tlb(self) -> CpuLocal:
        return self._cpu

    @property
    def active(self) -> int:
        return self._cpu.active

    @active.setter
    def active(self, value):
        self._cpu.active = value

    @property
    def saved_host_context(self):
        return self._cpu.saved_host_context

    @saved_host_context.setter
    def saved_host_context(self, value):
        self._cpu.saved_host_context = value

    @contextmanager
    def on_cpu(self, vid):
        """Point the scalar views at vCPU ``vid`` (observation helper)."""
        if not 0 <= vid < len(self.cpus):
            raise HypercallError(f"no vCPU {vid}")
        old = self._vid
        self._vid = vid
        try:
            yield self
        finally:
            self._vid = old

    def clone(self):
        """An independent copy of the whole monitor.

        Every structure a hypercall mutates holds an immutable value
        (see :data:`~repro.hyperenclave.txn.STRUCTURE_TABLE`), and so
        does every other field, so the copy shares all of them by
        reference and makes new holders only: physical memory (a frame
        map sharing its word tuples), the allocator, the EPCM, one
        :class:`~repro.hyperenclave.hardware.CpuLocal` per core, and
        the page tables, primary OS and enclaves rebound onto the
        copied memory and allocator.  This sits on the two-world
        noninterference hot path and under every campaign's
        prototype-clone world builder.
        """
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.phys = phys = self.phys.clone()
        new.pt_allocator = allocator = self.pt_allocator.clone()
        new.epcm = self.epcm.clone()
        new.cpus = tuple(cpu.clone() for cpu in self.cpus)
        new.os_ept = self.os_ept.clone(phys, allocator)
        new.primary_os = self.primary_os.clone(phys, new.os_ept)
        new.enclaves = MappingProxyType({
            eid: enclave.clone(enclave.gpt.clone(phys, allocator),
                               enclave.ept.clone(phys, allocator))
            for eid, enclave in self.enclaves.items()})
        return new

    def _set_enclave(self, eid, enclave):
        """Store a new directory with ``eid`` mapped to ``enclave``, or
        without ``eid`` when ``enclave`` is None."""
        directory = dict(self.enclaves)
        if enclave is None:
            del directory[eid]
        else:
            directory[eid] = enclave
        self.enclaves = MappingProxyType(directory)

    def lock_plan(self, hypercall, args) -> Tuple[str, ...]:
        """The locks ``hypercall`` declares for ``args``, in global
        order: its ``@transactional`` lock set (declared in that
        order), with a function in the set applied to the first
        argument (the ``eid``).

        The scheduler's script driver resolves this plan once per step
        and takes it before the body runs; the transactional wrapper
        resolves and takes it itself only for a body entered any other
        way (see :mod:`repro.concurrency.locks`).  A hypercall without
        a declared set — a planted bug's own override — plans nothing.
        ``MissingLockMonitor`` overrides this with ``()``.
        """
        return tuple(name(args[0]) if callable(name) else name
                     for name in getattr(hypercall, "lock_set", ()))

    def _tlb_shootdown(self):
        """Run the TLB shootdown protocol (method indirection so the
        ``NoShootdownMonitor`` bug variant can drop the remote IPIs)."""
        tlb_shootdown(self)

    def _boot_map_untrusted(self):
        """Identity-map normal memory into the normal VM's EPT, using the
        largest aligned spans available (huge pages keep the boot cost at
        a handful of page-table frames; the enclave EPTs stay strictly
        4K-grained per the enclave invariants)."""
        config = self.config
        addr = 0
        end = config.frame_base(self.layout.secure_base)
        while addr < end:
            placed = False
            if self.os_ept.allow_huge:
                for level in sorted(config.arch.block_levels,
                                    reverse=True):
                    span = config.level_span(level)
                    if addr % span == 0 and addr + span <= end:
                        self.os_ept.map_huge(addr, addr, level,
                                             self.config.arch.leaf_flags())
                        addr += span
                        placed = True
                        break
            if not placed:
                self.os_ept.map_page(addr, addr, self.config.arch.leaf_flags())
                addr += config.page_size

    # -- hypercalls ------------------------------------------------------------------

    @transactional(LOCK_ENCLAVES, LOCK_EPCM, LOCK_FRAMES)
    def hc_create(self, elrange_base, elrange_size, mbuf_va, mbuf_pa,
                  mbuf_size) -> int:
        """ECREATE: establish a new enclave with empty page tables.

        The page tables are constructed *from scratch* — never copied
        from the primary OS's tables.  (The shallow-copy shortcut is the
        real-world bug of Sec. 4.1; see
        :class:`repro.hyperenclave.buggy.ShallowCopyMonitor`.)
        """
        config = self.config
        self._require_page_aligned(elrange_base, "elrange_base")
        self._require_page_aligned(mbuf_va, "mbuf_va")
        self._require_page_aligned(mbuf_pa, "mbuf_pa")
        if elrange_size <= 0 or elrange_size % config.page_size:
            raise HypercallError("ELRANGE size must be whole pages")
        if mbuf_size <= 0 or mbuf_size % config.page_size:
            raise HypercallError("marshalling buffer must be whole pages")
        if elrange_base + elrange_size > config.va_space:
            raise HypercallError("ELRANGE exceeds the virtual address space")
        mbuf = MarshallingBuffer(va_base=mbuf_va, pa_base=mbuf_pa,
                                 size=mbuf_size)
        # The buffer must be normal memory: backing an mbuf with EPC
        # pages would alias secure memory into the untrusted world.
        for va_page, pa_page in mbuf.pages(config):
            if not self.layout.is_untrusted(config.frame_of(pa_page)):
                raise HypercallError(
                    f"marshalling buffer page {pa_page:#x} is not in "
                    f"untrusted memory")
        conc.guard_mutation(LOCK_ENCLAVES)
        eid = self._next_eid
        self._next_eid += 1
        faults.crash_point("hc.create", "validated")
        gpt = PageTable(config, self.phys, self.pt_allocator,
                        allow_huge=False, name=f"enc{eid}-gpt")
        ept = PageTable(config, self.phys, self.pt_allocator,
                        allow_huge=False, name=f"enc{eid}-ept")
        enclave = Enclave(eid=eid, elrange_base=elrange_base,
                          elrange_size=elrange_size, mbuf=mbuf,
                          gpt=gpt, ept=ept, gpa_base=elrange_base)
        faults.crash_point("hc.create", "tables-built")
        # SECS bookkeeping page.
        self.epcm.allocate(eid, PageState.SECS)
        faults.crash_point("hc.create", "secs-allocated")
        # Fix the marshalling-buffer mappings for the enclave's lifetime:
        # GVA -> GPA (identity into untrusted space) -> HPA (identity).
        for va_page, pa_page in mbuf.pages(config):
            gpt.map_page(va_page, pa_page, self.config.arch.leaf_flags())
            if ept.query(pa_page) is None:
                ept.map_page(pa_page, pa_page, self.config.arch.leaf_flags())
        faults.crash_point("hc.create", "mbuf-mapped")
        # Publish: from here the tables are shared state guarded by the
        # enclave's own lock (their mutations during construction above
        # were private — nobody else could name them yet).
        gpt.owner_lock = ept.owner_lock = enclave_lock(eid)
        conc.guard_mutation(LOCK_ENCLAVES)
        self._set_enclave(eid, enclave)
        return eid

    @transactional(LOCK_ENCLAVES, enclave_lock, LOCK_EPCM, LOCK_FRAMES)
    def hc_add_page(self, eid, va, src_gpa) -> int:
        """EADD: copy one source page from untrusted memory into a fresh
        EPC page and map it at ``va`` in the enclave.  Returns the EPC
        frame chosen."""
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.CREATED)
        config = self.config
        self._require_page_aligned(va, "va")
        self._require_page_aligned(src_gpa, "src_gpa")
        if not enclave.in_elrange(va):
            raise HypercallError(
                f"va {va:#x} outside ELRANGE "
                f"[{enclave.elrange_base:#x}, {enclave.elrange_end:#x})")
        if enclave.gpt.query(va) is not None:
            raise HypercallError(f"va {va:#x} already added")
        # Source must be normal memory reachable through the OS EPT.
        try:
            src_hpa = self.os_ept.translate(src_gpa, write=False)
        except TranslationFault:
            raise HypercallError(
                f"source page {src_gpa:#x} is not mapped for the OS")
        faults.crash_point("hc.add_page", "validated")
        frame = self.epcm.allocate(eid, PageState.REG, va=va)
        faults.crash_point("hc.add_page", "epcm-allocated")
        dst_frame = frame
        self.phys.copy_frame(dst_frame, config.frame_of(src_hpa))
        faults.crash_point("hc.add_page", "frame-copied")
        gpa = enclave.elrange_gpa(va)
        enclave.gpt.map_page(va, gpa, self.config.arch.leaf_flags())
        faults.crash_point("hc.add_page", "gpt-mapped")
        enclave.ept.map_page(gpa, config.frame_base(dst_frame),
                             self.config.arch.leaf_flags())
        faults.crash_point("hc.add_page", "ept-mapped")
        enclave.absorb_measurement(va, self.phys.frame_words(dst_frame))
        return frame

    @transactional(LOCK_ENCLAVES, enclave_lock, LOCK_EPCM, LOCK_FRAMES)
    def hc_aug_page(self, eid, va) -> int:
        """EAUG: add a fresh EPC page to an *initialized* enclave.

        Unlike EADD there is no source to copy, so the page arrives with
        whatever the frame holds — which is all-zeros precisely because
        ``hc_destroy`` scrubs frames before releasing them.  That makes
        destroy-time scrubbing load-bearing: the NoScrub buggy variant
        turns this hypercall into a cross-enclave leak.
        """
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.INITIALIZED)
        self._require_page_aligned(va, "va")
        if not enclave.in_elrange(va):
            raise HypercallError(
                f"va {va:#x} outside ELRANGE "
                f"[{enclave.elrange_base:#x}, {enclave.elrange_end:#x})")
        if enclave.gpt.query(va) is not None:
            raise HypercallError(f"va {va:#x} already mapped")
        frame = self.epcm.allocate(eid, PageState.REG, va=va)
        faults.crash_point("hc.aug_page", "epcm-allocated")
        gpa = enclave.elrange_gpa(va)
        enclave.gpt.map_page(va, gpa, self.config.arch.leaf_flags())
        faults.crash_point("hc.aug_page", "gpt-mapped")
        enclave.ept.map_page(gpa, self.config.frame_base(frame),
                             self.config.arch.leaf_flags())
        return frame

    @transactional(LOCK_ENCLAVES, enclave_lock, LOCK_EPCM)
    def hc_remove_page(self, eid, va):
        """EREMOVE: take one REG page back out of a *pre-init* enclave.

        The kernel module uses this to recover from partially-built
        enclaves.  The page is unmapped from both tables, scrubbed, and
        its EPCM entry freed — in that order, so no window exists where
        a mapping points at a free frame.
        """
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.CREATED)
        self._require_page_aligned(va, "va")
        frame = self.epcm.lookup_mapping(eid, va)
        if frame is None:
            raise HypercallError(
                f"no EPC page recorded at va {va:#x} for enclave {eid}")
        gpa = enclave.elrange_gpa(va)
        enclave.gpt.unmap(va)
        faults.crash_point("hc.remove_page", "gpt-unmapped")
        enclave.ept.unmap(gpa)
        faults.crash_point("hc.remove_page", "ept-unmapped")
        self.phys.zero_frame(frame)
        faults.crash_point("hc.remove_page", "frame-scrubbed")
        self.epcm.release(frame, eid)
        self._tlb_shootdown()
        return frame

    @transactional(LOCK_ENCLAVES, enclave_lock, LOCK_EPCM)
    def hc_trim_page(self, eid, va):
        """EMODT/TRIM + ETRACK: take one REG page out of a *live* enclave.

        The SGX2 memory-shrinking path: unlike ``hc_remove_page`` (a
        pre-init recovery tool), trimming is legal on an initialized —
        even currently entered — enclave, which is exactly what makes
        the TLB shootdown load-bearing: another vCPU may be running
        inside the enclave with the dying translation cached.  The
        order is unmap GPT → unmap EPT → shootdown (ETRACK: no vCPU
        still caches the translation) → scrub → release, so at no point
        does any core reach a frame the EPCM no longer accounts to the
        enclave.  The ``NoShootdownMonitor`` variant drops the remote
        flushes and the interleaving campaign's stale-translation
        detector convicts it.
        """
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.INITIALIZED,
                              EnclaveState.RUNNING)
        self._require_page_aligned(va, "va")
        frame = self.epcm.lookup_mapping(eid, va)
        if frame is None:
            raise HypercallError(
                f"no EPC page recorded at va {va:#x} for enclave {eid}")
        gpa = enclave.elrange_gpa(va)
        enclave.gpt.unmap(va)
        faults.crash_point("hc.trim_page", "gpt-unmapped")
        enclave.ept.unmap(gpa)
        faults.crash_point("hc.trim_page", "ept-unmapped")
        self._tlb_shootdown()
        faults.crash_point("hc.trim_page", "shootdown-done")
        self.phys.zero_frame(frame)
        faults.crash_point("hc.trim_page", "frame-scrubbed")
        self.epcm.release(frame, eid)
        return frame

    @transactional(LOCK_ENCLAVES, enclave_lock)
    def hc_init(self, eid):
        """EINIT: freeze the memory layout; the enclave becomes enterable."""
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.CREATED)
        faults.crash_point("hc.init", "pre-commit")
        enclave.state = EnclaveState.INITIALIZED

    @transactional(LOCK_ENCLAVES, enclave_lock)
    def hc_enter(self, eid):
        """Synchronous enclave entry: save host context, install the
        enclave's GPT/EPT roots, flush the TLB (Sec. 2.1)."""
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.INITIALIZED)
        if self.active != HOST_ID:
            raise HypercallError("enter requires the host to be active")
        self.saved_host_context = self.vcpu.context()
        if enclave.saved_context is not None:
            self.vcpu.restore(enclave.saved_context)
        else:
            self.vcpu.restore(tuple((name, 0) for name, _ in
                                    self.vcpu.context()))
        faults.crash_point("hc.enter", "context-saved")
        self.vcpu.gpt_root = enclave.gpt.root_frame
        self.vcpu.ept_root = enclave.ept.root_frame
        self.tlb.flush_all()
        faults.crash_point("hc.enter", "roots-installed")
        enclave.state = EnclaveState.RUNNING
        self.active = eid

    @transactional(LOCK_ENCLAVES, enclave_lock)
    def hc_exit(self, eid):
        """Enclave exit: save enclave context, restore the host world."""
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.RUNNING)
        if self.active != eid:
            raise HypercallError("exit from a non-active enclave")
        enclave.saved_context = self.vcpu.context()
        faults.crash_point("hc.exit", "context-saved")
        self.vcpu.restore(self.saved_host_context)
        self.saved_host_context = None  # consumed; nothing stays parked
        self.vcpu.gpt_root = None
        self.vcpu.ept_root = self.os_ept.root_frame
        self.tlb.flush_all()
        faults.crash_point("hc.exit", "host-restored")
        enclave.state = EnclaveState.INITIALIZED
        self.active = HOST_ID

    @transactional(LOCK_ENCLAVES, enclave_lock, LOCK_EPCM, LOCK_FRAMES)
    def hc_destroy(self, eid):
        """Tear down an enclave: scrub and release its EPC pages and
        page-table frames."""
        enclave = self._enclave(eid)
        enclave.require_state(EnclaveState.CREATED,
                              EnclaveState.INITIALIZED)
        for frame, entry in self.epcm.owned_by(eid):
            self.phys.zero_frame(frame)
        faults.crash_point("hc.destroy", "pages-scrubbed")
        self.epcm.release_all(eid)
        faults.crash_point("hc.destroy", "epcm-released")
        for frame in enclave.gpt.table_frames():
            self.phys.zero_frame(frame)
            self.pt_allocator.dealloc(frame)
        faults.crash_point("hc.destroy", "gpt-freed")
        for frame in enclave.ept.table_frames():
            self.phys.zero_frame(frame)
            self.pt_allocator.dealloc(frame)
        faults.crash_point("hc.destroy", "ept-freed")
        self._tlb_shootdown()  # its translations die with it, on every core
        enclave.state = EnclaveState.DESTROYED
        conc.guard_mutation(LOCK_ENCLAVES)
        self._set_enclave(eid, None)

    # -- memory access on behalf of principals (used by the security model) ----------

    def enclave_translate(self, eid, va, write=False) -> int:
        """Resolve an enclave VA through its GPT∘EPT composition."""
        enclave = self._enclave(eid)
        return two_stage_translate(self.config, self.phys, enclave.ept,
                                   enclave.gpt, va, write=write)

    def enclave_load(self, eid, va) -> int:
        return self.phys.read_word(self.enclave_translate(eid, va))

    def enclave_store(self, eid, va, value):
        self.phys.write_word(self.enclave_translate(eid, va, write=True),
                             value)

    # -- helpers ------------------------------------------------------------------------

    def _enclave(self, eid) -> Enclave:
        try:
            return self.enclaves[eid]
        except KeyError:
            raise HypercallError(f"no enclave with id {eid}")

    def _require_page_aligned(self, addr, what):
        if addr % self.config.page_size:
            raise HypercallError(f"{what} ({addr:#x}) is not page-aligned")

    def principals(self):
        """All live principal ids: the host plus every enclave."""
        return [HOST_ID] + sorted(self.enclaves)
