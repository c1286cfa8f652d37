"""The untrusted side: primary OS and its applications (Sec. 2.1-2.2).

The primary OS owns all untrusted memory and — crucially — its own and
its applications' guest page tables, which are plain data in that
memory.  The threat model grants it "(1) arbitrary memory access or
malicious DMA ... and (2) initiating hypercall sequences"; this module
gives the adversary exactly those verbs and nothing else: every one of
its effects flows through guest-physical addresses translated by the
monitor-owned EPT, so the model cannot cheat its way into secure memory.
"""

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import HypervisorError, TranslationFault
from repro.hyperenclave import pte
from repro.hyperenclave.constants import WORD_BYTES
from repro.hyperenclave.paging import guest_walk


@dataclass
class App:
    """An untrusted application: a GPT root (in guest memory) plus the
    marshalling-buffer window it shares with its enclave."""

    app_id: int
    gpt_root_gpa: int
    mbuf_va: int = 0
    mbuf_size: int = 0


class PrimaryOS:
    """The untrusted primary OS.

    It builds guest page tables *by writing ordinary memory* — there is
    no privileged interface, just stores to GPAs, exactly like a real
    guest kernel.  A malicious OS uses the same verbs with hostile
    values; the attack generators in :mod:`repro.security.attacks`
    subclass nothing, they simply call these methods with bad inputs.
    """

    def __init__(self, config, phys, ept, layout):
        self.config = config
        self.phys = phys
        self.ept = ept            # the normal VM's EPT (monitor-owned)
        self.layout = layout
        self.apps: Dict[int, App] = {}
        self._next_table_frame = 0  # naive bump allocator over guest frames
        self._reserved_frames: set = set()

    def clone(self, phys, ept):
        """Rebind onto cloned backing stores (the OS's own page tables
        are guest data living in ``phys``, so only the bookkeeping —
        apps, reserved frames, the bump cursor — needs copying)."""
        new = object.__new__(type(self))
        new.config = self.config
        new.phys = phys
        new.ept = ept
        new.layout = self.layout
        new.apps = {app_id: App(app_id=app.app_id,
                                gpt_root_gpa=app.gpt_root_gpa,
                                mbuf_va=app.mbuf_va,
                                mbuf_size=app.mbuf_size)
                    for app_id, app in self.apps.items()}
        new._next_table_frame = self._next_table_frame
        new._reserved_frames = set(self._reserved_frames)
        return new

    # -- raw guest-physical access (adversary verb 1) ---------------------------------

    def gpa_write_word(self, gpa, value):
        """Write guest memory through the EPT (faults on secure memory)."""
        hpa = self.ept.translate(self.config.page_base(gpa), write=True) \
            + self.config.page_offset(gpa)
        self.phys.write_word(hpa, value)

    def gpa_read_word(self, gpa):
        """Read guest memory through the EPT (faults on secure memory)."""
        hpa = self.ept.translate(self.config.page_base(gpa), write=False) \
            + self.config.page_offset(gpa)
        return self.phys.read_word(hpa)

    def dma_write(self, pa, value):
        """Malicious DMA: bypasses the CPU's EPT but not the IOMMU-style
        check the monitor programs — modelled as the same EPT lookup,
        since HyperEnclave protects DMA with the same tables."""
        return self.gpa_write_word(pa, value)

    # -- guest page-table construction (plain memory writes) ------------------------------

    def reserve_table_frame(self) -> int:
        """Pick an untrusted frame to hold a guest page table, zeroed.

        The frame is zeroed through the EPT like any other guest store,
        with one translation for the whole frame: the EPT maps whole
        pages, so every word of the guest frame lands at the same
        offset of one host frame, and :meth:`PhysMemory.zero_frame
        <repro.hyperenclave.hardware.PhysMemory.zero_frame>` clears
        exactly the words a store per word would.
        """
        while self._next_table_frame in self._reserved_frames:
            self._next_table_frame += 1
        frame = self._next_table_frame
        if not self.layout.is_untrusted(frame):
            raise HypervisorError("untrusted memory exhausted for GPTs")
        self._reserved_frames.add(frame)
        self._next_table_frame += 1
        hpa = self.ept.translate(self.config.frame_base(frame), write=True)
        self.phys.zero_frame(self.config.frame_of(hpa))
        return frame

    def reserve_data_frame(self) -> int:
        """Pick an untrusted frame for application data / mbuf backing."""
        return self.reserve_table_frame()

    def new_gpt(self) -> int:
        """Allocate an empty GPT root; returns its GPA."""
        return self.config.frame_base(self.reserve_table_frame())

    def gpt_map(self, gpt_root_gpa, va, gpa, flags=None):
        """Install ``va -> gpa`` in a guest page table, creating
        intermediate tables in untrusted memory as needed."""
        if flags is None:
            flags = self.config.arch.leaf_flags()
        config = self.config
        table_gpa = gpt_root_gpa
        for level in range(config.levels, 1, -1):
            index = config.entry_index(va, level)
            entry_gpa = config.page_base(table_gpa) + index * WORD_BYTES
            entry = self.gpa_read_word(entry_gpa)
            if not config.arch.is_present(entry):
                new_table = config.frame_base(self.reserve_table_frame())
                entry = pte.pte_new(new_table, config.arch.table_flags(), config)
                self.gpa_write_word(entry_gpa, entry)
            table_gpa = pte.pte_addr(entry, config)
        index = config.entry_index(va, 1)
        entry_gpa = config.page_base(table_gpa) + index * WORD_BYTES
        self.gpa_write_word(entry_gpa,
                            pte.pte_new(config.page_base(gpa), flags, config))

    def gpt_set_raw_entry(self, table_gpa, index, raw_entry):
        """The adversary's scalpel: write an arbitrary 64-bit value into
        any GPT slot it can reach."""
        self.gpa_write_word(
            self.config.page_base(table_gpa) + index * WORD_BYTES,
            raw_entry)

    # -- application management ----------------------------------------------------------------

    def spawn_app(self, app_id) -> App:
        """Create an application with a fresh guest page table."""
        if app_id in self.apps:
            raise HypervisorError(f"app {app_id} already exists")
        app = App(app_id=app_id, gpt_root_gpa=self.new_gpt())
        self.apps[app_id] = app
        return app

    def app_map_data(self, app, va) -> int:
        """Back ``va`` in the app's address space with a fresh untrusted
        frame; returns the frame's GPA."""
        gpa = self.config.frame_base(self.reserve_data_frame())
        self.gpt_map(app.gpt_root_gpa, va, gpa)
        return gpa

    # -- memory access as the running guest ------------------------------------------------------

    def load(self, app, va) -> int:
        """A load executed by app code: nested GPT∘EPT walk."""
        hpa = guest_walk(self.config, self.phys, self.ept,
                         app.gpt_root_gpa, va, write=False)
        return self.phys.read_word(hpa)

    def store(self, app, va, value):
        """A store executed by app code: nested GPT-then-EPT walk."""
        hpa = guest_walk(self.config, self.phys, self.ept,
                         app.gpt_root_gpa, va, write=True)
        self.phys.write_word(hpa, value)

    def probe(self, app, va, write=False):
        """Translate without accessing; None on fault (probe attacks)."""
        try:
            return guest_walk(self.config, self.phys, self.ept,
                              app.gpt_root_gpa, va, write=write)
        except TranslationFault:
            return None
