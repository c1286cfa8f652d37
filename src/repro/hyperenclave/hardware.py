"""The simulated machine: physical memory, TLB, virtual CPUs.

The paper's testbed is real x86-64 hardware with VT-x nested paging;
here the machine is simulated (see DESIGN.md substitutions).  Physical
memory is a flat array of 64-bit words — deliberately the *same
representation* as the paper's bottom-layer abstract data ("a big flat
array of integers representing the physical memory of the frame area",
Sec. 4.1), so the flat-view specification and the machine agree by
construction and the interesting proofs are about everything above.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.concurrency import scheduler as conc
from repro.errors import HypervisorError
from repro.faults import plane as faults
from repro.hyperenclave.constants import WORD_BYTES


class PhysMemory:
    """Flat word-addressed physical memory (sparse representation).

    Semantically a dense array of ``phys_bytes / 8`` words initialised to
    zero; stored sparsely so the full x86-64 geometry (4 GiB) is as cheap
    as the tiny one.  All views (snapshots, frame words) present the
    dense semantics.
    """

    def __init__(self, config):
        self.config = config
        self._capacity = config.phys_bytes // WORD_BYTES
        self._words: Dict[int, int] = {}
        # Monotone mutation counter.  Every path that can change the
        # dense contents bumps it (word writes, frame ops, snapshot
        # loads, transactional undo), which is what lets the engine
        # cache content fingerprints across ``clone()`` and lets the
        # snapshot tree share clean structures between sibling forks:
        # equal versions on one object lineage imply equal contents.
        self._version = 0
        # Dirty-frame tracking for incremental fingerprinting: every
        # mutator records the frames it touched; ``frame_digests``
        # re-hashes only those and keeps a per-frame digest table that
        # ``clone()`` copies, so a fingerprint after one hypercall
        # re-hashes the handful of frames that hypercall wrote instead
        # of the whole sparse store.
        self._dirty_frames: set = set()
        self._frame_fps: Dict[int, bytes] = {}

    # -- word access -------------------------------------------------------------

    def read_word(self, paddr):
        """Read the 64-bit word at byte address ``paddr`` (word-aligned)."""
        return self._words.get(self._word_index(paddr), 0)

    def write_word(self, paddr, value):
        """Write the 64-bit word at byte address ``paddr``.

        Fault-injection sites ``phys.write`` (the write faults) and
        ``phys.flip`` (in-flight bit corruption) live here; without an
        installed plane the hook is a single ``None`` test.
        """
        index = self._word_index(paddr)
        conc.yield_point("phys.write", f"word {paddr:#x}")
        value = faults.filter_write(paddr, value)
        conc.record_phys_write(index, self._words.get(index, 0))
        self._version += 1
        self._dirty_frames.add(index // self.config.words_per_page)
        masked = value & ((1 << 64) - 1)
        if masked == 0:
            self._words.pop(index, None)
        else:
            self._words[index] = masked

    def _word_index(self, paddr):
        if paddr % WORD_BYTES:
            raise HypervisorError(f"unaligned word access at {paddr:#x}")
        index = paddr // WORD_BYTES
        if not 0 <= index < self._capacity:
            raise HypervisorError(f"physical address {paddr:#x} out of range")
        return index

    # -- frame helpers --------------------------------------------------------------
    #
    # Bulk frame operations look the running task's undo journal and the
    # fault plane up once per frame and then work on the word dict
    # directly; only ``copy_frame`` keeps a per-word hook, because each
    # copied word is a ``phys.write``/``phys.flip`` fault site.

    def _frame_indices(self, frame) -> range:
        """Word indices of one frame (range-checked like addresses)."""
        if not 0 <= frame < self.config.phys_frames:
            raise HypervisorError(f"frame {frame} out of range")
        wpp = self.config.words_per_page
        return range(frame * wpp, (frame + 1) * wpp)

    def zero_frame(self, frame):
        """Clear every word of one frame (one yield per frame).

        Inside a transaction every word is journalled, zeros included:
        a rollback must restore them even if another vCPU wrote one of
        them in between (a lock-discipline bug).
        """
        indices = self._frame_indices(frame)
        conc.yield_point("phys.write", f"zero frame {frame}")
        self._version += 1
        self._dirty_frames.add(frame)
        pop = self._words.pop
        journal = conc.txn_journal()
        if journal is None:
            for index in indices:
                pop(index, None)
        else:
            for index in indices:
                journal.setdefault(index, pop(index, 0))

    def copy_frame(self, dst_frame, src_frame):
        """Copy a whole frame (zeros included).

        Each destination word goes through the same fault sites as
        :meth:`write_word`, so the EADD frame copy is injectable
        word-by-word.
        """
        dst = self._frame_indices(dst_frame)
        src = self._frame_indices(src_frame)
        conc.yield_point("phys.write",
                         f"copy frame {src_frame}->{dst_frame}")
        self._version += 1
        self._dirty_frames.add(dst_frame)
        words = self._words
        journal = conc.txn_journal()
        plane = faults.active_plane()
        for index, src_index in zip(dst, src):
            value = words.get(src_index, 0)
            if plane is not None:
                value = faults.filter_write(index * WORD_BYTES, value)
            if journal is not None:
                journal.setdefault(index, words.get(index, 0))
            if value == 0:
                words.pop(index, None)
            else:
                words[index] = value

    def frame_words(self, frame) -> Tuple[int, ...]:
        """The frame's contents as an immutable word tuple."""
        get = self._words.get
        return tuple([get(index, 0) for index in self._frame_indices(frame)])

    # -- bulk views --------------------------------------------------------------------

    def snapshot(self):
        """The whole memory as an immutable value (sorted nonzero words);
        equal snapshots mean equal dense contents."""
        return tuple(sorted(self._words.items()))

    def nonzero_words(self) -> int:
        """How many words are nonzero (the size of the sparse store)."""
        return len(self._words)

    def load_snapshot(self, items):
        """Replace the contents with a :meth:`snapshot`'s items."""
        self._version += 1
        self._words = dict(items)
        self._mark_all_dirty()

    def checkpoint(self):
        """Cheap mutable checkpoint (unsorted) for transactional rollback."""
        return dict(self._words)

    def restore_checkpoint(self, checkpoint):
        """Roll back to a :meth:`checkpoint` (transactional abort)."""
        self._version += 1
        self._words = dict(checkpoint)
        self._mark_all_dirty()

    def apply_undo(self, journal):
        """Restore journalled words (concurrent transactional rollback).

        ``journal`` maps word index to the pre-transaction value; a zero
        restores the sparse default.  Going through a method keeps the
        version counter honest — the undo path used to poke ``_words``
        directly, which would silently invalidate every cached
        fingerprint and shared snapshot built on version equality.
        """
        self._version += 1
        wpp = self.config.words_per_page
        for index, old_value in journal.items():
            self._dirty_frames.add(index // wpp)
            if old_value == 0:
                self._words.pop(index, None)
            else:
                self._words[index] = old_value

    def clone(self):
        """An independent copy (no yield points, no fault sites)."""
        new = object.__new__(type(self))
        new.config = self.config
        new._capacity = self._capacity
        new._words = dict(self._words)
        new._version = self._version
        new._dirty_frames = set(self._dirty_frames)
        new._frame_fps = dict(self._frame_fps)
        return new

    # -- incremental fingerprint support ------------------------------------------

    def _mark_all_dirty(self):
        """Wholesale content replacement: discard every cached frame
        digest and queue the now-populated frames for re-hashing."""
        self._frame_fps.clear()
        self._dirty_frames = {index // self.config.words_per_page
                              for index in self._words}

    def frame_digests(self) -> Dict[int, bytes]:
        """Per-frame blake2b-64 digests of every nonzero frame.

        Re-hashes only the frames dirtied since the last call and
        updates the cached table in place (frames that went all-zero
        drop out, matching the sparse semantics).  The engine's
        fingerprint layer folds the table into one combined digest —
        O(dirty frames) hashing plus O(nonzero frames) mixing, versus
        re-encoding the whole store on every fingerprint.
        """
        if self._dirty_frames:
            wpp = self.config.words_per_page
            words = self._words
            for frame in self._dirty_frames:
                base = frame * wpp
                content = tuple([(index - base, words[index])
                                 for index in range(base, base + wpp)
                                 if index in words])
                if content:
                    self._frame_fps[frame] = hashlib.blake2b(
                        repr(content).encode(), digest_size=8).digest()
                else:
                    self._frame_fps.pop(frame, None)
            self._dirty_frames.clear()
        return self._frame_fps

    def __len__(self):
        return self._capacity


class Tlb:
    """A simple tagged TLB.

    HyperEnclave flushes the TLB on every enclave transition (Sec. 2.1);
    the model records flushes so tests can assert that stale translations
    never survive a world switch.
    """

    def __init__(self):
        # key -> (pa_page, span): ``span`` is the bytes the cached
        # translation covers (None = one page).  Hardware TLBs cache
        # block translations at block granularity; the stale-translation
        # detector must sweep the whole span, not just the base page.
        self._entries: Dict[Tuple[int, int], Tuple[int, Optional[int]]] = {}
        self.flush_count = 0

    def insert(self, asid, va_page, pa_page, span=None):
        self._entries[(asid, va_page)] = (pa_page, span)

    def lookup(self, asid, va_page) -> Optional[int]:
        """The cached physical page for ``(asid, va_page)``, or None."""
        hit = self._entries.get((asid, va_page))
        return None if hit is None else hit[0]

    def lookup_entry(self, asid, va_page) -> Optional[Tuple[int, Optional[int]]]:
        """``(pa_page, span)`` for a cached translation, or None."""
        return self._entries.get((asid, va_page))

    def flush_asid(self, asid):
        """Drop every entry tagged with ``asid``."""
        self._entries = {k: v for k, v in self._entries.items()
                         if k[0] != asid}
        self.flush_count += 1

    def flush_all(self):
        """Drop every entry (the world-switch flush)."""
        self._entries.clear()
        self.flush_count += 1

    def snapshot(self):
        """(entries, flush_count) as an immutable value."""
        return (tuple(sorted(self._entries.items())), self.flush_count)

    def load_snapshot(self, snapshot):
        """Restore a :meth:`snapshot` (transactional rollback)."""
        entries, flush_count = snapshot
        self._entries = dict(entries)
        self.flush_count = flush_count

    def clone(self):
        """An independent copy, flush telemetry included."""
        new = type(self)()
        new._entries = dict(self._entries)
        new.flush_count = self.flush_count
        return new

    def __len__(self):
        return len(self._entries)


# General-purpose register names of the vCPU model (a representative
# x86-64 subset; the noninterference observation function quantifies over
# whatever is here).
GPR_NAMES = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rsp", "rbp", "rip")


@dataclass
class VCpu:
    """Virtual CPU state: general registers plus the two paging roots.

    ``gpt_root`` is the guest page table root (CR3); ``ept_root`` is the
    extended page table root (EPTP).  RustMonitor switches both on every
    enclave entry/exit (Sec. 2.1).
    """

    regs: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in GPR_NAMES})
    gpt_root: Optional[int] = None
    ept_root: Optional[int] = None

    def write_reg(self, name, value):
        """Write a general register (wraps to 64 bits)."""
        if name not in self.regs:
            raise HypervisorError(f"unknown register {name!r}")
        self.regs[name] = value & ((1 << 64) - 1)

    def read_reg(self, name):
        """Read a general register."""
        if name not in self.regs:
            raise HypervisorError(f"unknown register {name!r}")
        return self.regs[name]

    def context(self) -> Tuple[Tuple[str, int], ...]:
        """Immutable register snapshot (saved on enclave exit)."""
        return tuple(sorted(self.regs.items()))

    def restore(self, context):
        self.regs = dict(context)

    def clone(self):
        return VCpu(regs=dict(self.regs), gpt_root=self.gpt_root,
                    ept_root=self.ept_root)


@dataclass
class CpuLocal:
    """Everything that is per-core on the real machine.

    Each vCPU has its own register file, its own TLB, its own notion of
    which principal it is running (``active``), and its own parked host
    context across an enclave entry.  The monitor's scalar views of
    these (``monitor.active`` etc.) dispatch on the executing vCPU.
    """

    vcpu: VCpu
    tlb: Tlb
    active: int = 0                       # HOST_ID
    saved_host_context: Optional[Tuple] = None

    def snapshot(self):
        """Immutable capture for transactional rollback."""
        return (dict(self.vcpu.regs), self.vcpu.gpt_root,
                self.vcpu.ept_root, self.active,
                self.saved_host_context, self.tlb.snapshot())

    def load_snapshot(self, snapshot):
        """Restore a :meth:`snapshot` (transactional rollback)."""
        regs, gpt_root, ept_root, active, shc, tlb = snapshot
        self.vcpu.regs = dict(regs)
        self.vcpu.gpt_root = gpt_root
        self.vcpu.ept_root = ept_root
        self.active = active
        self.saved_host_context = shc
        self.tlb.load_snapshot(tlb)

    def clone(self):
        """An independent per-core copy (``saved_host_context`` is an
        immutable register tuple, shared by reference)."""
        return CpuLocal(vcpu=self.vcpu.clone(), tlb=self.tlb.clone(),
                        active=self.active,
                        saved_host_context=self.saved_host_context)
