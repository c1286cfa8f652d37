"""The simulated machine: physical memory, TLB, virtual CPUs.

The paper's testbed is real x86-64 hardware with VT-x nested paging;
here the machine is simulated (see DESIGN.md substitutions).  Physical
memory is a flat array of 64-bit words — deliberately the *same
semantics* as the paper's bottom-layer abstract data ("a big flat
array of integers representing the physical memory of the frame area",
Sec. 4.1), so the flat-view specification and the machine agree by
construction and the interesting proofs are about everything above.

Every word keeps its flat address, but the words are stored by frame:
a map from frame number to an immutable tuple of the frame's words,
with all-zero frames absent.  The operations that cost time act on
whole frames — zeroing, copying, the undo journal of either, clones,
observation and hashing — and each is then one map operation on one
tuple instead of a visit to every word.  Clones share tuples.
"""

import hashlib
from dataclasses import dataclass, field
from itertools import compress
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.concurrency import scheduler as conc
from repro.errors import HypervisorError
from repro.faults import plane as faults
from repro.hyperenclave.constants import WORD_BYTES
from repro.obs.metrics import REGISTRY

#: ``fingerprint.frames_hashed``: frames :meth:`PhysMemory.frame_digests`
#: re-hashed, the count the warm-source rule of
#: :mod:`repro.engine.fingerprint` keeps small.
FRAME_STATS = REGISTRY.counter_group("fingerprint", ("frames_hashed",))

_MASK64 = (1 << 64) - 1


class PhysMemory:
    """Word-addressed physical memory, stored by frame.

    Semantically a dense array of ``phys_bytes / 8`` words initialised to
    zero.  Stored as ``frame -> tuple of the frame's words`` holding only
    the frames with a nonzero word, so the full x86-64 geometry (4 GiB)
    is as cheap as the tiny one.  All views (snapshots, frame words)
    present the dense semantics.
    """

    def __init__(self, config):
        self.config = config
        self._capacity = config.phys_bytes // WORD_BYTES
        self._wpp = config.words_per_page
        self._zero = (0,) * self._wpp
        # frame -> its words; a frame is present iff a word is nonzero
        self._frames: Dict[int, Tuple[int, ...]] = {}
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
        # ``clone()`` copies.  A clone re-hashes only what it wrote
        # since it was taken *if its source's table was up to date* —
        # which is why campaigns warm every clone source first
        # (:func:`repro.engine.fingerprint.warm_fingerprints`); a clone
        # of a cold source inherits the source's dirty set too.
        self._dirty_frames: set = set()
        self._frame_fps: Dict[int, bytes] = {}

    # -- word access -------------------------------------------------------------

    def read_word(self, paddr):
        """Read the 64-bit word at byte address ``paddr`` (word-aligned)."""
        frame, offset = divmod(self._word_index(paddr), self._wpp)
        words = self._frames.get(frame)
        return 0 if words is None else words[offset]

    def write_word(self, paddr, value):
        """Write the 64-bit word at byte address ``paddr``.

        Fault-injection sites ``phys.write`` (the write faults) and
        ``phys.flip`` (in-flight bit corruption) live here; without an
        installed plane the hook is a single ``None`` test.
        """
        index = self._word_index(paddr)
        conc.yield_point("phys.write", f"word {paddr:#x}")
        value = faults.filter_write(paddr, value)
        frame, offset = divmod(index, self._wpp)
        words = list(self._frames.get(frame, self._zero))
        conc.record_phys_write(index, words[offset])
        self._version += 1
        self._dirty_frames.add(frame)
        words[offset] = value & _MASK64
        self._put(frame, words)

    def _word_index(self, paddr):
        if paddr % WORD_BYTES:
            raise HypervisorError(f"unaligned word access at {paddr:#x}")
        index = paddr // WORD_BYTES
        if not 0 <= index < self._capacity:
            raise HypervisorError(f"physical address {paddr:#x} out of range")
        return index

    def _put(self, frame, words: Sequence[int]):
        """Store ``words`` as ``frame``'s contents (absent if all zero;
        a tuple is stored as it is, shared)."""
        if any(words):
            self._frames[frame] = tuple(words)
        else:
            self._frames.pop(frame, None)

    # -- frame helpers --------------------------------------------------------------
    #
    # Frame operations yield once per frame and look the running task's
    # transaction scope up once; inside a transaction they take one
    # undo record of the whole frame.  Only ``copy_frame`` under an
    # installed fault plane goes word by word, because each copied word
    # is a ``phys.write``/``phys.flip`` fault site.

    def _check_frame(self, frame):
        """Range-check a frame number like an address."""
        if not 0 <= frame < self.config.phys_frames:
            raise HypervisorError(f"frame {frame} out of range")

    def zero_frame(self, frame):
        """Clear every word of one frame (one yield per frame).

        Inside a transaction the frame's prior words are journalled,
        zeros included: a rollback must restore them even if another
        vCPU wrote one of them in between (a lock-discipline bug).
        """
        self._check_frame(frame)
        conc.yield_point("phys.write", f"zero frame {frame}")
        self._version += 1
        self._dirty_frames.add(frame)
        old = self._frames.pop(frame, self._zero)
        scope = conc.txn_scope()
        if scope is not None:
            scope.record_frame(frame, old)

    def copy_frame(self, dst_frame, src_frame):
        """Copy a whole frame (zeros included).

        Under an installed fault plane each destination word goes
        through the same fault sites as :meth:`write_word`, so the EADD
        frame copy is injectable word by word; without one the copy
        shares the source's word tuple.
        """
        self._check_frame(dst_frame)
        self._check_frame(src_frame)
        conc.yield_point("phys.write",
                         f"copy frame {src_frame}->{dst_frame}")
        self._version += 1
        self._dirty_frames.add(dst_frame)
        frames = self._frames
        src = frames.get(src_frame, self._zero)
        scope = conc.txn_scope()
        if faults.active_plane() is None:
            if scope is not None:
                scope.record_frame(dst_frame, frames.get(dst_frame,
                                                         self._zero))
            self._put(dst_frame, src)
            return
        words = list(frames.get(dst_frame, self._zero))
        base = dst_frame * self._wpp
        try:
            for offset, value in enumerate(src):
                index = base + offset
                value = faults.filter_write(index * WORD_BYTES, value)
                if scope is not None:
                    scope.record_word(index, words[offset])
                words[offset] = value
        finally:
            # a fault part-way leaves the words copied before it
            self._put(dst_frame, words)

    def frame_words(self, frame) -> Tuple[int, ...]:
        """The frame's contents as an immutable word tuple."""
        self._check_frame(frame)
        return self._frames.get(frame, self._zero)

    def nonzero_frames(self) -> List[int]:
        """The frames holding a nonzero word, in ascending order."""
        return sorted(self._frames)

    # -- bulk views --------------------------------------------------------------------

    def snapshot(self):
        """The whole memory as an immutable value: ``(frame, words)``
        for every frame holding a nonzero word, in frame order.  Equal
        snapshots mean equal dense contents."""
        return tuple(sorted(self._frames.items()))

    def nonzero_words(self) -> int:
        """How many words are nonzero."""
        wpp = self._wpp
        return sum([wpp - words.count(0) for words in self._frames.values()])

    def load_snapshot(self, items: Iterable[Tuple[int, Tuple[int, ...]]]):
        """Replace the contents with a :meth:`snapshot`'s items."""
        self._replace(dict(items))

    def checkpoint(self) -> Dict[int, Tuple[int, ...]]:
        """Cheap checkpoint for transactional rollback (the frame map;
        the tuples are shared, never copied)."""
        return dict(self._frames)

    def restore_checkpoint(self, checkpoint: Dict[int, Tuple[int, ...]]):
        """Roll back to a :meth:`checkpoint` (transactional abort)."""
        self._replace(dict(checkpoint))

    def _replace(self, frames: Dict[int, Tuple[int, ...]]):
        """Wholesale content replacement.  A frame whose tuple is not
        the very one it held before is queued for re-hashing; the rest
        keep their cached digests."""
        self._version += 1
        current = self._frames
        self._frames = frames
        self._dirty_frames.update(
            frame for frame in current.keys() | frames.keys()
            if current.get(frame) is not frames.get(frame))

    def apply_undo(self, frames: Mapping[int, Tuple[int, ...]],
                   words: Mapping[int, int]):
        """Restore journalled frames, then journalled words (concurrent
        transactional rollback).

        ``frames`` maps a frame to its pre-transaction words and
        ``words`` a word index to its pre-transaction value; a word
        recorded on its own was recorded before any record of its
        whole frame, so it is restored last and wins.  Going through a
        method keeps the version counter honest: every cached
        fingerprint and shared snapshot is built on version equality.
        """
        self._version += 1
        dirty = self._dirty_frames
        for frame, old in frames.items():
            dirty.add(frame)
            self._put(frame, old)
        rows: Dict[int, List[int]] = {}
        for index, value in words.items():
            frame, offset = divmod(index, self._wpp)
            row = rows.get(frame)
            if row is None:
                row = rows[frame] = list(self._frames.get(frame, self._zero))
            row[offset] = value
        for frame, row in rows.items():
            dirty.add(frame)
            self._put(frame, row)

    def clone(self):
        """An independent copy (no yield points, no fault sites); the
        word tuples are shared."""
        new = object.__new__(type(self))
        new.config = self.config
        new._capacity = self._capacity
        new._wpp = self._wpp
        new._zero = self._zero
        new._frames = dict(self._frames)
        new._version = self._version
        new._dirty_frames = set(self._dirty_frames)
        new._frame_fps = dict(self._frame_fps)
        return new

    # -- incremental fingerprint support ------------------------------------------

    def frame_digests(self) -> Dict[int, bytes]:
        """Per-frame blake2b-64 digests of every nonzero frame.

        Re-hashes only the frames dirtied since the last call and
        updates the cached table in place (frames that went all-zero
        drop out, matching the sparse semantics).  A frame's digest is
        over the ``repr`` of its ``(offset, word)`` pairs with a
        nonzero word, in offset order.  The engine's fingerprint layer
        folds the table into one combined digest.
        """
        dirty = self._dirty_frames
        if dirty:
            FRAME_STATS["frames_hashed"] += len(dirty)
            frames, fps = self._frames, self._frame_fps
            for frame in dirty:
                words = frames.get(frame)
                if words is None:
                    fps.pop(frame, None)
                else:
                    fps[frame] = hashlib.blake2b(
                        repr(tuple(compress(enumerate(words), words)))
                        .encode(), digest_size=8).digest()
            dirty.clear()
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
