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

Every other structure the monitor mutates — the allocator bitmap, the
EPCM, each enclave's lifecycle triple, each vCPU — holds one immutable
value, and a mutation stores a new value instead of changing the old
one (:class:`Value`, :class:`CpuValue`).  A clone shares the values, a
rollback puts kept values back, and a fingerprint is worked out once
per value and kept on it, so every holder of the value shares it.
"""

import hashlib
from collections import namedtuple
from itertools import compress
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.concurrency import scheduler as conc
from repro.errors import HypervisorError
from repro.faults import plane as faults
from repro.hyperenclave.constants import WORD_BYTES
from repro.obs.metrics import REGISTRY

#: ``fingerprint.frames_hashed``: frames :meth:`PhysMemory.frame_digests`
#: re-hashed.
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
        # Incremental fingerprinting: every mutator records the frames
        # it touched and clears the combined digest; ``frame_digests``
        # re-hashes only the touched frames into a per-frame digest
        # table, which ``clone()`` brings up to date and then copies,
        # so neither copy re-hashes what was written before the clone.
        self._dirty_frames: set = set()
        self._frame_fps: Dict[int, bytes] = {}
        self._fingerprint: Optional[int] = None

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
        self._fingerprint = None
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
        self._fingerprint = None
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
        self._fingerprint = None
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

    def apply_undo(self, frames: Mapping[int, Tuple[int, ...]],
                   words: Mapping[int, int]):
        """Restore journalled frames, then journalled words (the
        rollback of a :class:`~repro.hyperenclave.txn.TxnScope`).

        ``frames`` maps a frame to its pre-transaction words and
        ``words`` a word index to its pre-transaction value; a word
        recorded on its own was recorded before any record of its
        whole frame, so it is restored last and wins.
        """
        self._fingerprint = None
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
        word tuples are shared.  The digest table is brought up to date
        first, so neither copy re-hashes a frame written before the
        clone."""
        self.frame_digests()
        new = object.__new__(type(self))
        new.config = self.config
        new._capacity = self._capacity
        new._wpp = self._wpp
        new._zero = self._zero
        new._frames = dict(self._frames)
        new._dirty_frames = set()
        new._frame_fps = dict(self._frame_fps)
        new._fingerprint = self._fingerprint
        return new

    # -- incremental fingerprint support ------------------------------------------

    def frame_digests(self) -> Dict[int, bytes]:
        """Per-frame blake2b-64 digests of every nonzero frame.

        Re-hashes only the frames dirtied since the last call and
        updates the cached table in place (frames that went all-zero
        drop out, matching the sparse semantics).  A frame's digest is
        over the ``repr`` of its ``(offset, word)`` pairs with a
        nonzero word, in offset order.  :meth:`fingerprint` folds the
        table into one combined digest.
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

    def fingerprint(self) -> int:
        """One blake2b-64 over the whole contents: ``b"phys"``, then
        each nonzero frame's number (8 bytes, big-endian) and digest,
        in frame order.  Kept until the next mutation."""
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=8)
            digest.update(b"phys")
            frame_fps = self.frame_digests()
            for frame in sorted(frame_fps):
                digest.update(frame.to_bytes(8, "big"))
                digest.update(frame_fps[frame])
            self._fingerprint = int.from_bytes(digest.digest(), "big")
        return self._fingerprint

    def __len__(self):
        return self._capacity


class Value(tuple):
    """An immutable structure value: a tuple that can also carry what
    is worked out from it (its fingerprint), once for every holder
    that shares it.  A mutation never changes a value; it stores a new
    one."""


def value_field(name):
    """A property over field ``name`` of the holder's ``value`` (a
    named tuple): reading gives the field, writing stores a new value
    with that field replaced."""
    def put(holder, new):
        holder.value = holder.value._replace(**{name: new})

    return property(attrgetter(f"value.{name}"), put,
                    doc=f"The ``{name}`` field of the value.")


# General-purpose register names of the vCPU model (a representative
# x86-64 subset; the noninterference observation function quantifies over
# whatever is here).
GPR_NAMES = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rsp", "rbp", "rip")


class CpuValue(namedtuple("CpuValue", (
        "regs", "gpt_root", "ept_root", "active", "saved_host_context",
        "tlb", "flush_count"))):
    """One vCPU's whole state as an immutable value.

    ``regs`` is the register file as ``(name, value)`` pairs in name
    order, which is also the saved context (:meth:`CpuLocal.context`).
    ``gpt_root`` is the guest page table root (CR3) and ``ept_root``
    the extended page table root (EPTP); RustMonitor switches both on
    every enclave entry/exit (Sec. 2.1).  ``active`` is the principal
    the core runs (0: the host) and ``saved_host_context`` the host
    registers parked across an enclave entry.  ``tlb`` holds the cached
    translations as ``((asid, va_page), (pa_page, span))`` pairs in
    insertion order, ``span`` being the bytes a translation covers
    (None: one page): hardware TLBs cache block translations at block
    granularity, and the stale-translation detector must sweep the
    whole span.  ``flush_count`` counts TLB flushes; it is telemetry,
    which digests and fingerprints leave out.
    """


#: A core as it boots: every register zero, no roots, the host active.
BOOT_CPU = CpuValue(regs=tuple(sorted((name, 0) for name in GPR_NAMES)),
                    gpt_root=None, ept_root=None, active=0,
                    saved_host_context=None, tlb=(), flush_count=0)


class CpuLocal:
    """Everything that is per-core on the real machine, held as one
    :class:`CpuValue`: the register file, the paging roots, the active
    principal, the parked host context and the TLB.

    HyperEnclave flushes the TLB on every enclave transition (Sec. 2.1);
    the model counts flushes so tests can assert that stale
    translations never survive a world switch.  ``vcpu`` and ``tlb``
    name this same object, so call sites read as the core's register
    file or its TLB.
    """

    __slots__ = ("value",)

    def __init__(self, value: Optional[CpuValue] = None):
        self.value = BOOT_CPU if value is None else value

    gpt_root = value_field("gpt_root")
    ept_root = value_field("ept_root")
    active = value_field("active")
    saved_host_context = value_field("saved_host_context")
    flush_count = value_field("flush_count")

    @property
    def vcpu(self) -> "CpuLocal":
        """The core as a register file (this object)."""
        return self

    @property
    def tlb(self) -> "CpuLocal":
        """The core as a TLB (this object)."""
        return self

    def clone(self):
        """An independent core sharing this one's value."""
        return CpuLocal(self.value)

    # -- registers ------------------------------------------------------------

    def write_reg(self, name, value):
        """Write a general register (wraps to 64 bits)."""
        regs = self.value.regs
        for index, (held, _old) in enumerate(regs):
            if held == name:
                self.value = self.value._replace(
                    regs=regs[:index] + ((name, value & _MASK64),)
                    + regs[index + 1:])
                return
        raise HypervisorError(f"unknown register {name!r}")

    def read_reg(self, name):
        """Read a general register."""
        for held, value in self.value.regs:
            if held == name:
                return value
        raise HypervisorError(f"unknown register {name!r}")

    def context(self) -> Tuple[Tuple[str, int], ...]:
        """Immutable register snapshot (saved on enclave exit)."""
        return self.value.regs

    def restore(self, context):
        """Load a saved register context."""
        self.value = self.value._replace(
            regs=tuple(sorted(dict(context).items())))

    # -- TLB ----------------------------------------------------------------------

    def insert(self, asid, va_page, pa_page, span=None):
        """Cache a translation (replacing one cached for the same key)."""
        key = (asid, va_page)
        entries = self.value.tlb
        for index, (held, _hit) in enumerate(entries):
            if held == key:
                entries = (entries[:index] + ((key, (pa_page, span)),)
                           + entries[index + 1:])
                break
        else:
            entries += ((key, (pa_page, span)),)
        self.value = self.value._replace(tlb=entries)

    def lookup(self, asid, va_page) -> Optional[int]:
        """The cached physical page for ``(asid, va_page)``, or None."""
        key = (asid, va_page)
        for held, (pa_page, _span) in self.value.tlb:
            if held == key:
                return pa_page
        return None

    def flush_asid(self, asid):
        """Drop every entry tagged with ``asid``."""
        value = self.value
        self.value = value._replace(
            tlb=tuple(entry for entry in value.tlb if entry[0][0] != asid),
            flush_count=value.flush_count + 1)

    def flush_all(self):
        """Drop every entry (the world-switch flush)."""
        self.value = self.value._replace(
            tlb=(), flush_count=self.value.flush_count + 1)

    def tlb_entries(self):
        """The cached translations in key order."""
        return tuple(sorted(self.value.tlb))

    def __len__(self):
        return len(self.value.tlb)
