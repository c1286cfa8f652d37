"""Bitmap frame allocator — layer 1 of the stack (Sec. 1: "15 layers
that span from frame allocation to address space isolation").

Allocates page-table frames from the secure pool.  The allocator is the
lowest non-trusted layer: its MIR transcription is verified against the
:func:`alloc_spec`-style specifications in
:mod:`repro.hyperenclave.mir_model`.
"""

from typing import Iterable

from repro.concurrency import scheduler as conc
from repro.errors import OutOfMemoryError, HypervisorError
from repro.faults import plane as faults
from repro.hyperenclave.hardware import Value


class BitmapFrameAllocator:
    """First-fit bitmap allocator over a contiguous frame range.

    ``value`` is the allocation bitmap, one bool per frame of the pool,
    as an immutable :class:`~repro.hyperenclave.hardware.Value`; every
    allocation and free stores a new one.
    """

    def __init__(self, frame_range: Iterable[int]):
        frames = sorted(frame_range)
        if not frames:
            raise HypervisorError("empty frame pool")
        if frames != list(range(frames[0], frames[0] + len(frames))):
            raise HypervisorError("frame pool must be contiguous")
        self.base = frames[0]
        self.size = len(frames)
        self.value = Value((False,) * self.size)

    # -- queries ------------------------------------------------------------------

    def contains(self, frame):
        return self.base <= frame < self.base + self.size

    def is_allocated(self, frame):
        """Is ``frame`` currently handed out?"""
        if not self.contains(frame):
            return False
        return self.value[frame - self.base]

    @property
    def used_count(self):
        return sum(self.value)

    @property
    def free_count(self):
        return self.size - self.used_count

    def allocated_frames(self):
        return [self.base + i for i, used in enumerate(self.value) if used]

    # -- operations ------------------------------------------------------------------

    def alloc(self) -> int:
        """Allocate the lowest free frame.

        Exhaustion — organic or injected through the ``frames.alloc``
        fault site — always raises the typed
        :class:`~repro.errors.OutOfMemoryError` (a
        :class:`~repro.errors.ResourceExhausted`), never an untyped
        failure: callers rely on the type to roll back cleanly.
        """
        conc.guard_mutation("frames")
        faults.allocation_gate(
            faults.SITE_FRAME_ALLOC,
            exhaust=lambda: OutOfMemoryError(
                "page-table frame pool exhausted (injected)"))
        try:
            index = self.value.index(False)
        except ValueError:
            raise OutOfMemoryError(
                "page-table frame pool exhausted") from None
        self._mark(index, True)
        return self.base + index

    def alloc_specific(self, frame) -> int:
        """Claim a specific free frame."""
        conc.guard_mutation("frames")
        if not self.contains(frame):
            raise HypervisorError(f"frame {frame} outside the pool")
        index = frame - self.base
        if self.value[index]:
            raise HypervisorError(f"frame {frame} already allocated")
        self._mark(index, True)
        return frame

    def dealloc(self, frame):
        """Return a frame to the pool (double frees rejected)."""
        conc.guard_mutation("frames")
        if not self.contains(frame):
            raise HypervisorError(f"frame {frame} outside the pool")
        index = frame - self.base
        if not self.value[index]:
            raise HypervisorError(f"double free of frame {frame}")
        self._mark(index, False)

    def _mark(self, index, used):
        value = self.value
        self.value = Value(value[:index] + (used,) + value[index + 1:])

    def snapshot(self):
        """Immutable allocation bitmap (for abstract states)."""
        return self.value

    def clone(self):
        """An independent allocator over the same pool, sharing the
        bitmap value."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        return new
