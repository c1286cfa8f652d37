"""Executable model of HyperEnclave's memory subsystem (Sec. 2, Fig. 1).

This is the *system under verification*: RustMonitor's frame allocator,
64-bit page-table entries, multi-level extended page tables, the Enclave
Page Cache Map, enclave objects with their ELRANGEs and marshalling
buffers, the untrusted primary OS, and the hypercall surface
(``create`` / ``add_page`` / ``init`` / ``enter`` / ``exit`` — the
ECREATE/EADD/EINIT emulation of Sec. 2.1).

Two machine geometries are provided: the real x86-64 shape (4-level,
512-entry tables, 4 KiB pages) and a tiny shape whose bounded state
space the checking engines can enumerate exhaustively.

:mod:`repro.hyperenclave.buggy` hosts the deliberately broken monitor
variants used by the Figure 5 and Sec. 4.1 bug-study benches.
"""

from repro.hyperenclave.constants import (
    MachineConfig,
    MemoryLayout,
    X86_64,
    TINY,
    PteFlagBits,
)
from repro.hyperenclave.hardware import CpuLocal, PhysMemory
from repro.hyperenclave.frames import BitmapFrameAllocator
from repro.hyperenclave import pte
from repro.hyperenclave.paging import PageTable, two_stage_translate
from repro.hyperenclave.epcm import Epcm, EpcmEntry, PageState
from repro.hyperenclave.enclave import Enclave, EnclaveState
from repro.hyperenclave.mbuf import MarshallingBuffer
from repro.hyperenclave.guest import PrimaryOS, App
from repro.hyperenclave.monitor import RustMonitor, HOST_ID

__all__ = [
    "MachineConfig", "MemoryLayout", "X86_64", "TINY", "PteFlagBits",
    "PhysMemory", "CpuLocal",
    "BitmapFrameAllocator",
    "pte",
    "PageTable", "two_stage_translate",
    "Epcm", "EpcmEntry", "PageState",
    "Enclave", "EnclaveState",
    "MarshallingBuffer",
    "PrimaryOS", "App",
    "RustMonitor", "HOST_ID",
]
