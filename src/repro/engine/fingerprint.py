"""Canonical 64-bit fingerprints over the mutable monitor state.

A fingerprint is a :func:`hashlib.blake2b` digest (8 bytes) over a
canonical byte encoding of one lock-guarded structure's value.  Two
properties matter:

* **Cross-process stability.**  Python's builtin ``hash`` of a str or
  bytes is salted per process, useless as a cache key that workers and
  the parent both compute; blake2b over ``repr`` of primitive tuples is
  identical everywhere.  Nothing a fingerprint covers depends on that
  salt: the toy enclave ``measurement`` mixes in ``hash((va, words))``,
  a tuple of ints, whose hash CPython does not randomise.  So a memo
  log written by one process and a campaign resumed after ``kill -9``
  in another read the same fingerprints.
* **Soundness for memoisation.**  Every input the memoised checkers
  read is covered by some structure fingerprint: the invariant families
  read ``phys``/``enclaves``/``epcm``/``frames`` (page tables live in
  physical memory, so walks are functions of ``phys``), the vCPU
  consistency check and the observation function additionally read
  ``cpus``.  TLB *entries* are included; TLB flush counts are telemetry
  (as in :func:`repro.hyperenclave.txn.monitor_digest`) and no memoised
  checker reads them.  The fingerprint-soundness property test pins
  this: any mutation through ``phys.write`` or a lock-structure path
  changes the combined fingerprint.

The granularity — one fingerprint per lock-guarded structure — is what
makes dirty tracking possible: a terminal state whose ``epcm``
fingerprint matches an already-certified state's need not re-run the
EPCM family even if its ``cpus`` changed.

**Values.**  Every structure but physical memory holds an immutable
value that each mutation replaces (:mod:`repro.hyperenclave.hardware`),
so what is worked out from a value holds as long as the value lives.
The allocator bitmap, the EPCM array and each vCPU's value keep their
fingerprint (a vCPU its rendered part of the ``cpus`` one) on the value
itself, so every clone, snapshot node and rolled-back monitor sharing a
value shares its fingerprint too, and nothing is hashed twice.
Physical memory re-hashes only the frames written since its digest
table was last brought up to date, and keeps its combined digest until
the next write; a clone brings the table up to date before copying it
(:meth:`~repro.hyperenclave.hardware.PhysMemory.clone`).  The enclave
directory is fingerprinted on every call: the enclaves' own values
change while the directory stays the same, and it is cheap.
"""

import hashlib
from typing import Dict


def content_fingerprint(*parts) -> int:
    """Canonical blake2b-64 over ``repr`` of primitive parts.

    The one fingerprint primitive of the engine: stable across processes
    (unlike salted builtin ``hash``), cheap, and collision-resistant
    enough for memo keys.  The monitor-state fingerprints below and the
    solver-verdict memo (:mod:`repro.symbolic.solver`) both build on it.
    """
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        digest.update(repr(part).encode())
        digest.update(b"\x1f")
    return int.from_bytes(digest.digest(), "big")


_fp = content_fingerprint


def _kept(value, compute, *args):
    """``compute(value, *args)``, worked out once per value and kept on
    it, so every holder of the value shares the result."""
    kept = value.__dict__
    try:
        return kept["fingerprint"]
    except KeyError:
        result = kept["fingerprint"] = compute(value, *args)
        return result


class _Rendered(str):
    """A part already rendered: it is its own ``repr``, so a tuple of
    rendered parts encodes exactly like the tuple of the parts."""

    __slots__ = ()

    def __repr__(self):
        return self


def phys_fingerprint(monitor) -> int:
    """Physical memory — transitively every page table's entries.

    :meth:`~repro.hyperenclave.hardware.PhysMemory.fingerprint` folds
    per-frame blake2b digests into one in frame order, re-hashing only
    the frames written since the digest table was last brought up to
    date, and keeps the result until the next write.  Equal contents
    give equal frame tables give equal digests, so the value is as
    canonical as a ``repr`` of the whole snapshot.
    """
    return monitor.phys.fingerprint()


def frames_fingerprint(monitor) -> int:
    """The page-table frame allocator bitmap."""
    allocator = monitor.pt_allocator
    return _kept(allocator.value, _frames_fp, allocator.base)


def _frames_fp(bitmap, base):
    return _fp("frames", base, bitmap)


def epcm_fingerprint(monitor) -> int:
    """The EPCM entry array."""
    return _kept(monitor.epcm.value, _epcm_fp)


def _epcm_fp(entries):
    return _fp("epcm", tuple(entry.snapshot() for entry in entries))


def enclaves_fingerprint(monitor) -> int:
    """Per-enclave metadata plus the eid counter."""
    return _fp("enclaves", monitor._next_eid, tuple(sorted(
        (eid, enclave.state.value, enclave.elrange_base,
         enclave.elrange_size,
         (enclave.mbuf.va_base, enclave.mbuf.pa_base, enclave.mbuf.size)
         if enclave.mbuf is not None else None,
         enclave.gpa_base, enclave.gpt.root_frame,
         enclave.ept.root_frame, enclave.measurement,
         enclave.saved_context)
        for eid, enclave in monitor.enclaves.items())))


def cpus_fingerprint(monitor) -> int:
    """Every per-core state: registers, roots, active principal, parked
    host context, live TLB entries (flush counts excluded — telemetry).

    The OS EPT root rides along because the vCPU consistency check
    compares installed roots against it; it is allocated at boot and
    never moves, but covering it keeps the memo key honest.
    """
    return _fp("cpus", monitor.os_ept.root_frame, tuple(
        _kept(cpu.value, _render_cpu) for cpu in monitor.cpus))


def _render_cpu(value):
    return _Rendered(repr((
        value.active, value.saved_host_context, value.regs,
        value.gpt_root, value.ept_root, tuple(sorted(value.tlb)))))


_FINGERPRINTS = {
    "phys": phys_fingerprint,
    "frames": frames_fingerprint,
    "epcm": epcm_fingerprint,
    "enclaves": enclaves_fingerprint,
    "cpus": cpus_fingerprint,
}

# One fingerprint per lock-guarded mutable structure of the monitor.
STRUCTURES = tuple(_FINGERPRINTS)


def structure_fingerprints(monitor) -> Dict[str, int]:
    """All per-structure fingerprints, keyed by :data:`STRUCTURES`."""
    return {name: fn(monitor) for name, fn in _FINGERPRINTS.items()}


def value_fingerprints(monitor) -> tuple:
    """The fingerprints of every structure but ``phys``, in
    :data:`STRUCTURES` order (what
    :func:`~repro.hyperenclave.txn.monitor_digest` pairs with the exact
    physical memory snapshot)."""
    return tuple(fn(monitor) for name, fn in _FINGERPRINTS.items()
                 if name != "phys")


def fingerprint(monitor, fps: Dict[str, int] = None) -> int:
    """The combined 64-bit monitor fingerprint."""
    fps = fps or structure_fingerprints(monitor)
    return _fp("monitor", tuple(fps[name] for name in STRUCTURES))


def state_fingerprint(state) -> int:
    """Fingerprint of a whole :class:`~repro.security.state.SystemState`
    (monitor plus the model bookkeeping: oracle cursor, step counter,
    walk mode)."""
    oracle = state.oracle
    oracle_key = None if oracle is None else (
        type(oracle).__name__, getattr(oracle, "position", None))
    return _fp("state", fingerprint(state.monitor), oracle_key,
               state.step_count, state.use_spec_walk)


def dirty_structures(before: Dict[str, int],
                     after: Dict[str, int]) -> tuple:
    """Which structures changed between two fingerprint dicts."""
    return tuple(name for name in STRUCTURES
                 if before.get(name) != after.get(name))
