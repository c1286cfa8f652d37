"""Canonical 64-bit fingerprints over the mutable monitor state.

A fingerprint is a :func:`hashlib.blake2b` digest (8 bytes) over a
canonical byte encoding of one lock-guarded structure's value.  Two
properties matter:

* **Cross-process stability.**  Python's builtin ``hash`` is salted per
  process and useless as a cache key that workers and the parent both
  compute; blake2b over ``repr`` of primitive tuples is identical
  everywhere.  (The one exception is the enclave ``measurement``, a toy
  accumulator built on salted ``hash`` — stable across *forked* workers,
  which is why the sharded executor pins the ``fork`` start method.)
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

**The warm-source rule.**  ``phys``, ``frames`` and ``epcm`` carry
version counters, and ``clone()`` copies both the monitor's
fingerprint cache and the per-frame digest table of physical memory.
A clone therefore re-hashes only what it wrote since it was taken —
but only if its source was fingerprinted at its current version
first; a clone of a cold source inherits the source's dirty frames
and re-hashes them again, once per clone.  Campaigns never
fingerprint their clone sources on their own (a world prototype never
executes, a snapshot node is only ever cloned), so
:func:`warm_fingerprints` brings a source up to date right before it
is cloned: :func:`~repro.faults.campaign.execute_interleaved` warms
the prototype or the restored snapshot node, and
:class:`~repro.concurrency.snapshot.SnapshotPlan` warms the live
state it captures.  A run's final fingerprint then re-hashes only the
frames written since its last clone or capture.
"""

import hashlib
from typing import Dict

# One fingerprint per lock-guarded mutable structure of the monitor.
STRUCTURES = ("phys", "frames", "epcm", "enclaves", "cpus")


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


def phys_fingerprint(monitor) -> int:
    """Physical memory — transitively every page table's entries.

    Dirty-only and batched: :meth:`PhysMemory.frame_digests` re-hashes
    just the frames marked dirty since the store's digest table was
    last brought up to date — in this monitor or, for a clone, in its
    source before the clone was taken (every mutator marks its frames,
    transactional undo included; see the warm-source rule above) — and
    this function folds the table into one blake2b in frame order.
    Equal contents give equal frame tables give equal digests, so the
    value is as canonical as the old whole-snapshot ``repr`` encoding —
    only the encoding changed, which is why this fingerprint (and
    everything keyed on it) is not comparable across engine versions,
    exactly like any other memo-key schema change.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(b"phys")
    frame_fps = monitor.phys.frame_digests()
    for frame in sorted(frame_fps):
        digest.update(frame.to_bytes(8, "big"))
        digest.update(frame_fps[frame])
    return int.from_bytes(digest.digest(), "big")


def frames_fingerprint(monitor) -> int:
    """The page-table frame allocator bitmap."""
    return _fp("frames", monitor.pt_allocator.base,
               monitor.pt_allocator.snapshot())


def epcm_fingerprint(monitor) -> int:
    """The EPCM entry array."""
    return _fp("epcm", monitor.epcm.snapshot())


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
        (cpu.active, cpu.saved_host_context, cpu.vcpu.context(),
         cpu.vcpu.gpt_root, cpu.vcpu.ept_root, cpu.tlb.snapshot()[0])
        for cpu in monitor.cpus))


_FINGERPRINTS = {
    "phys": phys_fingerprint,
    "frames": frames_fingerprint,
    "epcm": epcm_fingerprint,
    "enclaves": enclaves_fingerprint,
    "cpus": cpus_fingerprint,
}

# Structures carrying a monotone ``_version`` mutation counter (bumped
# by every mutating method and preserved by ``clone``).  For these, an
# unchanged (object-lineage, version) pair implies unchanged contents,
# so their fingerprints can be cached on the monitor and survive clones
# instead of re-hashing a clean structure from scratch.  ``enclaves``
# and ``cpus`` have mutable fields poked from several modules and stay
# uncached — they are also the two cheapest to hash.
_VERSIONED = {
    "phys": lambda monitor: monitor.phys._version,
    "frames": lambda monitor: monitor.pt_allocator._version,
    "epcm": lambda monitor: monitor.epcm._version,
}


def structure_versions(monitor) -> Dict[str, int]:
    """Current mutation-counter values of the version-counted
    structures (used by the snapshot tree's copy-on-write sharing)."""
    return {name: read for name, read in
            ((name, fn(monitor)) for name, fn in _VERSIONED.items())}


def structure_fingerprints(monitor) -> Dict[str, int]:
    """All per-structure fingerprints, keyed by :data:`STRUCTURES`.

    Version-counted structures consult the monitor's ``_fp_cache``
    (``name -> (version, fingerprint)``): a hit at the current version
    returns the cached digest, a miss recomputes and refreshes the
    entry.  The cache is copied by ``RustMonitor.clone``, so a clone
    re-hashes nothing it did not mutate — provided its source was
    warm when it was cloned (:func:`warm_fingerprints`).
    """
    cache = getattr(monitor, "_fp_cache", None)
    fps = {}
    for name in STRUCTURES:
        if cache is None or name not in _VERSIONED:
            fps[name] = _FINGERPRINTS[name](monitor)
        else:
            fps[name] = _cached_fingerprint(monitor, cache, name)
    return fps


def _cached_fingerprint(monitor, cache, name) -> int:
    """A version-counted structure's fingerprint through ``cache``."""
    version = _VERSIONED[name](monitor)
    entry = cache.get(name)
    if entry is None or entry[0] != version:
        entry = cache[name] = (version, _FINGERPRINTS[name](monitor))
    return entry[1]


def warm_fingerprints(monitor) -> None:
    """Bring the version-counted fingerprints of ``monitor`` up to date
    before it is cloned: the ``phys`` frame-digest table and the
    ``phys``, ``frames`` and ``epcm`` cache entries.

    Clones copy all of them, so each clone of a warm source re-hashes
    only what it writes itself.  A no-op once they are warm; only
    digests change, never contents, so no version counter moves and
    the snapshot tree's copy-on-write sharing is unaffected.
    """
    cache = monitor._fp_cache
    for name in _VERSIONED:
        _cached_fingerprint(monitor, cache, name)


def versioned_fingerprints(monitor) -> tuple:
    """``(phys, frames, epcm)`` fingerprints through the monitor's
    version cache: a dict probe per structure that did not move since
    it was last fingerprinted (the snapshot tree's resume keys)."""
    cache = monitor._fp_cache
    return (_cached_fingerprint(monitor, cache, "phys"),
            _cached_fingerprint(monitor, cache, "frames"),
            _cached_fingerprint(monitor, cache, "epcm"))


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
