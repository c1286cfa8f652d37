"""Crash-consistent hypercalls: one undo scope per hypercall.

The paper's Sec. 5.2 claim quantifies over *every* hypercall — including
the ones that die halfway through.  ``hc_add_page`` is five mutations
long (EPCM allocate, frame copy, GPT map, EPT map, measure); if the
frame pool runs dry between the GPT map and the EPT map, the naive
monitor leaves a mapping with no backing translation and an EPCM entry
nothing points at.  The :func:`transactional` decorator makes every
hypercall atomic: it opens a :class:`TxnScope` on entry and, on *any*
failure — validation, resource exhaustion, or an injected fault — rolls
the scope back before re-raising, so the observable state machine only
ever moves in whole hypercalls.

Every structure a hypercall mutates but physical memory holds one
immutable value, and a mutation stores a new one (see
:mod:`repro.hyperenclave.hardware`); :data:`STRUCTURE_TABLE` names them
and says how to read and write each value.  A scope keeps two things:

* a first-write-wins undo journal of physical memory, fed by the
  ``phys.write`` hooks (one record per word or per whole frame), which
  covers every page table, frame copy and scrub;
* the values of the structures the hypercall may mutate, read when it
  opens.  Outside a vCPU task that is every structure.  On a scheduled
  vCPU task it is the structures of the hypercall's lock plan and the
  task's own vCPU: putting back every value would clobber *other
  vCPUs'* in-flight work.  The scope opens only once the whole plan is
  held — the scheduler's script driver takes it before the body runs,
  and a hypercall entered any other way takes it on entry — so 2PL
  guarantees nobody else touches a kept structure until release, and
  nothing another vCPU did while this one waited for a lock is ever
  undone.

Rolling back writes the journal and the kept values back, so it undoes
exactly the aborted hypercall's footprint.  Remote TLB flushes already
sent by a shootdown are deliberately not undone — flushing a cache is
always safe, and real IPIs cannot be recalled.  Rolling back runs with
the fault plane and the scheduler hooks suspended: it must not itself
trip a ``phys.write`` injection or hand the CPU away mid-undo.
"""

import functools
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.concurrency import scheduler as conc
from repro.concurrency.locks import lock_rank
from repro.errors import (
    FaultInjected,
    HypercallAborted,
    HypercallError,
    HypervisorError,
)
from repro.faults import plane as faults


def _held_by(holder):
    """``(read, write)`` of a structure whose value is the ``value``
    attribute of ``holder(monitor, key)``."""
    def read(monitor, key):
        return holder(monitor, key).value

    def write(monitor, key, value):
        holder(monitor, key).value = value

    return read, write


def _write_directory(monitor, _key, value):
    monitor.enclaves, monitor._next_eid = value


#: The structures a hypercall mutates: kind -> ``(keys, read, write)``.
#: A kind whose ``keys`` is None is one structure named by the kind;
#: otherwise there is one structure per key of ``keys(monitor)``, named
#: ``kind:key`` (``enclave:3``, ``cpu:0``).  ``read(monitor, key)``
#: gives its immutable value and ``write(monitor, key, value)`` stores
#: one.  The names are the lock names (a vCPU is touched only by its
#: own task and has none), in global lock order, so the enclave
#: directory is put back before the enclaves in it.  Physical memory is
#: too big for a value and has no entry: it rolls back through the
#: undo journal.
STRUCTURE_TABLE = {
    "enclaves": (None,
                 lambda monitor, _key: (monitor.enclaves, monitor._next_eid),
                 _write_directory),
    "enclave": (lambda monitor: monitor.enclaves,
                *_held_by(lambda monitor, eid: monitor.enclaves[eid])),
    "epcm": (None, *_held_by(lambda monitor, _key: monitor.epcm)),
    "frames": (None, *_held_by(lambda monitor, _key: monitor.pt_allocator)),
    "cpu": (lambda monitor: range(len(monitor.cpus)),
            *_held_by(lambda monitor, vid: monitor.cpus[vid])),
}


def structure_values(monitor) -> List[Tuple[str, object]]:
    """``(name, value)`` of every structure of :data:`STRUCTURE_TABLE`
    ``monitor`` has now, in table order."""
    values = []
    for kind, (keys, read, _write) in STRUCTURE_TABLE.items():
        if keys is None:
            values.append((kind, read(monitor, None)))
        else:
            values.extend((f"{kind}:{key}", read(monitor, key))
                          for key in keys(monitor))
    return values


def _entry(name):
    """``(key, read, write)`` of the structure called ``name``."""
    kind, _, key = name.partition(":")
    try:
        _keys, read, write = STRUCTURE_TABLE[kind]
    except KeyError:
        raise HypervisorError(f"no structure called {name!r}") from None
    return (int(key) if key else None), read, write


def _put_back(monitor, values):
    """Write each ``(name, value)`` of ``values`` back, in order."""
    for name, value in values:
        key, _read, write = _entry(name)
        write(monitor, key, value)


def monitor_digest(monitor) -> Tuple:
    """A comparable value of the security-relevant monitor state.

    Two monitors with equal digests are indistinguishable to every
    invariant checker and to every observation function: the physical
    memory snapshot (hence all page tables) and the fingerprint of
    every other structure — allocator bitmap, EPCM, enclave metadata
    and every vCPU with its live TLB entries.  The TLB *flush counts*
    are deliberately excluded — they are telemetry, not state.
    """
    from repro.engine.fingerprint import value_fingerprints

    return (monitor.phys.snapshot(),) + value_fingerprints(monitor)


# ---------------------------------------------------------------------------
# The undo scope
# ---------------------------------------------------------------------------


@dataclass
class TxnScope:
    """The undo footprint of one in-flight hypercall.

    * ``journal`` and ``frame_journal`` — physical memory overwritten
      inside the scope, first write wins per word.  A single word write
      (:func:`repro.concurrency.scheduler.record_phys_write`) records
      ``index -> old word`` in ``journal``; a frame operation records
      ``frame -> (len(journal) at the time, old words)`` in
      ``frame_journal``, once per frame, and a later word of a frame
      journalled whole is already covered.  Covers every page-table
      entry, frame copy, and scrub, because all tables live in physical
      memory.
    * ``values`` — ``(name, value)`` for each structure the scope puts
      back, read when it opens.  Outside a vCPU task that is every
      structure of :data:`STRUCTURE_TABLE`.  On a vCPU's task it is the
      structures of the hypercall's lock plan and the vCPU's own, read
      with the plan held: under strict 2PL no other task can have
      mutated one of them between then and abort, so putting the values
      back is exact.  The lock of an enclave that does not exist keeps
      nothing.
    """

    words_per_page: int
    values: List[Tuple] = field(default_factory=list)
    journal: Dict[int, int] = field(default_factory=dict)
    frame_journal: Dict[int, Tuple[int, Tuple[int, ...]]] = field(
        default_factory=dict)

    @classmethod
    def begin(cls, monitor, vid=None, plan=()) -> "TxnScope":
        """Open a scope on ``monitor``: outside any vCPU task when
        ``vid`` is None, else on vCPU ``vid``'s task with the locks of
        ``plan`` held."""
        if vid is None:
            values = structure_values(monitor)
        else:
            values = []
            for name in (*plan, f"cpu:{vid}"):
                key, read, _write = _entry(name)
                try:
                    values.append((name, read(monitor, key)))
                except KeyError:
                    pass        # the lock of an enclave that is not live
        return cls(values=values,
                   words_per_page=monitor.phys.config.words_per_page)

    def record_word(self, index, old_value):
        """Journal one physical word about to be overwritten."""
        if index in self.journal or (
                self.frame_journal
                and index // self.words_per_page in self.frame_journal):
            return
        self.journal[index] = old_value

    def record_frame(self, frame, old_words: Tuple[int, ...]):
        """Journal a whole frame about to be overwritten."""
        if frame not in self.frame_journal:
            self.frame_journal[frame] = (len(self.journal), old_words)

    def rollback(self, monitor):
        """Put back what the scope kept: the journalled memory and the
        kept values.  Whatever the scope did not keep — other vCPUs'
        work — is left alone."""
        with conc.suspended(), faults.suspended():
            monitor.phys.apply_undo(
                {frame: old_words for frame, (_position, old_words)
                 in self.frame_journal.items()},
                self.journal)
            _put_back(monitor, self.values)


def _open_scope(monitor, fn, args) -> TxnScope:
    """Hold the lock plan of ``fn`` for ``args`` and open its scope.
    Outside a vCPU task there is no plan.  On a task it is the plan the
    script driver took for the step when the step dispatched to this
    very body (its lock set is ``fn``'s); a body entered any other way
    resolves its plan and takes it without a yield."""
    vid = conc.current_vid()
    if vid is None:
        return TxnScope.begin(monitor)
    handed = conc.take_step_plan()
    if handed is not None and \
            getattr(handed.handler, "lock_set", None) is fn.lock_set:
        plan = handed.locks
    else:
        plan = monitor.lock_plan(fn, args)
        conc.take_locks(plan)
    return TxnScope.begin(monitor, vid, plan)


def transactional(*lock_set):
    """Make one hypercall atomic and declare the locks it takes.

    ``lock_set`` is the hypercall's strict-2PL lock set, declared next
    to its body in global lock order: lock names, or functions of the
    hypercall's first argument
    (:func:`~repro.concurrency.locks.enclave_lock`: the lock of the
    enclave ``eid`` names).  It is stored on the body as ``lock_set``,
    which ``functools.wraps`` copies onto every wrapper;
    :meth:`~repro.hyperenclave.monitor.RustMonitor.lock_plan` reads it.

    Every call holds its lock plan, opens a :class:`TxnScope`
    (see the module docstring for what it keeps), runs the body, and
    releases every lock on the way out:

    * Validation rejections (:class:`HypercallError`) roll back and
      re-raise as-is — the rollback is a no-op for them, but running it
      anyway means the guarantee does not depend on validations
      preceding mutations.
    * Mid-sequence failures (injected faults, exhausted allocators, any
      other hypervisor error) roll back and re-raise as the typed
      :class:`HypercallAborted`, chaining the cause.

    The undecorated body stays reachable as ``__wrapped__`` — the
    deliberately broken ``NonTransactionalMonitor`` uses it, and the
    fault campaign demonstrates that variant violating rollback.
    """

    classes = [lock_rank(name(0) if callable(name) else name)[0]
               for name in lock_set]
    if classes != sorted(set(classes)):
        raise ValueError(f"lock set {lock_set} is not in global lock order")

    def decorate(fn):
        fn.lock_set = lock_set

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            try:
                scope = _open_scope(self, fn, args)
                with conc.journalling(scope):
                    try:
                        return fn(self, *args, **kwargs)
                    except (FaultInjected, HypervisorError) as exc:
                        scope.rollback(self)
                        if isinstance(exc, HypercallError):
                            raise
                        raise HypercallAborted(fn.__name__, exc) from exc
            finally:
                # Strict 2PL exit: drop every lock, yield the hc.return
                # point, and self-check rule 2.  This runs on the abort
                # path too — including a vCPU crash, whose park is
                # delivered *at* that yield, after the locks are gone:
                # a crashed vCPU can strand work, never locks.
                conc.release_locks(fn.__name__)

        return wrapper

    return decorate
