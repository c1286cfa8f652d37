"""Scope completeness (satellite): every mutable field a hypercall can
touch must be (a) visible to ``monitor_digest`` and (b) reverted by the
rollback of the hypercall's ``TxnScope``.

The property is checked mutator-by-mutator, inside one transactional
hypercall that aborts after its mutations: each mutation must *change*
the digest — proving the digest actually watches that field, so the
revert assertion is not vacuous — and the abort must bring the digest
back exactly.  The hypercall runs both outside any vCPU task, where its
scope keeps every structure, and as vCPU 1's scheduled task, where it
keeps its lock plan's structures and vCPU 1, on both arches.  The
enclaves directory, once a dict a checkpoint held by reference and a
mutation changed in place (the historical shallow-copy trap), is a
read-only mapping each change replaces.
"""

from functools import partial

import pytest

from repro.concurrency import (
    LOCK_ENCLAVES,
    LOCK_EPCM,
    LOCK_FRAMES,
    DeterministicScheduler,
    enclave_lock,
)
from repro.errors import HypercallAborted, HypervisorError
from repro.hyperenclave.constants import ARCH_CONFIGS, WORD_BYTES
from repro.hyperenclave.enclave import EnclaveState
from repro.hyperenclave.epcm import PageState
from repro.hyperenclave.monitor import RustMonitor
from repro.hyperenclave.txn import monitor_digest, transactional

from tests.conftest import build_enclave_world


def free_epc_frame(monitor):
    return next(frame for frame, entry in monitor.epcm.entries()
                if entry.is_free())


def mutate_phys_word(monitor, eid):
    frame = free_epc_frame(monitor)
    monitor.phys.write_word(
        monitor.config.frame_base(frame) + 3 * WORD_BYTES, 0xC0FFEE)


def mutate_allocator(monitor, eid):
    monitor.pt_allocator.alloc()


def mutate_epcm(monitor, eid):
    monitor.epcm.record(free_epc_frame(monitor), eid, PageState.REG,
                        va=40 * monitor.config.page_size)


def mutate_enclave_directory(monitor, eid):
    monitor._set_enclave(999, monitor.enclaves[eid])


def mutate_enclave_state(monitor, eid):
    monitor.enclaves[eid].state = EnclaveState.DESTROYED


def mutate_enclave_saved_context(monitor, eid):
    monitor.enclaves[eid].saved_context = (("rax", 0xBAD),)


def mutate_enclave_measurement(monitor, eid):
    enclave = monitor.enclaves[eid]
    enclave.measurement = (enclave.measurement or 0) ^ 0x5A5A


def mutate_next_eid(monitor, eid):
    monitor._next_eid += 7


def mutate_cpu_active(monitor, eid):
    monitor.cpus[1].active = eid


def mutate_cpu_saved_host_context(monitor, eid):
    monitor.cpus[1].saved_host_context = (("rbx", 0x77),)


def mutate_vcpu_register(monitor, eid):
    monitor.cpus[1].vcpu.write_reg("rax", 0x1234)


def mutate_vcpu_roots(monitor, eid):
    monitor.cpus[1].vcpu.gpt_root = monitor.enclaves[eid].gpt.root_frame
    monitor.cpus[1].vcpu.ept_root = monitor.enclaves[eid].ept.root_frame


def mutate_tlb(monitor, eid):
    monitor.cpus[1].tlb.insert(eid, (16 * monitor.config.page_size, False),
                               0x9000)


def mutate_by_creating_an_enclave(monitor, eid):
    """The whole ECREATE body: a new directory entry, ``_next_eid``,
    a SECS page and two fresh page tables.  (``reserve_data_frame``
    changes only the primary OS's bookkeeping of untrusted frames,
    which no digest component watches.)"""
    page = monitor.config.page_size
    mbuf_pa = monitor.config.frame_base(
        monitor.primary_os.reserve_data_frame())
    RustMonitor.hc_create.__wrapped__(
        monitor, elrange_base=32 * page, elrange_size=page,
        mbuf_va=13 * page, mbuf_pa=mbuf_pa, mbuf_size=page)


MUTATORS = [
    mutate_phys_word,
    mutate_allocator,
    mutate_epcm,
    mutate_enclave_directory,
    mutate_enclave_state,
    mutate_enclave_saved_context,
    mutate_enclave_measurement,
    mutate_next_eid,
    mutate_cpu_active,
    mutate_cpu_saved_host_context,
    mutate_vcpu_register,
    mutate_vcpu_roots,
    mutate_tlb,
    mutate_by_creating_an_enclave,
]

MODES = ("sequential", "scheduled")


@transactional(LOCK_ENCLAVES, enclave_lock, LOCK_EPCM, LOCK_FRAMES)
def abort_after(monitor, eid, *mutators):
    """A hypercall on enclave ``eid`` that runs ``mutators``, each
    required to move the digest, then aborts."""
    for mutate in mutators:
        before = monitor_digest(monitor)
        mutate(monitor, eid)
        assert monitor_digest(monitor) != before, \
            f"the digest does not observe {mutate.__name__} — the " \
            f"revert check would be vacuous"
    raise HypervisorError("abort after the mutations")


def run_aborted(mode, monitor, eid, mutators):
    """Run :func:`abort_after` outside any task, or as vCPU 1's task of
    a two-task schedule whose vCPU 0 does nothing."""
    def call():
        abort_after(monitor, eid, *mutators)

    if mode == "sequential":
        call()
        return
    result = DeterministicScheduler(monitor, [lambda: None, call]).run()
    for exc in result.task_errors.values():
        raise exc


def world(arch):
    return build_enclave_world(monitor_cls=partial(RustMonitor, num_vcpus=2),
                               config=ARCH_CONFIGS[arch])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
@pytest.mark.parametrize("mutate", MUTATORS,
                         ids=[m.__name__ for m in MUTATORS])
def test_the_scope_reverts_the_field(mutate, arch, mode):
    monitor, _app, eid = world(arch)
    before = monitor_digest(monitor)
    with pytest.raises(HypercallAborted):
        run_aborted(mode, monitor, eid, [mutate])
    assert monitor_digest(monitor) == before


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
def test_all_mutations_at_once_revert(arch, mode):
    monitor, _app, eid = world(arch)
    before = monitor_digest(monitor)
    with pytest.raises(HypercallAborted):
        run_aborted(mode, monitor, eid, MUTATORS)
    assert monitor_digest(monitor) == before


def test_the_directory_refuses_an_in_place_write():
    monitor, _app, eid = build_enclave_world()
    with pytest.raises(TypeError):
        monitor.enclaves[999] = monitor.enclaves[eid]
