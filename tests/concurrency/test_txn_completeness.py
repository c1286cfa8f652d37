"""Checkpoint completeness (satellite): every mutable field a hypercall
can touch must be (a) visible to ``monitor_digest`` and (b) reverted by
``capture``/``restore``.

The property is checked mutator-by-mutator: each mutation must *change*
the digest — proving the digest actually watches that field, so the
revert assertion is not vacuous — and a restore must bring the digest
back exactly.  The enclaves directory, once a dict the checkpoint held
by reference and a mutation changed in place (the historical
shallow-copy trap), is a read-only mapping each change replaces.
"""

from functools import partial

import pytest

from repro.hyperenclave.constants import TINY, WORD_BYTES
from repro.hyperenclave.enclave import EnclaveState
from repro.hyperenclave.epcm import PageState
from repro.hyperenclave.monitor import RustMonitor
from repro.hyperenclave.txn import capture, monitor_digest, restore

from tests.conftest import build_enclave_world

PAGE = TINY.page_size


def free_epc_frame(monitor):
    return next(frame for frame, entry in monitor.epcm.entries()
                if entry.is_free())


def mutate_phys_word(monitor, eid):
    frame = free_epc_frame(monitor)
    monitor.phys.write_word(TINY.frame_base(frame) + 3 * WORD_BYTES,
                            0xC0FFEE)


def mutate_allocator(monitor, eid):
    monitor.pt_allocator.alloc()


def mutate_epcm(monitor, eid):
    monitor.epcm.record(free_epc_frame(monitor), eid, PageState.REG,
                        va=40 * PAGE)


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
    monitor.cpus[1].tlb.insert(eid, (16 * PAGE, False), 0x9000)


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
]


@pytest.mark.parametrize("mutate", MUTATORS,
                         ids=[m.__name__ for m in MUTATORS])
def test_checkpoint_reverts_the_field(mutate):
    monitor, _app, eid = build_enclave_world(
        monitor_cls=partial(RustMonitor, num_vcpus=2))
    before = monitor_digest(monitor)
    checkpoint = capture(monitor)
    mutate(monitor, eid)
    assert monitor_digest(monitor) != before, \
        "the digest does not observe this field — the revert check " \
        "below would be vacuous"
    restore(monitor, checkpoint)
    assert monitor_digest(monitor) == before


def test_all_mutations_at_once_revert():
    monitor, _app, eid = build_enclave_world(
        monitor_cls=partial(RustMonitor, num_vcpus=2))
    before = monitor_digest(monitor)
    checkpoint = capture(monitor)
    for mutate in MUTATORS:
        mutate(monitor, eid)
    restore(monitor, checkpoint)
    assert monitor_digest(monitor) == before


def test_the_directory_refuses_an_in_place_write():
    monitor, _app, eid = build_enclave_world()
    with pytest.raises(TypeError):
        monitor.enclaves[999] = monitor.enclaves[eid]


def test_restore_survives_an_enclave_created_after_capture():
    """A hypercall that *created* an enclave must fully vanish."""
    monitor, _app, eid = build_enclave_world()
    before = monitor_digest(monitor)
    checkpoint = capture(monitor)
    mbuf_pa = TINY.frame_base(monitor.primary_os.reserve_data_frame())
    monitor.hc_create(elrange_base=32 * PAGE, elrange_size=PAGE,
                      mbuf_va=13 * PAGE, mbuf_pa=mbuf_pa,
                      mbuf_size=PAGE)
    assert monitor_digest(monitor) != before
    restore(monitor, checkpoint)
    # reserve_data_frame mutated only the primary OS's bookkeeping of
    # untrusted frames, which no digest component watches.
    assert monitor_digest(monitor) == before
