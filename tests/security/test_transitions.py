"""The transition system: schedule discipline, faults as no-ops, oracle
semantics for the marshalling buffer, hypercall steps."""

import pytest

from repro.errors import SecurityError
from repro.hyperenclave.constants import TINY
from repro.hyperenclave.monitor import HOST_ID
from repro.security import (
    DataOracle, Hypercall, LocalCompute, MemLoad, MemStore, SystemState,
    apply_step, apply_trace,
)

from tests.conftest import build_enclave_world

PAGE = TINY.page_size


@pytest.fixture
def world():
    monitor, app, eid = build_enclave_world(secret=0x41)
    return SystemState(monitor, oracle=DataOracle([0xAB, 0xCD])), app, eid


class TestLocalCompute:
    def test_literal_and_ops(self, world):
        state, _app, _eid = world
        apply_step(state, LocalCompute(HOST_ID, "rax", value=5))
        apply_step(state, LocalCompute(HOST_ID, "rbx", value=3))
        apply_step(state, LocalCompute(HOST_ID, "rcx", op="add",
                                       src1="rax", src2="rbx"))
        apply_step(state, LocalCompute(HOST_ID, "rdx", op="xor",
                                       src1="rax", src2="rbx"))
        apply_step(state, LocalCompute(HOST_ID, "rsi", op="copy",
                                       src1="rcx"))
        regs = state.monitor.vcpu
        assert regs.read_reg("rcx") == 8
        assert regs.read_reg("rdx") == 6
        assert regs.read_reg("rsi") == 8

    def test_inactive_principal_is_a_trace_bug(self, world):
        state, _app, eid = world
        with pytest.raises(SecurityError):
            apply_step(state, LocalCompute(eid, "rax", value=1))


class TestMemorySteps:
    def test_host_load_store_gpa(self, world):
        state, _app, _eid = world
        apply_step(state, LocalCompute(HOST_ID, "rax", value=0x77))
        outcome = apply_step(state, MemStore(HOST_ID, 0x200, "rax"))
        assert outcome.applied
        outcome = apply_step(state, MemLoad(HOST_ID, 0x200, "rbx"))
        assert outcome.applied
        assert state.monitor.vcpu.read_reg("rbx") == 0x77

    def test_host_load_via_app_gpt(self, world):
        state, app, _eid = world
        gpa = state.monitor.primary_os.app_map_data(app, 6 * PAGE)
        state.monitor.primary_os.gpa_write_word(gpa, 0x55)
        apply_step(state, MemLoad(HOST_ID, 6 * PAGE, "rax",
                                  via_app=app.app_id))
        assert state.monitor.vcpu.read_reg("rax") == 0x55

    def test_faulting_access_is_noop(self, world):
        state, _app, _eid = world
        secure = TINY.frame_base(state.monitor.layout.epc_base)
        snapshot = state.monitor.phys.snapshot()
        regs_before = state.monitor.vcpu.context()
        outcome = apply_step(state, MemLoad(HOST_ID, secure, "rax"))
        assert not outcome.applied
        assert state.monitor.phys.snapshot() == snapshot
        assert state.monitor.vcpu.context() == regs_before

    def test_unaligned_access_faults(self, world):
        state, _app, _eid = world
        assert not apply_step(state, MemLoad(HOST_ID, 0x201, "rax")).applied

    def test_enclave_load_of_own_page(self, world):
        state, _app, eid = world
        apply_step(state, Hypercall(HOST_ID, "enter", (eid,)))
        outcome = apply_step(state, MemLoad(eid, 16 * PAGE, "rax"))
        assert outcome.applied
        assert state.monitor.vcpu.read_reg("rax") == 0x41


class TestOracleSemantics:
    def test_mbuf_load_comes_from_oracle(self, world):
        state, app, _eid = world
        state.monitor.primary_os.store(app, 12 * PAGE, 0x1111)
        outcome = apply_step(state, MemLoad(HOST_ID, 12 * PAGE, "rax",
                                            via_app=app.app_id))
        assert outcome.detail == "mbuf load (oracle)"
        assert state.monitor.vcpu.read_reg("rax") == 0xAB  # oracle, not 0x1111

    def test_mbuf_store_is_ignored(self, world):
        state, app, _eid = world
        snapshot = state.monitor.phys.snapshot()
        apply_step(state, LocalCompute(HOST_ID, "rax", value=0x2222))
        outcome = apply_step(state, MemStore(HOST_ID, 12 * PAGE, "rax",
                                             via_app=app.app_id))
        assert outcome.applied and "declassified" in outcome.detail
        assert state.monitor.phys.snapshot() == snapshot

    def test_oracle_sequence_consumed_in_order(self, world):
        state, app, _eid = world
        apply_step(state, MemLoad(HOST_ID, 12 * PAGE, "rax",
                                  via_app=app.app_id))
        apply_step(state, MemLoad(HOST_ID, 12 * PAGE, "rbx",
                                  via_app=app.app_id))
        assert state.monitor.vcpu.read_reg("rax") == 0xAB
        assert state.monitor.vcpu.read_reg("rbx") == 0xCD

    def test_enclave_mbuf_read_also_oracled(self, world):
        state, _app, eid = world
        apply_step(state, Hypercall(HOST_ID, "enter", (eid,)))
        outcome = apply_step(state, MemLoad(eid, 12 * PAGE, "rax"))
        assert outcome.detail == "mbuf load (oracle)"


class TestHypercallSteps:
    def test_enter_exit_schedule(self, world):
        state, _app, eid = world
        assert apply_step(state, Hypercall(HOST_ID, "enter",
                                           (eid,))).applied
        assert state.active == eid
        # lifecycle calls from the enclave are rejected no-ops
        assert not apply_step(state, Hypercall(eid, "enter",
                                               (eid,))).applied
        assert apply_step(state, Hypercall(eid, "exit", (eid,))).applied
        assert state.active == HOST_ID

    def test_rejected_hypercall_is_noop(self, world):
        state, _app, _eid = world
        snapshot = state.monitor.phys.snapshot()
        outcome = apply_step(state, Hypercall(HOST_ID, "add_page",
                                              (99, 0, 0)))
        assert not outcome.applied and "rejected" in outcome.detail
        assert state.monitor.phys.snapshot() == snapshot

    def test_unknown_hypercall_rejected(self, world):
        state, _app, _eid = world
        assert not apply_step(state, Hypercall(HOST_ID, "evil",
                                               ())).applied

    def test_host_cannot_exit(self, world):
        state, _app, _eid = world
        assert not apply_step(state, Hypercall(HOST_ID, "exit",
                                               (HOST_ID,))).applied

    def test_apply_trace_counts_steps(self, world):
        state, _app, _eid = world
        outcomes = apply_trace(state, [
            LocalCompute(HOST_ID, "rax", value=1),
            MemLoad(HOST_ID, 0, "rbx"),
        ])
        assert len(outcomes) == 2
        assert state.step_count == 2


class TestTlbSemantics:
    def test_virtual_access_populates_tlb(self, world):
        state, app, _eid = world
        gpa = state.monitor.primary_os.app_map_data(app, 6 * PAGE)
        del gpa
        assert len(state.monitor.tlb) == 0
        apply_step(state, MemLoad(HOST_ID, 6 * PAGE, "rax",
                                  via_app=app.app_id))
        assert state.monitor.tlb.lookup(0, (6 * PAGE, False)) is not None

    def test_direct_gpa_access_bypasses_tlb(self, world):
        state, _app, _eid = world
        apply_step(state, MemLoad(HOST_ID, 0x200, "rax"))
        assert len(state.monitor.tlb) == 0

    def test_cached_translation_reused(self, world):
        state, app, _eid = world
        state.monitor.primary_os.app_map_data(app, 6 * PAGE)
        apply_step(state, MemLoad(HOST_ID, 6 * PAGE, "rax",
                                  via_app=app.app_id))
        # Poison the cache; the next access must ride it (hardware
        # behaviour — the walk is skipped on a hit).
        state.monitor.tlb.insert(0, (6 * PAGE, False), 0x200)
        state.monitor.phys.write_word(0x208, 0x7777)
        apply_step(state, MemLoad(HOST_ID, 6 * PAGE + 8, "rbx",
                                  via_app=app.app_id))
        assert state.monitor.vcpu.read_reg("rbx") == 0x7777

    def test_world_switch_flushes(self, world):
        state, app, eid = world
        state.monitor.primary_os.app_map_data(app, 6 * PAGE)
        apply_step(state, MemLoad(HOST_ID, 6 * PAGE, "rax",
                                  via_app=app.app_id))
        assert len(state.monitor.tlb) == 1
        apply_step(state, Hypercall(HOST_ID, "enter", (eid,)))
        assert len(state.monitor.tlb) == 0

    def test_write_and_read_cached_separately(self, world):
        state, app, _eid = world
        state.monitor.primary_os.app_map_data(app, 6 * PAGE)
        apply_step(state, MemLoad(HOST_ID, 6 * PAGE, "rax",
                                  via_app=app.app_id))
        assert state.monitor.tlb.lookup(0, (6 * PAGE, True)) is None
        apply_step(state, MemStore(HOST_ID, 6 * PAGE, "rax",
                                   via_app=app.app_id))
        assert state.monitor.tlb.lookup(0, (6 * PAGE, True)) is not None


class TestSystemState:
    def test_clone_is_independent(self, world):
        state, _app, _eid = world
        clone = state.clone()
        apply_step(state, LocalCompute(HOST_ID, "rax", value=7))
        assert clone.monitor.vcpu.read_reg("rax") == 0
        assert state.monitor.vcpu.read_reg("rax") == 7

    def test_live_principals(self, world):
        state, _app, eid = world
        assert state.live_principals() == [HOST_ID, eid]


class TestDataOracle:
    def test_cycles_by_default(self):
        oracle = DataOracle([1, 2])
        assert [oracle.next() for _ in range(5)] == [1, 2, 1, 2, 1]

    def test_non_cycling_exhausts(self):
        oracle = DataOracle([1], cycle=False)
        oracle.next()
        with pytest.raises(SecurityError):
            oracle.next()

    def test_empty_returns_zero(self):
        assert DataOracle().next() == 0

    def test_fork_preserves_position(self):
        oracle = DataOracle([1, 2, 3])
        oracle.next()
        fork = oracle.fork()
        assert fork.next() == oracle.next() == 2

    def test_fork_shares_the_values_not_the_cursor(self):
        oracle = DataOracle([1, 2, 3], cycle=False)
        fork = oracle.fork()
        assert fork._values is oracle._values
        assert fork._cycle is False
        assert [fork.next(), fork.next()] == [1, 2]
        assert oracle.position == 0 and oracle.next() == 1

    def test_values_are_masked_once_into_a_tuple(self):
        oracle = DataOracle([-1, 1 << 64, 5])
        assert oracle._values == ((1 << 64) - 1, 0, 5)
        assert [oracle.next() for _ in range(3)] == [(1 << 64) - 1, 0, 5]

    def test_seeded_deterministic(self):
        assert [DataOracle.seeded(5).next() for _ in range(1)] == \
            [DataOracle.seeded(5).next()]
