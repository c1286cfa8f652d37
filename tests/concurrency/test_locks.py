"""The lock model: global order, mutual exclusion, discipline rules."""

import pytest

from repro.errors import (
    HypervisorError,
    LockProtocolViolation,
    StaleTranslation,
)
from repro.concurrency.locks import (
    LOCK_ENCLAVES,
    LOCK_EPCM,
    LOCK_FRAMES,
    LockManager,
    enclave_lock,
    lock_rank,
    order_locks,
)


class TestGlobalOrder:
    def test_rank_total_order(self):
        names = [LOCK_ENCLAVES, enclave_lock(0), enclave_lock(5),
                 LOCK_EPCM, LOCK_FRAMES]
        assert [lock_rank(n) for n in names] == sorted(
            lock_rank(n) for n in names)

    def test_enclave_locks_rank_by_eid(self):
        assert lock_rank(enclave_lock(1)) < lock_rank(enclave_lock(2))

    def test_order_locks_dedups_and_sorts(self):
        assert order_locks([LOCK_FRAMES, LOCK_ENCLAVES, LOCK_FRAMES,
                            enclave_lock(3)]) == \
            [LOCK_ENCLAVES, enclave_lock(3), LOCK_FRAMES]

    def test_unknown_lock_rejected(self):
        with pytest.raises(ValueError):
            lock_rank("mystery")


class TestMutualExclusion:
    def test_acquire_and_release(self):
        locks = LockManager()
        locks.acquire(0, LOCK_EPCM)
        assert locks.holds(0, LOCK_EPCM)
        assert locks.owner_of(LOCK_EPCM) == 0
        assert locks.would_block(1, LOCK_EPCM)
        assert not locks.would_block(0, LOCK_EPCM)
        assert locks.release_all(0) == (LOCK_EPCM,)
        assert not locks.any_held()

    def test_release_all_drops_every_lock_of_one_vcpu(self):
        locks = LockManager()
        locks.acquire(0, LOCK_ENCLAVES)
        locks.acquire(0, LOCK_EPCM)
        locks.acquire(1, LOCK_FRAMES)
        assert locks.release_all(0) == (LOCK_ENCLAVES, LOCK_EPCM)
        assert locks.holds(1, LOCK_FRAMES)

    def test_reentrant_acquire_is_a_noop(self):
        locks = LockManager()
        locks.acquire(0, LOCK_EPCM)
        locks.acquire(0, LOCK_EPCM)
        assert locks.held_by(0) == (LOCK_EPCM,)
        assert not locks.violations

    def test_contended_acquire_is_a_scheduler_bug(self):
        locks = LockManager()
        locks.acquire(0, LOCK_EPCM)
        with pytest.raises(RuntimeError):
            locks.acquire(1, LOCK_EPCM)


class TestDisciplineRules:
    def test_rule1_out_of_order_acquire_recorded(self):
        locks = LockManager()
        locks.acquire(0, LOCK_FRAMES)
        locks.acquire(0, LOCK_ENCLAVES)
        assert len(locks.violations) == 1
        assert locks.violations[0].rule == "lock-order"

    def test_rule2_hold_across_return_recorded(self):
        locks = LockManager()
        locks.acquire(0, LOCK_EPCM)
        locks.check_none_held(0, "return from hc_create")
        assert locks.violations[0].rule == "hold-across-return"

    def test_rule3_unlocked_mutation_recorded(self):
        locks = LockManager()
        locks.check_mutation(1, LOCK_EPCM)
        assert locks.violations[0].rule == "unlocked-mutation"
        assert locks.violations[0].vid == 1

    def test_locked_mutation_is_clean(self):
        locks = LockManager()
        locks.acquire(1, LOCK_EPCM)
        locks.check_mutation(1, LOCK_EPCM)
        assert not locks.violations


class TestErrorTaxonomy:
    def test_violations_are_not_hypervisor_errors(self):
        """Harness verdicts must never be absorbed by normal hypercall
        error handling (the FaultInjected precedent)."""
        assert not issubclass(LockProtocolViolation, HypervisorError)
        assert not issubclass(StaleTranslation, HypervisorError)

    def test_stale_translation_message_carries_the_witness(self):
        exc = StaleTranslation(vid=1, principal=2, va_page=0x4000,
                               cached_pa=0x7000, reason="the frame is free")
        assert exc.vid == 1 and exc.cached_pa == 0x7000
        assert "0x4000" in str(exc) and "free" in str(exc)
