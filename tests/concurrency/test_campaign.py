"""The interleaving campaign: the tentpole acceptance criteria.

``RustMonitor`` must survive the full bounded-preemption sweep —
invariant families, per-vCPU consistency, two-world noninterference —
while each planted concurrency bug is caught, with every violation
carrying a standalone-replayable ``(seed, schedule)``.
"""

import pytest

from repro.concurrency import SCHED_STATS, Schedule, scheduler as conc
from repro.concurrency.arena import Fiber
from repro.faults import interleaving_campaign, make_interleaved_run
from repro.hyperenclave import buggy
from repro.hyperenclave.constants import ARCH_CONFIGS
from repro.hyperenclave.monitor import RustMonitor


@pytest.fixture(scope="module")
def missing_lock_result():
    return interleaving_campaign(buggy.MissingLockMonitor, check_ni=False)


@pytest.fixture(scope="module")
def no_shootdown_result():
    return interleaving_campaign(buggy.NoShootdownMonitor, check_ni=False)


class TestRustMonitorSweep:
    def test_full_sweep_is_green(self):
        """Invariants + vCPU consistency + NI over every schedule."""
        result = interleaving_campaign(check_ni=True)
        assert result.ok, result.summary()
        assert result.preemption_bound >= 2
        assert result.schedules_run > 100
        assert not result.truncated

    def test_exploration_is_deterministic(self):
        first = interleaving_campaign(check_ni=False)
        second = interleaving_campaign(check_ni=False)
        assert [s for s, _r in first.runs] == [s for s, _r in second.runs]
        assert [r.trace for _s, r in first.runs] == \
            [r.trace for _s, r in second.runs]


class TestBuggyVariantsCaught:
    def test_missing_lock_monitor_is_caught(self, missing_lock_result):
        assert not missing_lock_result.ok
        kinds = missing_lock_result.by_kind()
        assert "lock-protocol" in kinds
        assert any("unlocked-mutation" in v.detail
                   for v in kinds["lock-protocol"])

    def test_no_shootdown_monitor_is_caught(self, no_shootdown_result):
        assert not no_shootdown_result.ok
        assert "stale-translation" in no_shootdown_result.by_kind()

    def test_shootdown_bug_needs_a_preemption(self, no_shootdown_result):
        """The race is real concurrency: absent from the root schedule."""
        for violation in no_shootdown_result.by_kind()["stale-translation"]:
            assert violation.schedule.preemptions

    def test_every_violation_carries_its_schedule(self, missing_lock_result,
                                                  no_shootdown_result):
        for result in (missing_lock_result, no_shootdown_result):
            for violation in result.violations:
                assert isinstance(violation.schedule, Schedule)
                assert "seed=" in violation.schedule.describe()
                assert "replay:" in str(violation)

    def test_stale_violation_replays_standalone(self, no_shootdown_result):
        violation = no_shootdown_result.by_kind()["stale-translation"][0]
        run_world = make_interleaved_run(buggy.NoShootdownMonitor)
        _state, rerun = run_world(41, violation.schedule)
        assert rerun.stale_translations


class TestNonTransactionalDeadlock:
    def test_missing_release_deadlocks_the_scheduler(self):
        """Without the transactional wrapper no hypercall ever releases
        its locks — under the scheduler that is a detected deadlock,
        not a hang."""
        run_world = make_interleaved_run(buggy.NonTransactionalMonitor)
        with pytest.raises(RuntimeError, match="deadlock"):
            run_world(41, Schedule())


#: Fiber parks of one bound-2, seed-0 campaign, per arch.
FIBER_PARKS = {RustMonitor: 4, buggy.MissingLockMonitor: 14,
               buggy.NoShootdownMonitor: 0}

#: ``sched.*`` counts of the same campaigns, also per arch: decisions
#: made inline by the yielding task, and scheduler runs (two per
#: schedule with the noninterference world).  A change that moves
#: decisions between the inline and the loop path keeps every record
#: and digest, so only this pin sees it.
SCHED_PINS = {RustMonitor: {"inline_decisions": 3304, "runs": 356},
              buggy.MissingLockMonitor: {"inline_decisions": 1356,
                                         "runs": 130},
              buggy.NoShootdownMonitor: {"inline_decisions": 3170,
                                         "runs": 350}}


class TestFiberParks:
    @pytest.mark.parametrize("monitor_cls", list(FIBER_PARKS),
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
    def test_fibers_park_only_where_a_body_is_interrupted(
            self, arch, monitor_cls, monkeypatch):
        """The scheduler's driver owns every park outside a hypercall
        body, so a fiber parks only at a body's ``shootdown.ipi`` —
        never at a step, a lock acquire or a hypercall return."""
        parks = []
        park = Fiber.park

        def recording(fiber, timeout):
            parks.append(conc.current_task().pending_kind)
            return park(fiber, timeout)

        monkeypatch.setattr(Fiber, "park", recording)
        before = dict(SCHED_STATS)
        interleaving_campaign(monitor_cls, preemption_bound=2, seed=0,
                              config=ARCH_CONFIGS[arch])
        assert set(parks) <= {"shootdown.ipi"}
        assert len(parks) == FIBER_PARKS[monitor_cls]
        assert {key: SCHED_STATS[key] - before[key]
                for key in SCHED_PINS[monitor_cls]} == SCHED_PINS[monitor_cls]
