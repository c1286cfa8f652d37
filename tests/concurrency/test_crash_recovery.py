"""Crash-in-critical-section recovery: PR 1's crash model composed
with the concurrency plane."""

import pytest

from repro.concurrency import DeterministicScheduler, Schedule
from repro.concurrency.shootdown import detect_stale_translations
from repro.faults import (
    crash_in_critical_section_campaign,
    make_interleaved_run,
)
from repro.faults.campaign import ScriptWorkloads, default_concurrent_scripts
from repro.hyperenclave.constants import ARCH_CONFIGS, TINY
from repro.hyperenclave.monitor import RustMonitor
from repro.security import DataOracle, SystemState, check_all_invariants
from repro.security.invariants import check_vcpu_consistency


def build_scheduled_world(schedule):
    monitor = RustMonitor(TINY, num_vcpus=2)
    primary_os = monitor.primary_os
    primary_os.spawn_app(1)
    page = TINY.page_size
    ctx = {
        "page": page,
        "mbuf_pa": TINY.frame_base(primary_os.reserve_data_frame()),
        "src_pa": TINY.frame_base(primary_os.reserve_data_frame()),
        "elrange_base": 16 * page,
    }
    primary_os.gpa_write_word(ctx["src_pa"], 0x5EC2E7)
    state = SystemState(monitor, DataOracle.seeded(13))
    scheduler = DeterministicScheduler(
        monitor, ScriptWorkloads(state, default_concurrent_scripts(ctx)),
        schedule, probe=detect_stale_translations)
    return monitor, scheduler


class TestFullCampaign:
    def test_rust_monitor_absorbs_every_crash(self):
        report = crash_in_critical_section_campaign()
        assert report.critical_yields > 20
        assert len(report.records) == report.critical_yields
        assert report.ok, [str(r.violations[0])
                           for r in report.failures()[:3]]

    def test_crashes_land_on_both_vcpus_and_many_kinds(self):
        report = crash_in_critical_section_campaign()
        assert {record.vid for record in report.records} == {0, 1}
        kinds = {record.kind for record in report.records}
        assert "phys.write" in kinds
        assert kinds & {"lock.acquire", "shootdown.ipi"}

    def test_render_mentions_every_crash_kind(self):
        report = crash_in_critical_section_campaign()
        text = report.render()
        for kind in {record.kind for record in report.records}:
            assert kind in text
        assert "0 failures" in text


class TestSingleCrash:
    def test_crash_releases_locks_and_rolls_back(self):
        # Find a yield taken with locks held, then re-run crashing there.
        _monitor, scheduler = build_scheduled_world(Schedule())
        point = scheduler.run().critical_yields()[0]
        schedule = Schedule(crash=(point.vid, point.yield_index))
        monitor, scheduler = build_scheduled_world(schedule)
        result = scheduler.run()
        assert point.vid in result.parked
        assert not scheduler.locks.any_held()
        assert not result.lock_violations
        assert check_all_invariants(monitor).ok
        assert check_vcpu_consistency(monitor) == []

    def test_surviving_vcpu_runs_to_completion(self):
        _monitor, scheduler = build_scheduled_world(Schedule())
        baseline = scheduler.run()
        point = next(y for y in baseline.critical_yields() if y.vid == 0)
        monitor, scheduler = build_scheduled_world(
            Schedule(crash=(0, point.yield_index)))
        result = scheduler.run()
        # vCPU 1's whole session still executed (its task hit no error
        # and was never parked), against a monitor vCPU 0 abandoned
        # mid-hypercall.
        assert 1 not in result.parked
        assert 1 not in result.task_errors
        assert check_all_invariants(monitor).ok


#: vCPU 1 waits at ``hc_exit``'s first lock while ``hc_trim_page`` on
#: vCPU 0 shoots down its TLB, then crashes at ``hc_exit``'s second.
CRASH_WHILE_TAKING_LOCKS = Schedule(
    seed=0, preemptions=((43, 1), (51, 0)), crash=(1, 9))


class TestCrashWhileTakingLocks:
    @pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
    def test_no_flushed_translation_comes_back(self, arch):
        """A vCPU that crashes while it takes its lock plan has started
        no transaction, so nothing rolls its CPU state back to before
        the shootdown that flushed its TLB: no translation to the
        trimmed, released frame reappears."""
        state, result = make_interleaved_run(config=ARCH_CONFIGS[arch])(
            41, CRASH_WHILE_TAKING_LOCKS)
        assert not result.stale_translations
        assert result.parked == (1,)
        crash, returned = [y for y in result.yields if y.vid == 1][-2:]
        assert (crash.kind, crash.detail) == ("lock.acquire", "enclave:1")
        assert (returned.kind, returned.detail) == ("hc.return", "hc_exit")
        for vid in (0, 1):
            last = [y for y in result.yields if y.vid == vid][-1]
            assert last.locks_held == ()
        assert not result.lock_violations
        assert state.monitor.cpus[1].tlb_entries() == ()
