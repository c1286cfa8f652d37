"""Crash-in-critical-section recovery: PR 1's crash model composed
with the concurrency plane."""

from repro.concurrency import DeterministicScheduler, Schedule
from repro.concurrency.shootdown import detect_stale_translations
from repro.faults import crash_in_critical_section_campaign
from repro.faults.campaign import ScriptWorkloads, default_concurrent_scripts
from repro.hyperenclave.constants import TINY
from repro.hyperenclave.monitor import RustMonitor
from repro.security import DataOracle, SystemState, check_all_invariants
from repro.security.invariants import check_vcpu_consistency


def script_tasks(state, ctx):
    """The default scripts as two plain callables: the scheduler's
    callable-workload contract, whose hypercalls return in-stack."""
    scripts = ScriptWorkloads(state, default_concurrent_scripts(ctx))

    def task(vid):
        def run():
            while scripts.steps_remaining(vid):
                scripts.run_step(vid)
                scripts.advance(vid)
        return run

    return [task(0), task(1)]


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
        monitor, script_tasks(state, ctx), schedule,
        probe=detect_stale_translations)
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
