"""Campaign drivers: step enumeration, crash sweeps, bit flips, crash-NI."""

import pytest

from repro.faults import (
    DEFAULT_SITES,
    bitflip_campaign,
    crash_ni_campaign,
    crash_step_campaign,
    default_ni_trace,
    default_two_worlds,
    default_workload,
    default_world_factory,
    enumerate_injectable_steps,
    hypercall_site,
)
from repro.hyperenclave.buggy import NonTransactionalMonitor
from repro.hyperenclave.constants import TINY

FACTORY = default_world_factory()
CALLS = default_workload()


class TestEnumerateInjectableSteps:
    def test_every_call_reaches_its_own_crash_points(self):
        table = enumerate_injectable_steps(FACTORY, CALLS)
        assert len(table) == len(CALLS)
        for index, (name, _invoke) in enumerate(CALLS):
            assert table[index][hypercall_site(name)] >= 1

    def test_add_page_reaches_all_shared_sites(self):
        table = enumerate_injectable_steps(FACTORY, CALLS)
        add_page = table[1]
        for site in DEFAULT_SITES:
            assert add_page.get(site, 0) >= 1, site

    def test_enumeration_is_deterministic(self):
        assert enumerate_injectable_steps(FACTORY, CALLS) == \
            enumerate_injectable_steps(FACTORY, CALLS)


class TestCrashStepCampaign:
    def test_full_sweep_is_green_on_real_monitor(self):
        report = crash_step_campaign(FACTORY, CALLS, seed=0)
        assert report.ok, report.render()
        assert report.faults_injected == len(report.runs)
        assert report.rollbacks_verified == report.faults_injected
        assert report.invariant_sweeps_passed == len(report.runs)
        # Every hypercall of the workload is represented.
        swept = {run.hypercall for run in report.runs}
        assert swept == {name for name, _ in CALLS}

    def test_every_enumerated_step_is_swept(self):
        table = enumerate_injectable_steps(FACTORY, CALLS)
        expected = sum(hits for per_call in table
                       for hits in per_call.values())
        report = crash_step_campaign(FACTORY, CALLS, seed=0)
        assert len(report.runs) == expected

    def test_non_transactional_monitor_is_caught(self):
        report = crash_step_campaign(
            default_world_factory(monitor_cls=NonTransactionalMonitor),
            CALLS[:2], seed=0)
        failures = report.failures()
        assert failures, "the broken monitor must not pass the campaign"
        # The signature: aborts whose partial mutations survived, or
        # faults that escaped the (absent) transactional wrapper raw.
        assert any(run.outcome.startswith("escaped")
                   or (run.outcome == "aborted" and not run.rolled_back)
                   for run in failures)

    def test_render_mentions_summary_numbers(self):
        report = crash_step_campaign(FACTORY, CALLS[:1], seed=0)
        text = report.render()
        assert "faults injected" in text
        assert "rollbacks verified" in text
        assert "create" in text


class TestBitflipCampaign:
    def test_untrusted_flips_leave_invariants_green(self):
        report = bitflip_campaign(FACTORY, CALLS[:5], flips=32, seed=0)
        assert report.ok, report.render()
        assert len(report.runs) == 32
        assert report.invariant_sweeps_passed == 32

    def test_flips_are_seed_deterministic(self):
        first = bitflip_campaign(FACTORY, CALLS[:2], flips=8, seed=3)
        second = bitflip_campaign(FACTORY, CALLS[:2], flips=8, seed=3)
        assert [run.detail for run in first.runs] == \
            [run.detail for run in second.runs]
        third = bitflip_campaign(FACTORY, CALLS[:2], flips=8, seed=4)
        assert [run.detail for run in first.runs] != \
            [run.detail for run in third.runs]


class TestCrashNiCampaign:
    @pytest.fixture(scope="class")
    def report(self):
        return crash_ni_campaign(seed=0)

    def test_all_crash_steps_preserve_indistinguishability(self, report):
        assert report.ok, report.render(
            title="Crash-step noninterference campaign")
        assert report.runs, "the NI trace must contain faultable steps"

    def test_covers_every_lifecycle_hypercall_in_trace(self, report):
        factory = default_two_worlds()
        _worlds, eid = factory()
        trace_names = {step.name for item in default_ni_trace(
            eid, TINY.page_size)
            for step in ([item[0]] if isinstance(item, tuple) else [item])
            if hasattr(step, "name")}
        swept = {run.hypercall for run in report.runs}
        assert swept == trace_names

    def test_aug_page_shared_sites_are_swept(self, report):
        aug_sites = {run.site for run in report.runs
                     if run.hypercall == "aug_page"}
        assert "epcm.allocate" in aug_sites
        assert "phys.write" in aug_sites
