"""Provenance bundles: JSON round-trips and actual replays.

The contract: a bundle written by one process — or one month — replays
in another and reports REPRODUCED iff the recorded violation
reappears.  The replay tests here run the real engines (small grids),
not mocks: a bundle that only round-trips JSON is an anecdote.
"""

import pytest

from repro.obs import trace as trace_mod
from repro.obs.provenance import (
    ProvenanceBundle,
    ReplayOutcome,
    bundles_from_exploration,
    crash_step_bundle,
    interleaving_bundle,
    pure_check_bundle,
    replay_bundle,
)

def _crash_step_record():
    """One real crash-step run: the first epcm.allocate unit."""
    from repro.faults.campaign import (
        crash_step_units,
        default_workload,
        default_world_factory,
        run_crash_step_unit,
    )

    factory, calls = default_world_factory(), default_workload()
    unit = crash_step_units(factory, calls, ("epcm.allocate",))[0]
    return unit, run_crash_step_unit(factory, calls, *unit)


def _stale_translation_bundle(config):
    """A bundle for the stale translation ``NoShootdownMonitor`` shows
    on one preempted schedule, explored on ``config``."""
    from repro.concurrency import Schedule, result_violations
    from repro.faults.campaign import make_interleaved_run
    from repro.hyperenclave.buggy import NoShootdownMonitor

    schedule = Schedule(seed=0, preemptions=((42, 1), (48, 0)))
    run_world = make_interleaved_run(NoShootdownMonitor, config)
    _state, result = run_world(41, schedule)
    stale = [v for v in result_violations(schedule, result)
             if v.kind == "stale-translation"]
    assert stale, "the missing shootdown must leave a stale translation"
    return interleaving_bundle(stale[0], monitor_cls=NoShootdownMonitor,
                               check_ni=False, config=config)


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        bundle = ProvenanceBundle(
            kind="pure-check", seed=3,
            check={"name": "entry_index", "max_steps": 40},
            violation={"engine": "property-sampling"},
            budget_spent={"steps": 41})
        assert ProvenanceBundle.from_json(bundle.to_json()) == bundle

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            ProvenanceBundle.from_json('{"kind": "pure-check", "bogus": 1}')

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ProvenanceBundle.from_json('{"seed": 0}')

    def test_save_load_file(self, tmp_path):
        bundle = ProvenanceBundle(kind="crash-step", seed=7,
                                  fault_plan={"site": "epcm.allocate"})
        path = bundle.save(str(tmp_path / "bundle.json"))
        assert ProvenanceBundle.load(path) == bundle

    def test_unknown_kind_refuses_to_replay(self):
        with pytest.raises(ValueError, match="unknown bundle kind"):
            replay_bundle(ProvenanceBundle(kind="teleport"))

    def test_trace_slice_captured_when_tracing(self):
        (index, site, kind, step), record = _crash_step_record()
        with trace_mod.installed(trace_mod.Tracer()):
            trace_mod.event("fault.fired", site=site)
            bundle = crash_step_bundle(index, site, kind, step,
                                       record=record)
        assert bundle.trace_slice
        assert bundle.trace_slice[-1]["name"] == "fault.fired"
        # And the slice survives the JSON round-trip.
        again = ProvenanceBundle.from_json(bundle.to_json())
        assert again.trace_slice == bundle.trace_slice

    def test_outcome_summary_marks_verdict(self):
        outcome = ReplayOutcome(kind="crash-step", matched=True,
                                expected={}, found=[1], detail="x")
        assert outcome.summary().startswith("[REPRODUCED]")
        outcome = ReplayOutcome(kind="crash-step", matched=False,
                                expected={}, found=[])
        assert outcome.summary().startswith("[DIVERGED]")


class TestReplay:
    def test_crash_step_bundle_reproduces(self, tmp_path):
        (index, site, kind, step), record = _crash_step_record()
        bundle = crash_step_bundle(index, site, kind, step, seed=0,
                                   record=record)
        assert bundle.fault_plan["arch"] == "x86_64"
        # Through the file format, exactly as the CLI would.
        loaded = ProvenanceBundle.load(
            bundle.save(str(tmp_path / "bundle.json")))
        outcome = replay_bundle(loaded)
        assert outcome.matched, outcome.summary()
        assert outcome.found[0]["detail"] == record.detail

    def test_crash_step_bundle_diverges_on_wrong_expectation(self):
        (index, site, kind, step), record = _crash_step_record()
        bundle = crash_step_bundle(index, site, kind, step, record=record)
        bundle.violation["detail"] = "a finding that never happened"
        outcome = replay_bundle(bundle)
        assert not outcome.matched

    def test_crash_step_bundle_replays_on_its_monitor(self, tmp_path):
        """A crash-step finding on a planted monitor replays on that
        monitor: the NonTransactionalMonitor lets the injected fault
        escape ``create``, where RustMonitor would roll it back."""
        from repro.faults.campaign import (
            crash_step_campaign,
            crash_step_units,
            default_workload,
            default_world_factory,
        )
        from repro.hyperenclave.buggy import NonTransactionalMonitor

        factory = default_world_factory(monitor_cls=NonTransactionalMonitor)
        calls = default_workload()[:2]
        record = crash_step_campaign(factory, calls, sites=()).runs[0]
        assert record.outcome == "escaped:FaultInjected"
        unit = crash_step_units(factory, calls, sites=())[0]
        bundle = crash_step_bundle(*unit, record=record,
                                   monitor_cls=NonTransactionalMonitor)
        assert bundle.monitor == \
            "repro.hyperenclave.buggy:NonTransactionalMonitor"
        loaded = ProvenanceBundle.load(
            bundle.save(str(tmp_path / "bundle.json")))
        outcome = replay_bundle(loaded)
        assert outcome.matched, outcome.summary()

    def test_crash_step_bundle_without_monitor_replays_rust_monitor(self):
        """Bundles cut before the field existed name no monitor and
        replay on RustMonitor."""
        (index, site, kind, step), record = _crash_step_record()
        bundle = crash_step_bundle(index, site, kind, step, record=record)
        assert bundle.monitor is None
        assert replay_bundle(bundle).matched

    def test_crash_step_bundle_replays_on_its_own_arch(self, tmp_path):
        """A fault only VMSAv8-64 reaches: the first ``add_page``
        writes 262 words there (256-word pages) and 38 on
        x86-64 (32-word pages), so arming the 39th aborts it on
        VMSAv8-64 only.  The bundle records its arch and replays the
        abort; without the field it replays on x86-64, where the plan
        never fires and the call completes."""
        from repro.faults.campaign import (
            crash_step_units,
            default_workload,
            default_world_factory,
            run_crash_step_unit,
        )
        from repro.hyperenclave.constants import ARCH_CONFIGS

        config = ARCH_CONFIGS["vmsav8_64"]
        factory, calls = default_world_factory(config), default_workload()
        unit = (1, "phys.write", "raise", 38)
        assert unit in crash_step_units(factory, calls)
        assert unit not in crash_step_units(default_world_factory(), calls)
        record = run_crash_step_unit(factory, calls, *unit)
        assert record.outcome == "aborted"
        bundle = crash_step_bundle(*unit, record=record, config=config)
        assert bundle.fault_plan["arch"] == "vmsav8_64"
        loaded = ProvenanceBundle.load(
            bundle.save(str(tmp_path / "bundle.json")))
        outcome = replay_bundle(loaded)
        assert outcome.matched, outcome.summary()
        assert outcome.found[0]["outcome"] == "aborted"

        del loaded.fault_plan["arch"]
        outcome = replay_bundle(loaded)
        assert not outcome.matched
        assert outcome.found[0]["outcome"] == "completed"

    def test_pure_check_bundle_reproduces_degraded_verdict(self, model):
        from repro import fastpath
        from repro.verification.harness import (
            ENGINE_EXHAUSTIVE,
            check_pure_hardened,
        )

        with fastpath.forced():
            report = check_pure_hardened(model, "level_span",
                                         max_steps=16, sample_count=16)
        assert report.engine == ENGINE_EXHAUSTIVE
        bundle = pure_check_bundle(report, max_steps=16, sample_count=16)
        assert bundle.check["fastpath"] is True
        outcome = replay_bundle(bundle)
        assert outcome.matched, outcome.summary()
        assert outcome.found[0]["engine"] == ENGINE_EXHAUSTIVE

    def test_interleaving_bundle_reproduces_planted_bug(self):
        from repro.faults.campaign import interleaving_campaign
        from repro.hyperenclave import buggy

        result = interleaving_campaign(buggy.MissingLockMonitor,
                                       check_ni=False, max_schedules=60)
        assert result.violations, "the planted lock bug must fire"
        bundles = bundles_from_exploration(
            result, monitor_cls=buggy.MissingLockMonitor, check_ni=False)
        assert len(bundles) == len(result.violations)
        outcome = replay_bundle(bundles[0])
        assert outcome.matched, outcome.summary()

    def test_interleaving_bundle_diverges_on_fabricated_violation(self):
        from repro.concurrency import Schedule
        from repro.concurrency.explorer import Violation

        fake = Violation(Schedule(seed=0), "lock-protocol",
                         "a violation nobody observed")
        outcome = replay_bundle(bundles_from_exploration(
            type("R", (), {"violations": [fake]})(), check_ni=False)[0])
        assert not outcome.matched

    def test_interleaving_bundle_replays_on_its_own_arch(self):
        """A VMSAv8-64 violation replays on VMSAv8-64.  The bundle
        records its arch; replayed on x86-64, this schedule finds a
        different stale translation and the replay diverges."""
        from repro.hyperenclave.constants import ARCH_CONFIGS

        config = ARCH_CONFIGS["vmsav8_64"]
        bundle = _stale_translation_bundle(config)
        assert bundle.check["arch"] == "vmsav8_64"
        outcome = replay_bundle(ProvenanceBundle.from_json(bundle.to_json()))
        assert outcome.matched, outcome.summary()

    def test_bundle_without_arch_replays_on_x86(self):
        """Bundles written before arches were recorded replay on
        x86-64, as they always did."""
        bundle = _stale_translation_bundle(None)
        assert bundle.check.pop("arch") == "x86_64"
        outcome = replay_bundle(ProvenanceBundle.from_json(bundle.to_json()))
        assert outcome.matched, outcome.summary()

    def test_crash_point_bundle_replays_on_its_own_arch(self):
        from repro.concurrency import Schedule
        from repro.faults.campaign import (
            crash_point_record,
            make_interleaved_run,
        )
        from repro.hyperenclave.constants import ARCH_CONFIGS
        from repro.obs.provenance import crash_point_bundle

        config = ARCH_CONFIGS["vmsav8_64"]
        run_world = make_interleaved_run(None, config)
        _state, baseline = run_world(41, Schedule(seed=0))
        point = baseline.critical_yields()[-1]
        record = crash_point_record(run_world, point)
        bundle = crash_point_bundle(point, record, config=config)
        assert bundle.fault_plan["arch"] == "vmsav8_64"
        outcome = replay_bundle(ProvenanceBundle.from_json(bundle.to_json()))
        assert outcome.matched, outcome.summary()

    def test_pure_check_degradation_divergence_is_detected(self, model):
        """Every recorded verdict field counts — a bundle whose
        ``degradations`` differ from the replay must DIVERGE (an
        earlier whitelist silently skipped the comparison)."""
        from repro import fastpath
        from repro.verification.harness import check_pure_hardened

        with fastpath.forced():
            report = check_pure_hardened(model, "level_span",
                                         max_steps=16, sample_count=16)
        bundle = pure_check_bundle(report, max_steps=16,
                                   sample_count=16)
        assert replay_bundle(bundle).matched
        bundle.violation["degradations"] = ["an-engine-that-never-ran"]
        outcome = replay_bundle(bundle)
        assert not outcome.matched, outcome.summary()


class TestReplayCli:
    """``python -m repro replay``: divergence must exit non-zero with
    a typed message, reproduction exits zero."""

    def _crash_bundle(self):
        (index, site, kind, step), record = _crash_step_record()
        return crash_step_bundle(index, site, kind, step, seed=0,
                                 record=record)

    def test_reproduced_exits_zero(self, tmp_path, capsys):
        from repro.__main__ import main

        path = self._crash_bundle().save(str(tmp_path / "ok.json"))
        assert main(["replay", path]) == 0
        assert "[REPRODUCED]" in capsys.readouterr().out

    def test_divergence_exits_nonzero_with_typed_message(
            self, tmp_path, capsys):
        from repro.__main__ import main

        bundle = self._crash_bundle()
        bundle.violation["detail"] = "a finding that never happened"
        path = bundle.save(str(tmp_path / "edited.json"))
        assert main(["replay", path]) == 1
        captured = capsys.readouterr()
        assert "[DIVERGED]" in captured.out
        assert "replay diverged" in captured.err
        assert "was not reproduced" in captured.err

    def test_unloadable_bundle_is_a_usage_error(self, tmp_path,
                                                capsys):
        from repro.__main__ import main

        path = tmp_path / "torn.json"
        path.write_text('{"kind": "crash-step"')
        assert main(["replay", str(path)]) == 2
        assert "cannot load bundle" in capsys.readouterr().err
