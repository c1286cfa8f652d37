"""The multi-campaign scheduler: fairness, identity, budgets, drain.

The two load-bearing properties:

* **verdict identity** — a campaign run in fair-share chunks alongside
  other campaigns produces a result digest identical to the same spec
  run alone through ``run_durable_campaign`` (chunked absorb is
  order-preserving on the FIFO frontier);
* **starvation freedom** — in every planned round, each active
  campaign with pending work is allotted at least one unit, whatever
  the mix of frontier depths (property-tested below).
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AdmissionRefused, CampaignNotFound
from repro.obs.metrics import REGISTRY
from repro.service import CampaignSpec, CampaignStore, run_durable_campaign
from repro.service.scheduler import (
    CANCELLED,
    DONE,
    FAILED,
    INTERRUPTED,
    CampaignScheduler,
    _result_digest,
)

SMALL = dict(preemption_bound=1, max_schedules=18)


def scheduler_for(tmp_path, **options) -> CampaignScheduler:
    options.setdefault("workers", 1)
    options.setdefault("round_capacity", 6)
    return CampaignScheduler(str(tmp_path / "svc"), **options)


class FakeState:
    """A frontier with ``pending`` schedules and nothing else."""

    def __init__(self, pending):
        self._pending = pending
        self.done = pending == 0

    def pending(self):
        return self._pending

    def take_wave(self, limit=None):
        take = min(self._pending, limit)
        self._pending -= take
        return [object() for _ in range(take)]


class FakeCampaign:
    """Just what round planning reads of a managed campaign."""

    def __init__(self, index, pending):
        self.campaign_id = f"f{index}"
        self.admission_index = index
        self.units_executed = (index * 7) % 5
        self.state = FakeState(pending)

    def pending_units(self):
        return self.state.pending()


def planner(capacity):
    """A scheduler with no pool or store: enough to plan rounds."""
    sched = CampaignScheduler.__new__(CampaignScheduler)
    sched.round_capacity = capacity
    sched._finalize = lambda campaign: None
    return sched


class TestVerdictIdentity:
    def test_interleaved_campaigns_match_solo_runs(self, tmp_path):
        specs = [CampaignSpec(seed=0, **SMALL),
                 CampaignSpec(seed=1, **SMALL),
                 CampaignSpec(seed=2, preemption_bound=1,
                              max_schedules=9)]
        reference = [
            _result_digest(run_durable_campaign(
                spec, str(tmp_path / f"ref{i}"), workers=1))
            for i, spec in enumerate(specs)]
        sched = scheduler_for(tmp_path)
        ids = [sched.submit(spec, campaign_id=f"c{i}")
               for i, spec in enumerate(specs)]
        sched.run_until_idle()
        for cid, expected in zip(ids, reference):
            status = sched.status(cid)
            assert status["status"] == DONE
            assert status["result_digest"] == expected, cid
        sched.drain()

    def test_store_dir_is_resumable_by_the_cli_layout(self, tmp_path):
        sched = scheduler_for(tmp_path)
        cid = sched.submit(CampaignSpec(**SMALL), campaign_id="byhand")
        sched.run_until_idle()
        sched.drain()
        # The campaign store is a plain CampaignStore: its checkpoint
        # loads with the standard loader and is marked done.
        store = CampaignStore(os.path.join(str(tmp_path / "svc"), cid))
        checkpoint = store.load_checkpoint()
        assert checkpoint is not None and checkpoint.done
        assert os.path.exists(os.path.join(store.root, "result.json"))


class TestFairShare:
    @settings(max_examples=30, deadline=None)
    @given(pendings=st.lists(st.integers(min_value=0, max_value=40),
                             min_size=1, max_size=6),
           capacity=st.integers(min_value=1, max_value=32))
    def test_no_active_campaign_starves(self, pendings, capacity):
        """Every campaign with pending work gets >= 1 unit per round,
        and the plan never exceeds pending work nor (when anyone is
        left wanting) wastes round capacity."""
        campaigns = [FakeCampaign(i, p) for i, p in enumerate(pendings)]
        plan = planner(capacity)._plan_round(list(campaigns))
        planned = {c.campaign_id: len(wave) for c, wave in plan}
        total = sum(planned.values())
        share = max(1, capacity // len(campaigns))
        for campaign, pending in zip(campaigns, pendings):
            took = planned.get(campaign.campaign_id, 0)
            if pending > 0:
                assert took >= 1, "a campaign with work was starved"
            assert took <= pending
        # Work stealing: capacity only goes unused when demand is met.
        if total < min(sum(pendings), len(campaigns) * share):
            leftover = [c for c, p in zip(campaigns, pendings)
                        if c.pending_units() > 0]
            assert not leftover or total >= capacity

    def test_deep_campaign_steals_the_spare_share(self):
        """Capacity 8 over two campaigns is a share of 4 each; the one
        with a single pending schedule leaves 3 unclaimed, and the deep
        one takes its share plus those 3."""
        campaigns = [FakeCampaign(0, 1), FakeCampaign(1, 20)]
        before = REGISTRY.snapshot()
        plan = planner(8)._plan_round(campaigns)
        stolen = REGISTRY.delta(before)["counters"]["service.units_stolen"]
        assert [(c.campaign_id, len(wave)) for c, wave in plan] == \
            [("f0", 1), ("f1", 4 + 3)]
        assert stolen == 3

    def test_lonely_campaign_absorbs_whole_round(self, tmp_path):
        sched = scheduler_for(tmp_path, round_capacity=12)
        cid = sched.submit(CampaignSpec(**SMALL))
        with sched._lock:
            sched._promote()
            plan = sched._plan_round(sched._running())
        # One active campaign: its chunk is the whole round capacity
        # (bounded by its frontier), not 1/max_active of it.
        assert len(plan) == 1
        assert len(plan[0][1]) == min(
            12, plan[0][0].pending_units() + len(plan[0][1]))
        sched.drain()


class TestAdmission:
    def test_queue_bound_refuses_with_retry_hint(self, tmp_path):
        sched = scheduler_for(tmp_path, max_active=1, max_queued=1)
        sched.submit(CampaignSpec(seed=0, **SMALL))
        sched.submit(CampaignSpec(seed=1, **SMALL))
        with pytest.raises(AdmissionRefused) as exc:
            sched.submit(CampaignSpec(seed=2, **SMALL))
        assert exc.value.retry_after is not None
        sched.drain()

    def test_draining_refuses_without_retry_hint(self, tmp_path):
        sched = scheduler_for(tmp_path)
        sched.drain()
        with pytest.raises(AdmissionRefused) as exc:
            sched.submit(CampaignSpec(**SMALL))
        assert exc.value.retry_after is None

    def test_resubmit_is_idempotent(self, tmp_path):
        sched = scheduler_for(tmp_path)
        first = sched.submit(CampaignSpec(**SMALL), campaign_id="same")
        again = sched.submit(CampaignSpec(**SMALL), campaign_id="same")
        assert first == again == "same"
        assert len(sched.list_campaigns()) == 1
        sched.drain()

    def test_hostile_campaign_id_rejected(self, tmp_path):
        sched = scheduler_for(tmp_path)
        with pytest.raises(ValueError):
            sched.submit(CampaignSpec(**SMALL),
                         campaign_id="../escape")
        sched.drain()

    def test_dot_only_ids_rejected_without_touching_parent(
            self, tmp_path):
        """'.' and '..' pass the charset filter but resolve to the
        store root (or its parent) — they must be refused before any
        store file is created or removed outside the root."""
        sched = scheduler_for(tmp_path)
        for hostile in (".", "..", "..."):
            with pytest.raises(ValueError):
                sched.submit(CampaignSpec(**SMALL),
                             campaign_id=hostile)
        # Nothing escaped into the root itself or its parent.
        assert not (tmp_path / "campaign.json").exists()
        assert not (tmp_path / "svc" / "campaign.json").exists()
        sched.drain()

    def test_non_numeric_budgets_rejected(self, tmp_path):
        """Budgets arrive as arbitrary JSON; a non-numeric value stored
        raw would make every budget check raise and wedge the loop."""
        sched = scheduler_for(tmp_path)
        spec = CampaignSpec(**SMALL)
        with pytest.raises(ValueError, match="wall_budget"):
            sched.submit(spec, wall_budget="abc")
        with pytest.raises(ValueError, match="wall_budget"):
            sched.submit(spec, wall_budget=-1.0)
        with pytest.raises(ValueError, match="wave_budget"):
            sched.submit(spec, wave_budget=2.5)
        with pytest.raises(ValueError, match="wave_budget"):
            sched.submit(spec, wave_budget=True)
        assert sched.list_campaigns() == []
        sched.drain()

    def test_unknown_campaign_is_typed(self, tmp_path):
        sched = scheduler_for(tmp_path)
        with pytest.raises(CampaignNotFound):
            sched.status("ghost")
        with pytest.raises(CampaignNotFound):
            sched.cancel("ghost")
        with pytest.raises(CampaignNotFound):
            sched.artifacts("ghost")
        sched.drain()


class TestBudgets:
    def test_wave_budget_fails_typed_but_resumable(self, tmp_path):
        sched = scheduler_for(tmp_path, round_capacity=2)
        cid = sched.submit(CampaignSpec(preemption_bound=2,
                                        max_schedules=60),
                           wave_budget=2)
        sched.run_until_idle()
        status = sched.status(cid)
        assert status["status"] == FAILED
        assert "wave budget" in status["error"]
        assert status["resumable"]
        sched.drain()
        # The checkpoint survives: re-submitting the same id with no
        # wave budget (the "resume with a larger budget" verb) runs
        # the campaign to the clean solo verdict.
        reference = _result_digest(run_durable_campaign(
            CampaignSpec(preemption_bound=2, max_schedules=60),
            str(tmp_path / "ref"), workers=1))
        again = CampaignScheduler(str(tmp_path / "svc"), workers=1,
                                  round_capacity=8)
        again.recover()
        assert again.status(cid)["status"] == FAILED
        assert again.submit(CampaignSpec(preemption_bound=2,
                                         max_schedules=60),
                            campaign_id=cid) == cid
        again.run_until_idle()
        final = again.status(cid)
        assert final["status"] == DONE
        assert final["result_digest"] == reference
        again.drain()

    def test_wall_budget_fails_typed(self, tmp_path):
        sched = scheduler_for(tmp_path)
        # Smallest admissible budget (zero is rejected as untyped):
        # activation alone takes longer, so the first round expires it.
        cid = sched.submit(CampaignSpec(**SMALL), wall_budget=1e-9)
        sched.run_until_idle()
        status = sched.status(cid)
        assert status["status"] == FAILED
        assert "wall-clock budget" in status["error"]
        sched.drain()


class TestCancelAndDrain:
    def test_cancel_queued_campaign(self, tmp_path):
        sched = scheduler_for(tmp_path, max_active=1)
        sched.submit(CampaignSpec(seed=0, **SMALL), campaign_id="run")
        sched.submit(CampaignSpec(seed=1, **SMALL), campaign_id="wait")
        assert sched.cancel("wait")["status"] == CANCELLED
        sched.run_until_idle()
        assert sched.status("run")["status"] == DONE
        assert sched.status("wait")["status"] == CANCELLED
        sched.drain()

    def test_drain_interrupts_and_reports_resumable(self, tmp_path):
        sched = scheduler_for(tmp_path, round_capacity=4)
        cid = sched.submit(CampaignSpec(preemption_bound=2,
                                        max_schedules=80))
        # A couple of rounds, then drain mid-campaign.
        sched._step(block=False)
        sched._step(block=False)
        report = sched.drain()
        assert report[cid]["status"] == INTERRUPTED
        assert report[cid]["resumable"]
        assert report[cid]["waves"] >= 1

    def test_drained_work_resumes_to_identical_verdict(self, tmp_path):
        spec = CampaignSpec(preemption_bound=2, max_schedules=40)
        reference = _result_digest(run_durable_campaign(
            spec, str(tmp_path / "ref"), workers=1))
        sched = scheduler_for(tmp_path, round_capacity=4)
        cid = sched.submit(spec)
        sched._step(block=False)
        sched._step(block=False)
        sched.drain()
        again = CampaignScheduler(str(tmp_path / "svc"), workers=1,
                                  round_capacity=4)
        assert again.recover() == [cid]
        again.run_until_idle()
        final = again.status(cid)
        assert final["status"] == DONE
        assert final["resumed"]
        assert final["result_digest"] == reference
        again.drain()

    def test_recover_bypasses_admission_bound(self, tmp_path):
        """Recovered campaigns are pre-existing obligations: a restart
        must re-admit every incomplete store even when there are more
        of them than the restarted scheduler's admission bound."""
        sched = scheduler_for(tmp_path, max_active=2, max_queued=2)
        ids = [sched.submit(CampaignSpec(seed=i, **SMALL),
                            campaign_id=f"r{i}") for i in range(4)]
        sched.drain()               # nothing ran: four incomplete stores
        again = CampaignScheduler(str(tmp_path / "svc"), workers=1,
                                  max_active=1, max_queued=1,
                                  round_capacity=6)
        assert again.recover() == ids   # 4 > bound of 2, no refusal
        again.run_until_idle()
        for cid in ids:
            assert again.status(cid)["status"] == DONE
        again.drain()

    def test_recover_skips_corrupt_budget_metadata(self, tmp_path):
        """A bad budget persisted by an older daemon downgrades to a
        recover-skip; it must not crash startup or wedge the loop."""
        import json
        sched = scheduler_for(tmp_path)
        good = sched.submit(CampaignSpec(seed=0, **SMALL))
        sched.drain()
        poisoned = tmp_path / "svc" / "poisoned"
        poisoned.mkdir()
        (poisoned / "campaign.json").write_text(json.dumps({
            "id": "poisoned",
            "spec": CampaignSpec(seed=1, **SMALL).payload(),
            "wall_budget": "abc",
            "wave_budget": None}))
        again = CampaignScheduler(str(tmp_path / "svc"), workers=1,
                                  round_capacity=6)
        assert again.recover() == [good]
        with pytest.raises(CampaignNotFound):
            again.status("poisoned")
        again.run_until_idle()
        assert again.status(good)["status"] == DONE
        again.drain()

    def test_recover_registers_finished_campaigns_read_only(
            self, tmp_path):
        sched = scheduler_for(tmp_path)
        cid = sched.submit(CampaignSpec(**SMALL))
        sched.run_until_idle()
        digest = sched.status(cid)["result_digest"]
        sched.drain()
        again = CampaignScheduler(str(tmp_path / "svc"), workers=1)
        assert again.recover() == []      # nothing needed re-running
        status = again.status(cid)
        assert status["status"] == DONE
        assert status["result_digest"] == digest
        again.drain()


class TestLiveness:
    def test_health_reports_ok_then_draining(self, tmp_path):
        sched = scheduler_for(tmp_path)
        assert sched.health()["status"] == "ok"
        sched.drain()
        assert sched.health()["status"] == "draining"

    def test_background_thread_runs_campaign_to_done(self, tmp_path):
        import time
        sched = scheduler_for(tmp_path)
        cid = sched.submit(CampaignSpec(**SMALL))
        sched.start()
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if sched.status(cid)["status"] == DONE:
                break
            time.sleep(0.05)
        assert sched.status(cid)["status"] == DONE
        sched.drain()


class TestViolationArtifacts:
    def test_planted_bug_cuts_replayable_bundles(self, tmp_path):
        from repro.obs.provenance import ProvenanceBundle, replay_bundle

        spec = CampaignSpec(
            monitor="repro.hyperenclave.buggy:MissingLockMonitor",
            check_ni=False, preemption_bound=1, max_schedules=30)
        sched = scheduler_for(tmp_path)
        cid = sched.submit(spec)
        sched.run_until_idle()
        status = sched.status(cid)
        assert status["status"] == DONE and not status["ok"]
        artifacts = sched.artifacts(cid)
        assert len(artifacts) == status["violations"]
        path = os.path.join(str(tmp_path / "svc"), cid, "artifacts",
                            artifacts[0]["name"])
        outcome = replay_bundle(ProvenanceBundle.load(path))
        assert outcome.matched, outcome.summary()
        sched.drain()
