"""The durable orchestrator: crash, resume, warm reuse, the CLI.

The central property — a campaign killed with ``SIGKILL`` at *any*
checkpoint and resumed produces a result repr-identical to an
uninterrupted run — is exercised for real: the campaign runs in a
subprocess, the chaos hook (``REPRO_CHAOS_KILL_AFTER``) delivers an
actual ``kill -9`` right after the n-th checkpoint commit, and the
test resumes from whatever the dead process left on disk.
"""

import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.__main__ import main
from repro.engine.executor import ShardedExecutor, stable_shard
from repro.errors import CheckpointMismatch, ShardQuarantined
from repro.faults import interleaving_campaign
from repro.service import (
    CampaignSpec,
    CampaignStore,
    ResilientExecutor,
    resume_campaign,
    run_durable_campaign,
)
from repro.service.orchestrator import warm_pure_check_grid

SCHEDULES = 24          # enough for 3 waves of the TINY geometry
_CLEAN = {}             # max_schedules -> repr of the uninterrupted run


def spec_for(max_schedules=SCHEDULES):
    return CampaignSpec(max_schedules=max_schedules, preemption_bound=2)


def clean_repr(tmp_path_factory, max_schedules=SCHEDULES):
    if max_schedules not in _CLEAN:
        store = str(tmp_path_factory.mktemp("clean"))
        result = run_durable_campaign(spec_for(max_schedules), store,
                                      workers=2)
        _CLEAN[max_schedules] = repr(result)
    return _CLEAN[max_schedules]


class TestDurableEqualsPlain:
    def test_matches_sequential_campaign(self, tmp_path):
        result = run_durable_campaign(spec_for(), str(tmp_path),
                                      workers=2)
        plain = interleaving_campaign(max_schedules=SCHEDULES,
                                      preemption_bound=2)
        assert repr(result) == repr(plain)

    def test_finished_store_is_idempotent(self, tmp_path):
        first = run_durable_campaign(spec_for(), str(tmp_path),
                                     workers=2)
        store = CampaignStore(str(tmp_path))
        checkpoint = store.load_checkpoint()
        assert checkpoint.done
        again = run_durable_campaign(spec_for(), store)
        assert repr(again) == repr(first)

    def test_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            run_durable_campaign(CampaignSpec(kind="martian"),
                                 str(tmp_path))

    def test_different_spec_same_store_is_a_mismatch(self, tmp_path):
        run_durable_campaign(spec_for(), str(tmp_path), workers=1)
        with pytest.raises(CheckpointMismatch):
            run_durable_campaign(CampaignSpec(max_schedules=7,
                                              preemption_bound=1),
                                 str(tmp_path))


class TestCrashAndResume:
    def run_killed_campaign(self, store, kill_after, max_schedules):
        """A campaign in a subprocess, SIGKILLed after a checkpoint."""
        script = (
            "from repro.service import CampaignSpec, "
            "run_durable_campaign\n"
            f"spec = CampaignSpec(max_schedules={max_schedules}, "
            "preemption_bound=2)\n"
            f"run_durable_campaign(spec, {store!r}, workers=2)\n"
            "print('survived')\n")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(sys.path),
                   REPRO_CHAOS_KILL_AFTER=str(kill_after))
        return subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True,
                              timeout=120)

    @settings(max_examples=4, deadline=None)
    @given(kill_after=st.integers(min_value=1, max_value=3))
    def test_sigkill_then_resume_is_identical(self, kill_after,
                                              tmp_path_factory):
        store = str(tmp_path_factory.mktemp("killed"))
        proc = self.run_killed_campaign(store, kill_after, SCHEDULES)
        if proc.returncode == 0:
            # The campaign finished in fewer checkpoints than the kill
            # threshold; nothing was interrupted, so just compare.
            assert "survived" in proc.stdout
        else:
            assert proc.returncode == -9, proc.stderr
            checkpoint = CampaignStore(store).load_checkpoint()
            assert not checkpoint.done
        resumed = resume_campaign(store, workers=2)
        assert repr(resumed) == clean_repr(tmp_path_factory)

    def test_resume_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resume_campaign(str(tmp_path / "void"))

    def test_interrupt_flushes_resumable_checkpoint(self, tmp_path,
                                                    tmp_path_factory):
        class Interrupting(ResilientExecutor):
            calls = 0

            def map(self, fn_path, units, *, keys=None):
                type(self).calls += 1
                if type(self).calls == 2:
                    raise KeyboardInterrupt
                return super().map(fn_path, units, keys=keys)

        with pytest.raises(KeyboardInterrupt):
            run_durable_campaign(spec_for(), str(tmp_path),
                                 executor=Interrupting(1))
        checkpoint = CampaignStore(str(tmp_path)).load_checkpoint()
        assert checkpoint is not None and not checkpoint.done
        # The interrupted wave went back on the frontier: resuming
        # continues from the pre-wave state to the identical verdict.
        resumed = resume_campaign(str(tmp_path), workers=2)
        assert repr(resumed) == clean_repr(tmp_path_factory)

    def test_resume_on_same_pool_counts_each_wave_once(
            self, tmp_path, monkeypatch):
        """A pool reused across the interrupt and the resume still holds
        the interrupted run's memo counters; the done checkpoint must
        count every wave once, exactly as an uninterrupted run does."""
        from repro.engine import workers
        from repro.engine.memo import CheckMemo

        class Interrupting(ResilientExecutor):
            calls = 0

            def map(self, fn_path, units, *, keys=None):
                self.calls += 1
                if self.calls == 3:
                    raise KeyboardInterrupt
                return super().map(fn_path, units, keys=keys)

        spec = spec_for(40)
        monkeypatch.setattr(workers, "MEMO", CheckMemo())
        run_durable_campaign(spec, str(tmp_path / "clean"), workers=1)
        clean = CampaignStore(str(tmp_path / "clean")).load_checkpoint()

        monkeypatch.setattr(workers, "MEMO", CheckMemo())
        pool = Interrupting(1)
        store = str(tmp_path / "resumed")
        with pytest.raises(KeyboardInterrupt):
            run_durable_campaign(spec, store, executor=pool)
        run_durable_campaign(spec, store, executor=pool)
        resumed = CampaignStore(store).load_checkpoint()
        assert resumed.done and clean.done
        assert resumed.stats == clean.stats
        assert repr(resumed.state.result()) == repr(clean.state.result())


class TestCorruptStoreFallback:
    def test_corrupt_checkpoint_cold_starts_with_warning(
            self, tmp_path, tmp_path_factory):
        store = str(tmp_path)
        run_durable_campaign(spec_for(), store, workers=1)
        with open(os.path.join(store, "checkpoint.bin"), "wb") as fh:
            fh.write(b"GARBAGE!" * 8)
        with pytest.warns(RuntimeWarning, match="cold-starting"):
            result = run_durable_campaign(spec_for(), store, workers=2)
        assert repr(result) == clean_repr(tmp_path_factory)

    def test_explicit_resume_of_corrupt_checkpoint_fails_loudly(
            self, tmp_path):
        from repro.errors import CorruptArtifact
        store = str(tmp_path)
        run_durable_campaign(spec_for(), store, workers=1)
        with open(os.path.join(store, "checkpoint.bin"), "r+b") as fh:
            fh.truncate(20)
        with pytest.raises(CorruptArtifact):
            resume_campaign(store)


@pytest.fixture
def fresh_memo(monkeypatch):
    """A cold worker memo: earlier tests in this process warm the
    module-global one, and a fully warm memo journals nothing."""
    from repro.engine import workers
    from repro.engine.memo import CheckMemo
    monkeypatch.setattr(workers, "MEMO", CheckMemo())


class TestWarmMemoReuse:
    def test_memo_log_is_populated_and_preloads(self, tmp_path,
                                                fresh_memo):
        store = CampaignStore(str(tmp_path))
        run_durable_campaign(spec_for(), store, workers=2)
        tables = store.memo.stats()
        assert any(table.startswith("invariants:") for table in tables)
        assert "vcpu" in tables

    def test_warm_store_gives_identical_result(self, tmp_path,
                                               tmp_path_factory,
                                               fresh_memo):
        first = CampaignStore(str(tmp_path / "one"))
        run_durable_campaign(spec_for(), first, workers=2)
        warmed = str(tmp_path / "two")
        os.makedirs(warmed)
        shutil.copy(first.memo.path,
                    os.path.join(warmed, "memo.log"))
        result = run_durable_campaign(spec_for(), warmed, workers=2)
        assert repr(result) == clean_repr(tmp_path_factory)

    def test_a_pool_forked_before_the_campaign_journals(self, tmp_path,
                                                        fresh_memo):
        """Every shard journals its workers' memo misses, however early
        the pool forked: a campaign on a pool whose two slots forked
        before it leaves the memo log a campaign on its own pool
        leaves."""
        spec = CampaignSpec(max_schedules=12, preemption_bound=1)
        with ShardedExecutor(2) as pool:
            # one unit per slot: both worker processes fork here
            keys = ["0", "1", "2", "3"]
            assert {stable_shard(f"builtins:abs\x1f{key}", 2)
                    for key in keys} == {0, 1}
            pool.map("builtins:abs", [-1, -2, -3, -4], keys=keys)
            early = CampaignStore(str(tmp_path / "early"))
            run_durable_campaign(spec, early, executor=pool)
        own = CampaignStore(str(tmp_path / "own"))
        run_durable_campaign(spec, own, workers=2)
        assert len(own.memo) > 0
        assert len(early.memo) == len(own.memo)


class TestQuarantinedShards:
    def test_quarantine_becomes_a_violation_not_a_crash(self, tmp_path):
        class Poisoning(ResilientExecutor):
            def map(self, fn_path, units, *, keys=None):
                merged = super().map(fn_path, units, keys=keys)
                if len(merged) > 1:
                    merged[1] = ShardQuarantined(0, 3, "worker died")
                return merged

        result = run_durable_campaign(spec_for(), str(tmp_path),
                                      executor=Poisoning(1))
        kinds = {violation.kind for violation in result.violations}
        assert "shard-quarantined" in kinds
        assert len(result.runs) == SCHEDULES   # campaign still completed


class TestWarmPureCheckGrid:
    NAMES = ["pte_new", "pte_addr", "pte_flags", "pte_is_present"]

    def test_cold_matches_plain_grid_and_warm_matches_cold(
            self, tmp_path, model):
        from repro.engine import ShardedExecutor
        from repro.engine.campaigns import pure_check_grid
        store = str(tmp_path)
        with ShardedExecutor(2) as pool:
            cold = warm_pure_check_grid(self.NAMES, store,
                                        total_steps=40000, executor=pool)
            plain = pure_check_grid(self.NAMES, total_steps=40000,
                                    fake_clock=True, executor=pool)
            assert repr(cold) == repr(plain)
            warm = warm_pure_check_grid(self.NAMES, store,
                                        total_steps=40000, executor=pool)
        assert repr(warm) == repr(cold)
        tables = CampaignStore(store).memo.stats()
        assert tables.get("pure-verdict") == len(self.NAMES)

    def test_changed_budget_is_a_different_key(self, tmp_path, model):
        store = str(tmp_path)
        warm_pure_check_grid(self.NAMES[:2], store, total_steps=40000)
        warm_pure_check_grid(self.NAMES[:2], store, total_steps=20000)
        tables = CampaignStore(store).memo.stats()
        assert tables["pure-verdict"] == 4


class TestStoreContextManager:
    def test_with_block_closes_store(self, tmp_path):
        with CampaignStore(str(tmp_path)) as store:
            run_durable_campaign(spec_for(8), store, workers=1)
            assert not store.closed
        assert store.closed

    def test_close_is_idempotent(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        store.close()
        store.close()              # double-close must not raise
        assert store.closed

    def test_closed_store_reopens_lazily(self, tmp_path,
                                         tmp_path_factory):
        store = CampaignStore(str(tmp_path))
        run_durable_campaign(spec_for(), store, workers=1)
        store.close()
        # Closing releases the file handle, not the on-disk state:
        # the same object keeps serving checkpoints and memo reads.
        checkpoint = store.load_checkpoint()
        assert checkpoint is not None and checkpoint.done
        assert repr(checkpoint.state.result()) \
            == clean_repr(tmp_path_factory)

    def test_reentry_resets_closed_flag(self, tmp_path):
        store = CampaignStore(str(tmp_path))
        with store:
            pass
        assert store.closed
        with store:
            assert not store.closed
        assert store.closed


class TestCli:
    def test_campaign_then_resume_exit_zero(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["campaign", "--store", store, "--max-schedules",
                     "8", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "schedules explored" in out and "resume" in out
        assert main(["resume", store, "--workers", "1"]) == 0
        assert "schedules explored" in capsys.readouterr().out

    def test_resume_nothing_is_a_usage_error(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "void")]) == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_interrupt_exits_130(self, tmp_path, monkeypatch, capsys):
        import repro.service as service

        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(service, "run_durable_campaign", interrupted)
        code = main(["campaign", "--store", str(tmp_path / "s")])
        assert code == 130
        assert "checkpoint flushed" in capsys.readouterr().err
