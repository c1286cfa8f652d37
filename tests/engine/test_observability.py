"""Worker config, worker stats shipping, worker span re-parenting.

Three fabric-level observability contracts:

* ``resolve_workers`` rejects a malformed ``REPRO_CHECK_WORKERS``, or
  an explicit count below 1, with a typed
  :class:`~repro.errors.ConfigError` naming the variable or
  ``workers`` (it used to leak ``int()``'s raw ``ValueError``, which
  named neither the knob nor the fix, and to clamp explicit counts to
  1 silently);
* per-worker solver counters ship back with shard results and merge,
  so a sharded campaign's aggregate solver statistics equal the
  sequential run's (they used to read only the parent's counters and
  undercount by exactly the pool's work);
* worker trace spans re-parent deterministically — the assembled trace
  is a pure function of the unit list, not of worker count.
"""

import pytest

from repro import fastpath
from repro.engine import ShardedExecutor, pure_check_grid
from repro.engine.executor import WORKERS_ENV, resolve_workers
from repro.errors import ConfigError, ReproError
from repro.obs import trace as trace_mod
from repro.symbolic import clear_solver_caches, solver_stats, stats_delta

NAMES = ["entry_index", "align_page_down", "pte_flags", "level_span"]


class TestResolveWorkers:
    def test_explicit_argument_beats_a_broken_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "banana")
        assert resolve_workers(3) == 3

    def test_unset_env_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() >= 1

    def test_empty_env_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "")
        assert resolve_workers() >= 1

    def test_valid_env_is_used(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert resolve_workers() == 2

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_env_raises_config_error(self, monkeypatch,
                                                 value):
        monkeypatch.setenv(WORKERS_ENV, value)
        with pytest.raises(ConfigError) as excinfo:
            resolve_workers()
        message = str(excinfo.value)
        assert WORKERS_ENV in message
        assert value in message
        assert ">= 1" in message

    def test_non_integer_env_raises_config_error(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "banana")
        with pytest.raises(ConfigError) as excinfo:
            resolve_workers()
        message = str(excinfo.value)
        assert WORKERS_ENV in message
        assert "banana" in message
        assert "not an integer" in message

    @pytest.mark.parametrize("value", [0, -3])
    def test_explicit_count_below_one_raises_config_error(self, value):
        with pytest.raises(ConfigError) as excinfo:
            resolve_workers(value)
        message = str(excinfo.value)
        assert message.startswith(f"workers={value}")
        assert ">= 1" in message

    @pytest.mark.parametrize("bad", [
        (["--workers", "0"], None, "workers=0: worker count must be >= 1"),
        ([], "0", f"{WORKERS_ENV}='0': worker count must be >= 1"),
        ([], "-2", f"{WORKERS_ENV}='-2': worker count must be >= 1"),
        ([], "banana", f"{WORKERS_ENV}='banana': not an integer"),
    ], ids=["flag", "env-zero", "env-negative", "env-non-integer"])
    @pytest.mark.parametrize("verb", [
        ["campaign", "--store"], ["resume"], ["serve", "--root"]],
        ids=lambda argv: argv[0])
    def test_cli_refuses_workers_below_one(self, verb, bad, capsys,
                                           tmp_path, monkeypatch):
        """A worker count below 1, from ``--workers`` or from
        ``REPRO_CHECK_WORKERS`` when no flag is given, is a usage error
        (exit 2) naming the flag or the variable, before any campaign or
        daemon starts."""
        import repro.service
        import repro.service.daemon
        from repro.__main__ import main

        flags, env, message = bad
        if env is None:
            monkeypatch.delenv(WORKERS_ENV, raising=False)
        else:
            monkeypatch.setenv(WORKERS_ENV, env)

        def started(*_args, **_kwargs):
            raise AssertionError("a bad worker count got past the CLI")

        for module, name in ((repro.service, "run_durable_campaign"),
                             (repro.service, "resume_campaign"),
                             (repro.service.daemon, "CheckingDaemon")):
            monkeypatch.setattr(module, name, started)
        with pytest.raises(SystemExit) as excinfo:
            main(verb + [str(tmp_path / "store")] + flags)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_config_error_is_a_repro_error(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "banana")
        with pytest.raises(ReproError):
            resolve_workers()


class TestWorkerStatsShipping:
    def test_parallel_solver_stats_equal_sequential(self):
        """The stats-accounting regression: a sharded grid's aggregate
        solver counters must match the sequential run exactly.

        Runs under the naive engines — with the fast path on, solver
        memo counters depend on cache warmth, which fork inheritance
        makes a function of pool history rather than of the grid.
        """
        grid = dict(fake_clock=True, seed=0)
        with fastpath.disabled():
            clear_solver_caches()
            before = solver_stats()
            seq = pure_check_grid(NAMES, **grid)
            seq_delta = stats_delta(before)

            clear_solver_caches()
            before = solver_stats()
            # Fresh pool: workers fork here, inheriting cleared caches.
            with ShardedExecutor(4) as pool:
                par = pure_check_grid(NAMES, **grid, executor=pool)
            par_delta = stats_delta(before)
        assert repr(par) == repr(seq)
        assert par_delta == seq_delta
        assert par_delta["check_sat_calls"] > 0

    def test_per_report_solver_stats_survive_sharding(self):
        with fastpath.disabled():
            with ShardedExecutor(2) as pool:
                reports = pure_check_grid(NAMES, fake_clock=True,
                                          executor=pool)
        for report in reports:
            assert report.solver_stats, report.name
            assert report.solver_stats["check_sat_calls"] >= 0


class TestWorkerSpanAdoption:
    @staticmethod
    def _shape(records):
        """Records with timestamps dropped and the one legitimately
        worker-count-dependent attribute (shard count) removed."""
        shaped = []
        for record in records:
            record = dict(record)
            for key in ("t", "t0", "t1"):
                record.pop(key, None)
            attrs = dict(record["attrs"])
            if record["name"] == "executor.map":
                attrs.pop("shards", None)
            record["attrs"] = attrs
            shaped.append(record)
        return shaped

    def test_trace_structure_independent_of_worker_count(self):
        shapes = []
        with fastpath.disabled():
            for workers in (1, 4):
                with trace_mod.installed(trace_mod.Tracer()) as tracer:
                    with ShardedExecutor(workers) as pool:
                        pure_check_grid(NAMES, fake_clock=True,
                                        executor=pool)
                trace_mod.validate_records(tracer.records)
                shapes.append(self._shape(tracer.records))
        assert shapes[0] == shapes[1]
        unit_spans = [r for r in shapes[0]
                      if r["name"] == "executor.unit"]
        assert [s["attrs"]["index"] for s in unit_spans] == \
            list(range(len(NAMES)))
