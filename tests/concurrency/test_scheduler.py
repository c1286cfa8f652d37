"""The deterministic scheduler: token passing, replay, crashes."""

import pickle
import threading

import pytest

from repro.concurrency import (
    LOCK_EPCM,
    Decision,
    DeterministicScheduler,
    Schedule,
    YieldPoint,
    scheduler as conc,
)
from repro.concurrency.shootdown import detect_stale_translations
from repro.engine.fingerprint import state_fingerprint
from repro.errors import LockProtocolViolation
from repro.faults.campaign import (
    ScriptWorkloads,
    build_interleaved_world,
    default_concurrent_scripts,
    interleaving_campaign,
)
from repro.service.orchestrator import _hash_cons_outputs


def counting_workloads(log, steps=3):
    """Two tasks that each record ``steps`` labelled yield points."""
    def task(vid):
        def run():
            for n in range(steps):
                log.append((vid, n))
                conc.yield_point("step", f"vcpu{vid}-{n}")
        return run
    return [task(0), task(1)]


def run_with(schedule, steps=3):
    log = []
    scheduler = DeterministicScheduler(object(), counting_workloads(log, steps),
                                       schedule)
    result = scheduler.run()
    return log, result


class TestDeterminism:
    def test_root_schedule_runs_vcpus_in_vid_order(self):
        log, result = run_with(Schedule())
        assert log == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert result.ok

    def test_same_schedule_same_trace(self):
        schedule = Schedule(preemptions=((1, 1), (3, 0)))
        log_a, result_a = run_with(schedule)
        log_b, result_b = run_with(schedule)
        assert log_a == log_b
        assert result_a.trace == result_b.trace
        assert result_a.yields == result_b.yields

    def test_preemption_switches_vcpus(self):
        log, result = run_with(Schedule(preemptions=((1, 1),)))
        assert log[:3] == [(0, 0), (1, 0), (1, 1)]
        assert result.trace[1] == 1

    def test_trace_records_one_vid_per_decision(self):
        _log, result = run_with(Schedule())
        assert len(result.trace) == len(result.decisions)
        assert set(result.trace) == {0, 1}

    def test_single_use(self):
        scheduler = DeterministicScheduler(object(),
                                           counting_workloads([], 1))
        scheduler.run()
        with pytest.raises(RuntimeError):
            scheduler.run()


class TestCrash:
    def test_crash_parks_the_vcpu(self):
        log, result = run_with(Schedule(crash=(0, 2)))
        # vCPU 0 dies delivering its 2nd yield; its 3rd step never runs.
        assert (0, 2) not in log
        assert result.parked == (0,)
        assert 0 not in result.task_errors
        assert [entry for entry in log if entry[0] == 1] == \
            [(1, 0), (1, 1), (1, 2)]

    def test_crash_on_missing_yield_index_is_harmless(self):
        log, result = run_with(Schedule(crash=(1, 99)))
        assert len(log) == 6 and not result.parked


class TestInstrumentationPlane:
    def test_hooks_noop_without_scheduler(self):
        assert conc.active_scheduler() is None
        assert conc.current_task() is None
        assert conc.current_vid() is None
        conc.yield_point("step", "outside")          # must not raise
        conc.guard_mutation("epcm")
        conc.record_phys_write(0, 0)
        assert conc.release_locks("outside") == ()

    def test_suspended_silences_yields(self):
        log = []

        def noisy():
            with conc.suspended():
                conc.yield_point("step", "hidden")
            log.append("ran")

        scheduler = DeterministicScheduler(object(), [noisy])
        result = scheduler.run()
        assert log == ["ran"]
        # Only the task.start decision: the suspended yield never parked.
        assert [d.chosen_kind for d in result.decisions] == ["task.start"]

    def test_nested_scheduler_rejected(self):
        outer = DeterministicScheduler(object(), [lambda: None])
        with conc.installed(outer):
            with pytest.raises(RuntimeError):
                DeterministicScheduler(object(), [lambda: None]).run()

    def test_workload_exception_is_reported_not_raised(self):
        def boom():
            raise ValueError("workload bug")

        result = DeterministicScheduler(object(), [boom]).run()
        assert isinstance(result.task_errors[0], ValueError)
        assert not result.ok

    def test_taking_a_held_lock_on_entry_is_a_violation(self):
        """A hypercall entered outside the script driver takes its
        plan without a yield, so it cannot wait: another vCPU holding
        one of the locks is a protocol violation."""
        def holder():
            conc.take_locks([LOCK_EPCM])
            conc.yield_point("step", "holding")

        def taker():
            conc.take_locks([LOCK_EPCM])

        result = DeterministicScheduler(
            object(), [holder, taker], Schedule(preemptions=((1, 1),))).run()
        error = result.task_errors[1]
        assert isinstance(error, LockProtocolViolation)
        assert error.rule == "contended-entry"
        assert 0 not in result.task_errors


class TestRecords:
    """Decisions and yields are tuple records with value semantics."""

    DECISION = dict(index=3, chosen=1, chosen_kind="step", enabled=(0, 1),
                    kinds=((0, "hc.return"), (1, "step")))
    YIELD = dict(vid=1, yield_index=4, kind="lock.acquire", detail="epcm",
                 locks_held=("enclaves",))

    @pytest.mark.parametrize("cls,fields", [(Decision, DECISION),
                                            (YieldPoint, YIELD)],
                             ids=["Decision", "YieldPoint"])
    def test_value_semantics(self, cls, fields):
        record = cls(**fields)
        twin = cls(**fields)
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert {record: 1}[twin] == 1
        assert tuple(getattr(record, name) for name in fields) == \
            tuple(fields.values())
        first = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, first, 0)
        with pytest.raises(AttributeError):
            record.extra = 0
        other = cls(**dict(fields, **{first: 99}))
        assert record != other and not record == other

    @pytest.mark.parametrize("protocol",
                             range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        for record in (Decision(**self.DECISION), YieldPoint(**self.YIELD)):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is type(record)
            assert copy == record

    def test_repr_names_every_field(self):
        assert repr(Decision(**self.DECISION)) == (
            "Decision(index=3, chosen=1, chosen_kind='step', "
            "enabled=(0, 1), kinds=((0, 'hc.return'), (1, 'step')))")

    def test_hash_consing_keeps_every_record_type(self):
        """The service shares equal records across a campaign's runs
        through one cache that holds decisions and yields together."""
        result = interleaving_campaign(preemption_bound=1, check_ni=False)
        outputs = [(run, []) for _schedule, run in result.runs]
        before = [(run.decisions, run.yields) for run, _ in outputs]
        cache = {}
        _hash_cons_outputs(outputs, cache)
        _hash_cons_outputs(outputs, cache)
        for (run, _), (decisions, yields) in zip(outputs, before):
            assert all(type(d) is Decision for d in run.decisions)
            assert all(type(y) is YieldPoint for y in run.yields)
            assert run.decisions == decisions and run.yields == yields
        assert len(cache) < sum(len(d) + len(y) for d, y in before)


def _scripted_run(schedule, probe, config=None):
    """One run of the interleaving campaign's world under ``probe``."""
    prototype, ctx = build_interleaved_world(config=config)
    state = prototype.clone()
    workloads = ScriptWorkloads(state, default_concurrent_scripts(ctx))
    result = DeterministicScheduler(state.monitor, workloads, schedule,
                                    probe=probe).run()
    return (tuple(result.decisions), tuple(result.yields), result.trace,
            tuple(str(v) for v in result.lock_violations),
            tuple(str(s) for s in result.stale_translations),
            tuple((vid, repr(exc))
                  for vid, exc in sorted(result.task_errors.items())),
            result.parked, state_fingerprint(state))


class TestProbeSilence:
    """The probe runs with every hook silent, inside a task too."""

    #: A late forced preemption: every body before it runs on a fiber,
    #: so some inline decisions (and their probes) run on fiber threads.
    SCHEDULE = Schedule(preemptions=((40, 1),))

    def test_hooks_called_from_the_probe_change_nothing(self):
        calls = []

        def noisy(monitor):
            calls.append((conc.current_task() is not None,
                          threading.current_thread().name.startswith(
                              "fiber-"),
                          conc.txn_scope()))
            conc.yield_point("phys.write", "from the probe")
            conc.guard_mutation(LOCK_EPCM)
            return detect_stale_translations(monitor)

        quiet = _scripted_run(self.SCHEDULE, detect_stale_translations)
        assert _scripted_run(self.SCHEDULE, noisy) == quiet
        assert all(scope is None for _in_task, _fiber, scope in calls)
        in_task = [fiber for inside, fiber, _scope in calls if inside]
        assert in_task and any(in_task) and not all(in_task)
        assert len(calls) == len(quiet[0])     # one probe per decision

    def test_a_probe_that_raises_leaves_the_hooks_live(self):
        raised = []

        def flaky(_monitor):
            if conc.current_task() is not None and not raised:
                raised.append(conc.current_vid())
                raise RuntimeError("probe failed")
            return ()

        def first():
            conc.yield_point("step", "first")

        def second():
            conc.yield_point("step", "second")
            conc.guard_mutation(LOCK_EPCM)

        result = DeterministicScheduler(object(), [first, second],
                                        probe=flaky).run()
        assert raised == [0]
        assert isinstance(result.task_errors[0], RuntimeError)
        assert [(y.vid, y.detail) for y in result.yields] == \
            [(0, "first"), (1, "second")]
        assert [v.rule for v in result.lock_violations] == \
            ["unlocked-mutation"]
        assert conc._TLS.depth == 0
