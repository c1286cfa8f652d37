"""Bounded-preemption exploration over the real scheduler."""

from hypothesis import given, settings, strategies as st

from repro.concurrency import (
    DeterministicScheduler,
    Schedule,
    explore,
    scheduler as conc,
)
from repro.concurrency.explorer import FrontierState


def stepping_workloads(log, steps=2):
    def task(vid):
        def run():
            for n in range(steps):
                conc.yield_point("step", f"vcpu{vid}-{n}")
                log.append((vid, n))
        return run
    return [task(0), task(1)]


def stepping_run(schedule, _branch_bound=None):
    return DeterministicScheduler(object(), stepping_workloads([]),
                                  schedule).run()


def racy_run(schedule, _branch_bound=None):
    """A genuine order bug: vCPU 1 requires vCPU 0's first step."""
    state = {"published": False}

    def t0():
        conc.yield_point("step", "publish")
        state["published"] = True
        conc.yield_point("step", "rest")

    def t1():
        conc.yield_point("step", "consume")
        if not state["published"]:
            raise RuntimeError("consumed before publish")

    return DeterministicScheduler(object(), [t0, t1], schedule).run()


class TestExploration:
    def test_root_plus_preempted_children(self):
        result = explore(stepping_run, preemption_bound=1)
        assert result.schedules_run > 1
        assert not result.truncated
        roots = [s for s, _r in result.runs if not s.preemptions]
        assert len(roots) == 1

    def test_children_honor_their_preemptions(self):
        result = explore(stepping_run, preemption_bound=2)
        for schedule, run in result.runs:
            assert len(schedule.preemptions) <= 2
            for index, vid in schedule.preemptions:
                assert run.trace[index] == vid

    def test_deduplication_never_replays_a_trace(self):
        result = explore(stepping_run, preemption_bound=2)
        traces = [run.trace for _s, run in result.runs]
        assert len(traces) == len(set(traces))

    def test_max_schedules_truncates(self):
        result = explore(stepping_run, preemption_bound=2, max_schedules=2)
        assert result.schedules_run == 2
        assert result.truncated
        assert "truncated" in result.summary()

    def test_higher_bound_explores_at_least_as_much(self):
        shallow = explore(stepping_run, preemption_bound=1)
        deep = explore(stepping_run, preemption_bound=2)
        assert deep.schedules_run >= shallow.schedules_run


class TestBranchBound:
    @given(cap=st.integers(1, 40),
           limit=st.one_of(st.none(), st.integers(1, 6)),
           bound=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_zero_exactly_when_no_child_of_the_wave_runs(self, cap, limit,
                                                         bound):
        """Whole waves or chunks: a wave handed 0 has no child among
        the runs, and a wave handed the bound that enqueued a child
        has one among them."""
        state = FrontierState.start(preemption_bound=bound,
                                    max_schedules=cap)
        waves = []
        while True:
            wave = state.take_wave(limit=limit)
            if not wave:
                break
            branch_bound = state.branch_bound(wave)
            assert branch_bound in (0, bound)
            queued = len(state.frontier)
            state.absorb(wave, [(stepping_run(s), []) for s in wave])
            enqueued = len(state.frontier) - queued
            waves.append((wave, branch_bound, enqueued))
        ran = {schedule.preemptions for schedule, _run in state.runs}
        for wave, branch_bound, enqueued in waves:
            parents = {schedule.preemptions for schedule in wave}
            children_ran = any(p[:-1] in parents for p in ran if p)
            if branch_bound == 0:
                assert not children_ran
            elif enqueued:
                assert children_ran

    def test_explore_hands_the_runner_the_branch_bound(self):
        seen = []

        def run(schedule, branch_bound):
            seen.append(branch_bound)
            return stepping_run(schedule)

        result = explore(run, preemption_bound=2, max_schedules=4)
        assert result.truncated
        assert seen[0] == 2 and seen[-1] == 0 and len(seen) == 4


class TestFindings:
    def test_explorer_catches_the_order_bug(self):
        result = explore(racy_run, preemption_bound=1)
        assert not result.ok
        kinds = result.by_kind()
        assert set(kinds) == {"vcpu-error"}
        assert "consumed before publish" in kinds["vcpu-error"][0].detail

    def test_root_schedule_alone_misses_it(self):
        assert racy_run(Schedule()).ok

    def test_violation_replays_standalone(self):
        result = explore(racy_run, preemption_bound=1)
        violation = result.violations[0]
        rerun = racy_run(violation.schedule)
        assert not rerun.ok
        assert isinstance(rerun.task_errors[1], RuntimeError)

    def test_violation_string_carries_the_replay_schedule(self):
        result = explore(racy_run, preemption_bound=1)
        text = str(result.violations[0])
        assert "replay:" in text and "seed=" in text

    def test_check_callback_findings_become_violations(self):
        def check(_schedule, run):
            return [("synthetic", f"trace length {len(run.trace)}")]

        result = explore(stepping_run, preemption_bound=0, check=check)
        assert result.schedules_run == 1
        assert result.by_kind()["synthetic"][0].schedule == Schedule()
