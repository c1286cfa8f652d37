"""Determinism guard (satellite): the concurrency plane must be
invisible at one vCPU, on each arch.

The whole fault-injection crash-step campaign re-runs with every armed
hypercall wrapped in a single-task deterministic schedule.  A one-vCPU
schedule has exactly one enabled choice at every decision, so the
sequential and scheduled campaigns must be *identical* — same
injectable steps, same :class:`FiredFault` traces, same verdicts —
even though the two open different scopes: a sequential hypercall's
keeps every structure's value, a scheduled one's only those of its
lock plan and its vCPU.
"""

import pytest

from repro.faults import (
    crash_step_campaign,
    default_workload,
    default_world_factory,
    scheduled_runner,
)
from repro.hyperenclave.constants import ARCH_CONFIGS


def record_key(run):
    return (run.hypercall, run.site, run.step, run.kind, run.outcome,
            run.fired, run.rolled_back, run.invariants_ok,
            run.fired_faults)


@pytest.fixture(scope="module", params=sorted(ARCH_CONFIGS))
def campaigns(request):
    factory = default_world_factory(ARCH_CONFIGS[request.param])
    calls = default_workload()
    sequential = crash_step_campaign(factory, calls, seed=0)
    scheduled = crash_step_campaign(factory, calls, seed=0,
                                    runner=scheduled_runner)
    return sequential, scheduled


def test_both_campaigns_are_green(campaigns):
    sequential, scheduled = campaigns
    assert sequential.ok
    assert scheduled.ok, [str(r.detail) for r in scheduled.failures()[:3]]


def test_verdicts_are_identical(campaigns):
    sequential, scheduled = campaigns
    assert len(sequential.runs) == len(scheduled.runs)
    for seq, sch in zip(sequential.runs, scheduled.runs):
        assert record_key(seq) == record_key(sch)


def test_fired_fault_traces_are_identical(campaigns):
    sequential, scheduled = campaigns
    assert [run.fired_faults for run in sequential.runs] == \
        [run.fired_faults for run in scheduled.runs]
    # and not vacuously: the campaign injected real faults
    assert any(run.fired_faults for run in sequential.runs)


def test_aggregate_counters_match(campaigns):
    sequential, scheduled = campaigns
    assert sequential.faults_injected == scheduled.faults_injected
    assert sequential.rollbacks_verified == scheduled.rollbacks_verified
    assert sequential.invariant_sweeps_passed == \
        scheduled.invariant_sweeps_passed
