"""In-process ↔ pooled byte-identity, campaign by campaign.

The fabric's one hard guarantee: for every checking campaign, the
merged pooled report is **byte-identical** (``repr``-equal, which
covers every field of every record) to the in-process run — worker
count, shard assignment, and completion order must not be observable.
Each fault campaign and the pure-check grid has one driver that takes
an ``executor``; the tests here call that same function without one
(one in-process worker) and with a two-worker pool, on both arches
where the sweep differs by arch.  The interleaving campaign's pooled
path is the durable wave step; a durable campaign on the shared pool is
compared here with the sequential campaign, including the campaigns
where the planted concurrency bugs actually fire (violations must
merge identically, not just clean runs).
"""

import pytest

from repro.engine import ShardedExecutor, pure_check_grid
from repro.engine.executor import callable_path
from repro.faults.campaign import (
    crash_in_critical_section_campaign,
    crash_ni_campaign,
    crash_step_campaign,
    default_two_worlds,
    default_workload,
    default_world_factory,
    interleaving_campaign,
    scheduled_runner,
)
from repro.hyperenclave.buggy import MissingLockMonitor, NoShootdownMonitor
from repro.hyperenclave.constants import ARCH_CONFIGS
from repro.obs.metrics import REGISTRY
from repro.service import CampaignSpec, CampaignStore, run_durable_campaign

ARCHES = sorted(ARCH_CONFIGS)


@pytest.fixture(scope="module")
def pair():
    """The two-worker pool the single-driver campaigns run on."""
    with ShardedExecutor(2) as executor:
        yield executor


def _durable(pool, store, monitor_cls=None, **grid):
    """A durable campaign on the shared pool, in a fresh store."""
    spec = CampaignSpec(monitor=callable_path(monitor_cls), **grid)
    return run_durable_campaign(spec, str(store), executor=pool)


def test_interleaving_equivalence(pool, tmp_path):
    seq = interleaving_campaign(max_schedules=40)
    par = _durable(pool, tmp_path, max_schedules=40)
    assert repr(par) == repr(seq)


def test_interleaving_equivalence_missing_lock(pool, tmp_path):
    """Violating runs (lock-protocol findings) must merge identically."""
    seq = interleaving_campaign(MissingLockMonitor, max_schedules=30,
                                check_ni=False)
    par = _durable(pool, tmp_path, MissingLockMonitor, max_schedules=30,
                   check_ni=False)
    assert not seq.ok
    assert repr(par) == repr(seq)


def test_interleaving_equivalence_no_shootdown(pool, tmp_path):
    seq = interleaving_campaign(NoShootdownMonitor, max_schedules=150,
                                check_ni=False)
    par = _durable(pool, tmp_path, NoShootdownMonitor, max_schedules=150,
                   check_ni=False)
    assert not seq.ok
    assert repr(par) == repr(seq)


def test_crash_step_equivalence(pair):
    factory, calls = default_world_factory(), default_workload()
    seq = crash_step_campaign(factory, calls)
    par = crash_step_campaign(factory, calls, executor=pair)
    assert seq.runs and repr(par) == repr(seq)


def test_scheduled_crash_step_equivalence(pair):
    """The determinism guard's runner pickles and runs in workers: on
    either executor every armed step is one scheduler run (pool
    workers' counters merge into this process's registry)."""
    factory, calls = default_world_factory(), default_workload()
    reports = []
    for executor in (None, pair):
        before = REGISTRY.snapshot()
        reports.append(crash_step_campaign(
            factory, calls, runner=scheduled_runner, executor=executor))
        assert REGISTRY.delta(before)["counters"]["sched.runs"] == \
            len(reports[-1].runs)
    seq, par = reports
    assert seq.ok and repr(par) == repr(seq)


@pytest.mark.parametrize("arch", ARCHES)
def test_crash_ni_equivalence(pair, arch):
    factory = default_two_worlds(ARCH_CONFIGS[arch])
    seq = crash_ni_campaign(factory)
    par = crash_ni_campaign(factory, executor=pair)
    assert seq.runs and repr(par) == repr(seq)


@pytest.mark.parametrize("arch", ARCHES)
def test_crash_in_critical_section_equivalence(pair, arch):
    config = ARCH_CONFIGS[arch]
    seq = crash_in_critical_section_campaign(config=config)
    par = crash_in_critical_section_campaign(config=config,
                                             executor=pair)
    assert seq.records and repr(par) == repr(seq)


def test_pure_check_grid_equivalence(pair):
    """With frozen worker clocks even ``budget_spent`` merges equal."""
    names = ["entry_index", "pte_is_present", "pte_frame",
             "align_page_down"]
    kw = dict(total_steps=4000, seed=7, sample_count=32,
              fake_clock=True)
    seq = pure_check_grid(names, **kw)
    par = pure_check_grid(names, **kw, executor=pair)
    assert [r.name for r in seq] == names
    assert repr(par) == repr(seq)


def test_checkpoint_stats_report_worker_memoisation(pool, tmp_path):
    """The checkpoint's ``stats`` sum the workers' memo counters."""
    _durable(pool, tmp_path, max_schedules=40)
    with CampaignStore(str(tmp_path)) as store:
        stats = store.load_checkpoint().stats
    assert stats["invariants"]["hits"] + stats["invariants"]["misses"] > 0
