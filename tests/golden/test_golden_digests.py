"""Committed golden digests: campaign verdicts must not move.

Each digest is a blake2b-128 over the ``repr`` of a tuple of primitives
(ints, strings, bools, None) that encodes one campaign's full result:
every schedule, decision, yield and finding of an interleaving sweep,
every run of a fault sweep, every crash record.  Exceptions enter only
as their type name and ``str`` — never their ``repr``, which differs
between Python versions — so the same tree gives the same digests on
every supported interpreter.

Besides whole campaigns, the digests pin a fixed corpus of single
schedules (random preemptions and crashes, plus three crashes inside a
hypercall), each with its final state fingerprint and noninterference
verdicts, snapshot-tree campaigns under forced eviction, and the
symbolic/co-simulation corpus verdicts, which must come out the same
with the fast path forced on and with it disabled.  Other drivers of
the same campaigns must reproduce the sequential digests exactly: the
parallel campaign with the prefix cache on and off, and on x86_64 the
service layer's wave step, driven solo, interrupted and resumed, and
by the fair-share scheduler next to a second campaign.

``digests.json`` beside this file holds the reference values.  A change
that is meant to keep behaviour byte-identical (a faster frame store, a
new scheduler engine) must leave them unchanged; regenerate them only
for a change that is meant to move a verdict, and say why::

    PYTHONPATH=src python -m tests.golden.test_golden_digests
"""

import hashlib
import json
import os
import random

import pytest

from repro import fastpath
from repro.concurrency import Schedule
from repro.concurrency.snapshot import SnapshotTree, reset_process_tree
from repro.engine.bug_matrix import run_matrix
from repro.engine.campaigns import parallel_interleaving_campaign
from repro.engine.fingerprint import phys_fingerprint, state_fingerprint
from repro.faults import (
    build_interleaved_world,
    crash_in_critical_section_campaign,
    crash_step_campaign,
    default_workload,
    default_world_factory,
    execute_interleaved,
    interleaving_campaign,
    make_interleaved_run,
)
from repro.hyperenclave.buggy import MissingLockMonitor, NoShootdownMonitor
from repro.hyperenclave.constants import ARCH_CONFIGS
from repro.hyperenclave.mir_model import build_model
from repro.hyperenclave.monitor import HOST_ID
from repro.security.noninterference import (
    check_schedule_noninterference_prepared,
)
from repro.service import (
    CampaignScheduler,
    CampaignSpec,
    CampaignStore,
    ResilientExecutor,
    resume_campaign,
    run_durable_campaign,
)
from repro.verification.code_proofs import verify_corpus

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "digests.json")


def _error(exc):
    return None if exc is None else (type(exc).__name__, str(exc))


def _run(run):
    """One :class:`RunResult`: trace, decisions, yields and findings."""
    return (run.trace,
            tuple((d.index, d.chosen, d.chosen_kind, d.enabled, d.kinds)
                  for d in run.decisions),
            tuple((y.vid, y.yield_index, y.kind, y.detail, y.locks_held)
                  for y in run.yields),
            tuple(str(v) for v in run.lock_violations),
            tuple(str(s) for s in run.stale_translations),
            tuple((vid, _error(run.task_errors[vid]))
                  for vid in sorted(run.task_errors)),
            run.parked)


def _exploration(result):
    runs = tuple((schedule.describe(),) + _run(run)
                 for schedule, run in result.runs)
    return (result.preemption_bound, result.max_schedules,
            result.truncated, runs,
            tuple(str(v) for v in result.violations))


def _crash_steps(report):
    return (report.seed, tuple(
        (run.hypercall, run.site, run.step, run.kind, run.outcome,
         run.fired, run.rolled_back, run.invariants_ok, run.detail,
         tuple((f.site, f.hit, f.kind, f.label) for f in run.fired_faults))
        for run in report.runs))


def _critical_crashes(report):
    return (report.monitor, report.critical_yields, tuple(
        (r.vid, r.yield_index, r.kind, r.detail, r.locks_held, r.parked,
         r.violations)
        for r in report.records))


def _workload_fingerprints(config):
    """Physical-memory fingerprints after each call of the default
    workload: pins the per-frame digest encoding itself (the memo keys
    and snapshot-tree sharing are built on it)."""
    monitor, ctx = default_world_factory(config)()
    fps = [phys_fingerprint(monitor)]
    for _name, invoke in default_workload():
        invoke(monitor, ctx)
        fps.append(phys_fingerprint(monitor))
    return tuple(fps)


#: Crashes that land inside a hypercall of the root schedule, with its
#: undo journal open: rollback, then the parked vCPU's ``hc.return``.
MID_HYPERCALL_CRASHES = ((0, 7), (1, 3), (0, 15))


def corpus_schedules(count=40):
    """The fixed schedule corpus: ``count`` schedules drawn from
    ``random.Random(0)`` (seed 0-7, at most two preemptions at
    decisions 1-20, an optional crash of vCPU 0-1 at yield 1-16), then
    the :data:`MID_HYPERCALL_CRASHES` on the root schedule."""
    rng = random.Random(0)
    schedules = []
    for _ in range(count):
        seed = rng.randint(0, 7)
        preemptions = sorted((rng.randint(1, 20), rng.randint(0, 1))
                             for _ in range(rng.randint(0, 2)))
        crash = ((rng.randint(0, 1), rng.randint(1, 16))
                 if rng.random() < 0.5 else None)
        schedules.append(Schedule(seed=seed,
                                  preemptions=tuple(preemptions),
                                  crash=crash))
    schedules.extend(Schedule(seed=0, crash=crash)
                     for crash in MID_HYPERCALL_CRASHES)
    return schedules


def _corpus(config):
    """Per corpus schedule: the run, the final state fingerprint and
    the two-world noninterference verdicts."""
    run_world = make_interleaved_run(config=config)
    encoded = []
    for schedule in corpus_schedules():
        state, ctx = build_interleaved_world(config=config)
        state, result = execute_interleaved(state, ctx, schedule)
        fp = state_fingerprint(state)
        verdicts = tuple(str(v) for v in
                         check_schedule_noninterference_prepared(
                             state, result, run_world, schedule,
                             [HOST_ID]))
        encoded.append((schedule.describe(), _run(result), fp, verdicts))
    return tuple(encoded)


def _parallel_campaign(tree, config, **grid):
    """A one-worker (in-process) parallel campaign on a fresh process
    snapshot tree ``tree``."""
    reset_process_tree(tree)
    try:
        return parallel_interleaving_campaign(
            seed=0, config=config, workers=1, **grid)
    finally:
        reset_process_tree(None)


def _corpus_verdicts(config):
    """Every field of every ``verify_corpus`` verdict at seed 0, the
    model built under the ambient fast-path setting."""
    return tuple((v.name, v.layer, v.method, v.checked, v.skipped,
                  tuple(str(f) for f in v.failures))
                 for v in verify_corpus(build_model(config),
                                        seed=0).verdicts)


def _forced_eviction(**tree_kwargs):
    return lambda config: _exploration(_parallel_campaign(
        SnapshotTree(**tree_kwargs), config, preemption_bound=1,
        max_schedules=10, check_ni=False, prefix_cache=True))


#: name -> config -> the encoded result.
CASES = {
    "run_matrix": lambda config: tuple(run_matrix(config=config)),
    "interleaving_bound2": lambda config: _exploration(
        interleaving_campaign(preemption_bound=2, seed=0, config=config)),
    "missing_lock_bound1": lambda config: _exploration(
        interleaving_campaign(MissingLockMonitor, preemption_bound=1,
                              seed=0, config=config)),
    "no_shootdown_bound1": lambda config: _exploration(
        interleaving_campaign(NoShootdownMonitor, preemption_bound=1,
                              seed=0, config=config)),
    "crash_step": lambda config: _crash_steps(crash_step_campaign(
        default_world_factory(config), default_workload())),
    "crash_in_critical_section": lambda config: _critical_crashes(
        crash_in_critical_section_campaign(seed=0, config=config)),
    "workload_fingerprints": _workload_fingerprints,
    "interleaving_bound3": lambda config: _exploration(
        interleaving_campaign(preemption_bound=3, max_schedules=300,
                              seed=0, config=config)),
    "schedule_corpus": _corpus,
    "eviction_budget0": _forced_eviction(budget_bytes=0),
    "eviction_max_nodes1": _forced_eviction(max_nodes=1),
    "corpus_verdicts": _corpus_verdicts,
}


def digest(value) -> str:
    """blake2b-128 hex of ``repr(value)`` (primitives only)."""
    return hashlib.blake2b(repr(value).encode(),
                           digest_size=16).hexdigest()


def arch_digests(config):
    """``{case: digest}`` for one arch on the current tree."""
    return {name: digest(encode(config)) for name, encode in CASES.items()}


def generate():
    """``{arch: {case: digest}}`` for the current tree."""
    return {arch: arch_digests(config)
            for arch, config in ARCH_CONFIGS.items()}


def load():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
def test_golden_digests_unchanged(arch):
    assert arch_digests(ARCH_CONFIGS[arch]) == load()[arch]


@pytest.mark.parametrize("prefix_cache", [False, True])
@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
def test_parallel_campaign_matches_sequential_digest(arch, prefix_cache):
    result = _parallel_campaign(SnapshotTree(), ARCH_CONFIGS[arch],
                                preemption_bound=2,
                                prefix_cache=prefix_cache)
    assert digest(_exploration(result)) == \
        load()[arch]["interleaving_bound2"]


@pytest.mark.parametrize("mode", ["forced", "disabled"])
@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
def test_corpus_verdicts_same_with_fast_path_on_and_off(arch, mode):
    with getattr(fastpath, mode)():
        encoded = _corpus_verdicts(ARCH_CONFIGS[arch])
    assert digest(encoded) == load()[arch]["corpus_verdicts"]


MISSING_LOCK = "repro.hyperenclave.buggy:MissingLockMonitor"


class _StopAtThirdWave(ResilientExecutor):
    """A pool whose third ``map`` is a Ctrl-C: two waves commit, the
    third goes back on the frontier."""

    calls = 0

    def map(self, fn_path, units, *, keys=None):
        self.calls += 1
        if self.calls == 3:
            raise KeyboardInterrupt
        return super().map(fn_path, units, keys=keys)


def _solo(root):
    return {"interleaving_bound2": run_durable_campaign(
        CampaignSpec(), str(root / "solo"), workers=1)}


def _interrupted_then_resumed(root):
    store = str(root / "resumed")
    with pytest.raises(KeyboardInterrupt):
        run_durable_campaign(CampaignSpec(), store,
                             executor=_StopAtThirdWave(1))
    assert not CampaignStore(store).load_checkpoint().done
    return {"interleaving_bound2": resume_campaign(store, workers=1)}


def _scheduled(root):
    scheduler = CampaignScheduler(str(root / "svc"), workers=1)
    scheduler.submit(CampaignSpec(), campaign_id="interleaving_bound2")
    scheduler.submit(CampaignSpec(monitor=MISSING_LOCK, preemption_bound=1),
                     campaign_id="missing_lock_bound1")
    scheduler.run_until_idle()
    scheduler.drain()
    return {case: CampaignStore(os.path.join(scheduler.root, case))
            .load_checkpoint().state.result()
            for case in ("interleaving_bound2", "missing_lock_bound1")}


@pytest.mark.parametrize("driver", [_solo, _interrupted_then_resumed,
                                    _scheduled],
                         ids=lambda driver: driver.__name__.strip("_"))
def test_service_drivers_match_sequential_digests(driver, tmp_path):
    """``CampaignSpec`` has no arch field: the service runs x86_64."""
    reset_process_tree(SnapshotTree())
    try:
        results = driver(tmp_path)
    finally:
        reset_process_tree(None)
    golden = load()["x86_64"]
    for case, result in results.items():
        assert digest(_exploration(result)) == golden[case], case


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
