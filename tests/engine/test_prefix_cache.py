"""Prefix-sharing execution cache: equivalence, eviction, capture rule,
metrics.

The snapshot tree's one hard guarantee mirrors the fabric's: a
campaign run through restored snapshots and spliced completions is
**byte-identical** (``repr``-equal) to the from-scratch reference that
runs every schedule from a prototype clone — at any cache capacity,
including a budget of zero and a single-node LRU that evicts on every
insert, and through both campaign paths (the sequential campaign's own
tree, and the process tree the durable wave step's units run
through).  Hypothesis drives random (seed, preemption bound, fault
plan) configurations through both; the directed tests pin the cache
actually *working* (hits, suffix steps saved, leaf runs ending on an
earlier run's completion), the capture rule (snapshots only where a
child schedule can branch), the sequential tree's lifetime, and the
counters surfacing through the metrics registry.

Everything here runs in-process (``unit_path_campaign`` drives the
units wave by wave, and the durable test runs on one worker) so the
tests control the process-local tree directly via
:func:`~repro.concurrency.snapshot.reset_process_tree`.
"""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.concurrency import DeterministicScheduler, snapshot
from repro.concurrency.snapshot import (
    Completion,
    SnapshotNode,
    SnapshotTree,
    locality_key,
    process_tree,
    reset_process_tree,
)
from repro.faults import (
    build_interleaved_world,
    execute_interleaved,
    interleaving_campaign,
)
from repro.hyperenclave.buggy import MissingLockMonitor, NoShootdownMonitor
from repro.hyperenclave.constants import ARCH_CONFIGS
from repro.hyperenclave.monitor import RustMonitor
from repro.hyperenclave.txn import transactional
from repro.obs.metrics import REGISTRY
from repro.reporting.tables import render_metrics
from repro.service import CampaignSpec, run_durable_campaign
from tests.conftest import from_scratch_campaign, unit_path_campaign

GRID = dict(max_schedules=12, check_ni=False)

COUNTED = ("hits", "misses", "steps_saved", "captures")


@pytest.fixture
def tree():
    """Install a fresh default-budget process tree; always uninstall."""
    fresh = SnapshotTree()
    reset_process_tree(fresh)
    yield fresh
    reset_process_tree(None)


def _pooled(tree_kwargs=None, **grid):
    """The pooled campaign's unit path through a fresh process tree;
    returns (result, tree, counter_delta)."""
    reset_process_tree(SnapshotTree(**(tree_kwargs or {})))
    try:
        before = REGISTRY.snapshot()
        result = unit_path_campaign(**grid)
        return result, process_tree(), REGISTRY.delta(before)["counters"]
    finally:
        reset_process_tree(None)


def _both(tree_kwargs=None, **grid):
    """The pooled unit path through a fresh tree and the from-scratch
    reference; returns (cached_repr, reference_repr, tree,
    counter_delta)."""
    cached, installed, delta = _pooled(tree_kwargs, **grid)
    reference = from_scratch_campaign(**grid)
    return repr(cached), repr(reference), installed, delta


def _cache_counts(run):
    """``run()``'s ``snapshot_cache`` counter deltas named in
    :data:`COUNTED`."""
    before = REGISTRY.snapshot()
    run()
    delta = REGISTRY.delta(before)["counters"]
    return {name: delta[f"snapshot_cache.{name}"] for name in COUNTED}


@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_random_configs_restore_byte_identically(data):
    """Random (seed, bound, fault plan): snapshot-restored pooled unit
    paths repr-match the from-scratch reference."""
    seed = data.draw(st.integers(0, 4), label="seed")
    bound = data.draw(st.integers(1, 2), label="preemption_bound")
    crash = data.draw(
        st.one_of(st.none(),
                  st.tuples(st.integers(0, 1), st.integers(1, 6))),
        label="crash")
    cached, reference, _tree, _delta = _both(
        seed=seed, preemption_bound=bound, crash=crash, **GRID)
    assert cached == reference


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_sequential_campaign_restores_byte_identically(data):
    """Random (monitor, seed, bound 0-3, fault plan, NI on or off): the
    sequential campaign, which runs through its own tree, repr-matches
    the from-scratch reference — planted bugs' findings included."""
    monitor_cls = data.draw(st.sampled_from(
        [RustMonitor, MissingLockMonitor, NoShootdownMonitor]),
        label="monitor")
    grid = dict(
        seed=data.draw(st.integers(0, 4), label="seed"),
        preemption_bound=data.draw(st.integers(0, 3),
                                   label="preemption_bound"),
        crash=data.draw(
            st.one_of(st.none(),
                      st.tuples(st.integers(0, 1), st.integers(1, 8))),
            label="crash"),
        check_ni=data.draw(st.booleans(), label="check_ni"),
        max_schedules=data.draw(st.integers(1, 40),
                                label="max_schedules"))
    assert repr(interleaving_campaign(monitor_cls, **grid)) == \
        repr(from_scratch_campaign(monitor_cls, **grid))


@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_forced_eviction_preserves_equivalence(data):
    """Capacity 0 (nothing ever cached) and a 1-node LRU (evicts on
    nearly every insert) both stay byte-identical — eviction can cost
    speed, never correctness."""
    seed = data.draw(st.integers(0, 3), label="seed")
    kwargs = data.draw(st.sampled_from(
        [{"budget_bytes": 0}, {"max_nodes": 1}]), label="capacity")
    cached, reference, tree, delta = _both(
        tree_kwargs=kwargs, seed=seed, preemption_bound=1, **GRID)
    assert cached == reference
    if kwargs.get("budget_bytes") == 0:
        assert delta["snapshot_cache.hits"] == 0
        assert delta["snapshot_cache.captures"] == 0
        assert delta["snapshot_cache.completion_hits"] == 0
        assert not tree.completions
    else:
        assert len(tree.nodes) <= 1
        assert delta["snapshot_cache.evictions"] > 0


def test_cache_hits_and_saves_suffix_steps():
    """Under the default budget the tree actually serves: most lookups
    hit and whole prefixes of scheduler decisions are skipped."""
    cached, reference, tree, delta = _both(seed=0, preemption_bound=1,
                                           **GRID)
    assert cached == reference
    hits = delta["snapshot_cache.hits"]
    misses = delta["snapshot_cache.misses"]
    assert hits > 0 and hits / (hits + misses) > 0.5
    assert delta["snapshot_cache.steps_saved"] > 0
    assert tree.bytes_resident > 0


def _carried(monitor_cls, crash):
    """The findings a case's spliced suffixes must carry: lock
    violations of the missing-lock bug, stale translations of the
    missing-shootdown bug and crashed vCPUs, wherever the campaign has
    them past a leaf run's last preemption."""
    expected = set()
    if crash is not None:
        expected.add("crashed vCPUs")
    if monitor_cls is MissingLockMonitor and crash != (0, 9):
        expected.add("lock violations")
    if monitor_cls is NoShootdownMonitor and crash is None:
        expected.add("stale translations")
    return expected


@pytest.mark.parametrize("crash", [None, (1, 5), (0, 9)], ids=str)
@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
@pytest.mark.parametrize(
    "monitor_cls", [RustMonitor, MissingLockMonitor, NoShootdownMonitor],
    ids=lambda cls: cls.__name__)
def test_spliced_completions_match_from_scratch(monitor_cls, arch, crash,
                                                monkeypatch):
    """Bound 2, full battery: leaf runs end on completions earlier runs
    published, and the campaign's runs and violations stay
    ``repr``-equal to the from-scratch reference — findings and
    crashed vCPUs that live in the spliced suffixes included."""
    carried = Counter()
    splice = Completion.apply_to

    def counted(self, sched):
        violations, stale = len(sched.locks.violations), len(sched.stale)
        splice(self, sched)
        carried["lock violations"] += \
            len(sched.locks.violations) - violations
        carried["stale translations"] += len(sched.stale) - stale
        carried["crashed vCPUs"] += sum(t.parked for t in sched.tasks)

    monkeypatch.setattr(Completion, "apply_to", counted)
    grid = dict(preemption_bound=2, crash=crash, config=ARCH_CONFIGS[arch])
    before = REGISTRY.snapshot()
    cached = interleaving_campaign(monitor_cls, **grid)
    delta = REGISTRY.delta(before)["counters"]
    reference = from_scratch_campaign(monitor_cls, **grid)
    assert repr(cached.runs) == repr(reference.runs)
    assert repr(cached.violations) == repr(reference.violations)
    assert delta["snapshot_cache.completion_hits"] > 0
    assert delta["snapshot_cache.decisions_spliced"] > 0
    assert {kind for kind, count in carried.items() if count} \
        >= _carried(monitor_cls, crash)


@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
def test_every_run_keeps_its_trace_beside_its_decisions(arch, monkeypatch):
    """Restored from a node, spliced from a completion or run whole,
    every run of a bound-2 campaign (the noninterference world's too)
    has the chosen vCPU of each decision as its trace, and decision
    ``i`` has index ``i``."""
    how = {}

    def tag(cls, kind):
        apply_to = cls.apply_to

        def tagged(self, sched):
            how.setdefault(sched, set()).add(kind)
            apply_to(self, sched)

        monkeypatch.setattr(cls, "apply_to", tagged)

    tag(SnapshotNode, "restored")
    tag(Completion, "spliced")
    results = []
    run = DeterministicScheduler.run

    def recording(self):
        result = run(self)
        results.append((how.get(self, {"whole"}), result))
        return result

    monkeypatch.setattr(DeterministicScheduler, "run", recording)
    interleaving_campaign(preemption_bound=2, config=ARCH_CONFIGS[arch])
    kinds = Counter()
    for ways, result in results:
        assert result.trace == tuple(d.chosen for d in result.decisions)
        assert [d.index for d in result.decisions] == \
            list(range(len(result.decisions)))
        kinds.update(ways)
    assert set(kinds) == {"restored", "spliced", "whole"}, kinds
    assert len(results) == 356


class RaisingTrimMonitor(RustMonitor):
    """``hc_trim_page`` raises an error the transition layer does not
    absorb, after its wrapper released the locks: vCPU 0 parks at its
    ``hc.return`` while the error unwinds, then dies with it."""

    @transactional(*RustMonitor.hc_trim_page.lock_set)
    def hc_trim_page(self, eid, va):
        raise RuntimeError("trim escaped")


def test_an_unwinding_hc_return_is_neither_captured_nor_keyed():
    """A node or completion taken while a vCPU sits at an unwinding
    ``hc.return`` would resume it into its next step; the cached
    campaign keeps every vCPU error of the reference."""
    grid = dict(preemption_bound=2, check_ni=False)
    cached = interleaving_campaign(RaisingTrimMonitor, **grid)
    reference = from_scratch_campaign(RaisingTrimMonitor, **grid)
    assert any(run.task_errors for _schedule, run in reference.runs)
    assert repr(cached) == repr(reference)


def test_ni_worlds_restore_byte_identically(tree):
    """The noninterference re-run (secret-42 world) gets its own
    subtree via the world key; full NI campaigns restore identically."""
    grid = dict(seed=1, preemption_bound=1, max_schedules=10,
                check_ni=True)
    cached = unit_path_campaign(**grid)
    assert repr(cached) == repr(from_scratch_campaign(**grid))


#: (bound, max_schedules) -> (hits, misses, steps_saved, sequential
#: captures, pooled captures) of a seed-0 campaign with the full
#: battery, the same on both arches.  Hits, misses and steps saved are
#: the values of the tree that captured at every snapshot-safe
#: decision; it took 292, 1,916 and (bound 3, cap 300) 2,492 captures
#: for them.  The capture rule drops every capture no child schedule
#: can look up:
#: those of schedules at the bound, and those of schedules whose
#: children ``max_schedules`` will never run (1,400, 1,916 and 1,916
#: captures at bound 3 before that second rule).  The sequential
#: campaign pops one schedule at a time, so the cap stops its captures
#: schedule by schedule; the pooled path pops whole waves, and a wave's
#: children are cut off only when the cap falls inside that wave or
#: right behind it — at cap 100 inside the two-preemption wave.
CAPTURE_PINS = {
    (1, 600): (42, 4, 1222, 24, 24),
    (2, 600): (352, 4, 12580, 292, 292),
    (3, 100): (196, 4, 5224, 164, 292),
    (3, 300): (596, 4, 20500, 444, 1916),
    (3, 600): (1196, 4, 42574, 840, 1916),
}


@pytest.mark.parametrize("bound,cap", sorted(CAPTURE_PINS))
@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
def test_capture_rule_keeps_every_lookup(arch, bound, cap):
    """The sequential campaign's tree and the process tree of the
    pooled path's units serve the same lookups as capturing everywhere
    did, from the pinned (smaller) numbers of captures."""
    hits, misses, saved, sequential_captures, pooled_captures = \
        CAPTURE_PINS[bound, cap]
    grid = dict(seed=0, preemption_bound=bound, max_schedules=cap,
                config=ARCH_CONFIGS[arch])
    sequential = _cache_counts(lambda: interleaving_campaign(**grid))
    reset_process_tree(SnapshotTree())
    try:
        pooled = _cache_counts(lambda: unit_path_campaign(**grid))
    finally:
        reset_process_tree(None)
    served = {"hits": hits, "misses": misses, "steps_saved": saved}
    assert sequential == dict(served, captures=sequential_captures)
    assert pooled == dict(served, captures=pooled_captures)


def test_durable_units_capture_under_the_branch_bound(tmp_path):
    """The durable wave step (which the service scheduler drives too)
    hands its units the wave's branch bound: with the two-preemption
    wave cut by the cap it captures what the unit path captures."""
    hits, misses, saved, _sequential, pooled = CAPTURE_PINS[3, 100]
    reset_process_tree(SnapshotTree())
    try:
        counts = _cache_counts(lambda: run_durable_campaign(
            CampaignSpec(preemption_bound=3, max_schedules=100),
            str(tmp_path), workers=1))
    finally:
        reset_process_tree(None)
    assert counts == {"hits": hits, "misses": misses,
                      "steps_saved": saved, "captures": pooled}


@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
def test_captures_only_where_a_child_can_branch(arch):
    """Every schedule of a bound-2 campaign, run alone on an empty
    tree: one at the bound captures nothing, and one below it keys no
    node at or before its last preemption."""
    config = ARCH_CONFIGS[arch]
    result = from_scratch_campaign(preemption_bound=2, check_ni=False,
                                   config=config)
    prototype = build_interleaved_world(config=config)
    captured = 0
    for schedule, _run in result.runs:
        tree = SnapshotTree()
        execute_interleaved(*prototype, schedule, tree=tree,
                            world_key="world", preemption_bound=2)
        depths = [len(prefix) for _world, prefix in tree.nodes]
        if len(schedule.preemptions) >= 2:
            assert depths == [], schedule.describe()
            continue
        last = (schedule.preemptions[-1][0] if schedule.preemptions
                else -1)
        assert all(depth > last for depth in depths), schedule.describe()
        captured += len(depths)
    assert captured > 0


def test_sequential_campaign_tree_lives_only_as_long_as_the_campaign(
        monkeypatch):
    """The sequential campaign builds one tree of its own: it leaves
    the process tree and its ``bytes_resident`` gauge untouched, and
    its tree is unreachable once the campaign returns."""
    made = []

    class Recorded(SnapshotTree):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    installed = SnapshotTree()
    reset_process_tree(installed)
    monkeypatch.setattr(snapshot, "SnapshotTree", Recorded)
    REGISTRY.set_gauge("snapshot_cache.bytes_resident", -1.0)
    try:
        counts = _cache_counts(lambda: interleaving_campaign(
            seed=0, preemption_bound=1, max_schedules=12))
    finally:
        reset_process_tree(None)
    assert counts["captures"] > 0 and counts["hits"] > 0
    assert not installed.nodes and not installed.traces
    assert REGISTRY.snapshot()["gauges"][
        "snapshot_cache.bytes_resident"] == -1.0
    assert len(made) == 1
    gc.collect()
    assert made[0]() is None


def test_counters_surface_in_render_metrics(tree):
    """The snapshot-cache counter group flows through the registry into
    the rendered metrics table (and hence the daemon's ``/metrics``)."""
    unit_path_campaign(seed=0, preemption_bound=1, **GRID)
    table = render_metrics(REGISTRY.snapshot())
    for name in ("snapshot_cache.hits", "snapshot_cache.misses",
                 "snapshot_cache.steps_saved",
                 "snapshot_cache.completion_hits",
                 "snapshot_cache.completion_misses",
                 "snapshot_cache.decisions_spliced",
                 "snapshot_cache.bytes_resident"):
        assert name in table
    assert REGISTRY.snapshot()["gauges"][
        "snapshot_cache.bytes_resident"] == tree.bytes_resident > 0


def test_locality_key_groups_subtrees():
    """Schedules sharing a first preemption (one subtree) share a shard
    key; different heads, seeds, or crash plans split."""
    from repro.concurrency import Schedule

    root = Schedule(seed=3)
    child = Schedule(seed=3, preemptions=((4, 1),))
    grandchild = Schedule(seed=3, preemptions=((4, 1), (9, 0)))
    assert locality_key(child) == locality_key(grandchild)
    assert locality_key(root) != locality_key(child)
    assert locality_key(child) != locality_key(
        Schedule(seed=3, preemptions=((5, 1),)))
    assert locality_key(child) != locality_key(
        Schedule(seed=4, preemptions=((4, 1),)))
    assert locality_key(child) != locality_key(
        Schedule(seed=3, preemptions=((4, 1),), crash=(0, 2)))
