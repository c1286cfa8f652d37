"""Prefix-sharing execution cache: equivalence, eviction, metrics.

The snapshot tree's one hard guarantee mirrors the fabric's: a
campaign run through restored snapshots is **byte-identical**
(``repr``-equal) to the untouched legacy from-scratch path — at any
cache capacity, including a budget of zero and a single-node LRU that
evicts on every insert.  Hypothesis drives random (seed, preemption
bound, fault plan) configurations through both paths; the directed
tests pin the cache actually *working* (hits, suffix steps saved) and
its counters surfacing through the metrics registry.

Everything here runs in-process (``workers=1``) so the tests control
the process-local tree directly via
:func:`~repro.concurrency.snapshot.reset_process_tree`.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.concurrency.snapshot import (
    SnapshotTree,
    locality_key,
    process_tree,
    reset_process_tree,
)
from repro.engine.campaigns import parallel_interleaving_campaign
from repro.obs.metrics import REGISTRY
from repro.reporting.tables import render_metrics

GRID = dict(max_schedules=12, check_ni=False, workers=1)


@pytest.fixture
def tree():
    """Install a fresh default-budget process tree; always uninstall."""
    fresh = SnapshotTree()
    reset_process_tree(fresh)
    yield fresh
    reset_process_tree(None)


def _both(tree_kwargs=None, **grid):
    """One campaign through a fresh tree and one through the legacy
    path; returns (cached_repr, legacy_repr, tree, counter_delta)."""
    reset_process_tree(SnapshotTree(**(tree_kwargs or {})))
    try:
        before = REGISTRY.snapshot()
        cached = parallel_interleaving_campaign(prefix_cache=True,
                                                **grid)
        delta = REGISTRY.delta(before)["counters"]
        installed = process_tree()
        legacy = parallel_interleaving_campaign(prefix_cache=False,
                                                **grid)
        return repr(cached), repr(legacy), installed, delta
    finally:
        reset_process_tree(None)


@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_random_configs_restore_byte_identically(data):
    """Random (seed, bound, fault plan): snapshot-restored campaigns
    repr-match the from-scratch legacy path."""
    seed = data.draw(st.integers(0, 4), label="seed")
    bound = data.draw(st.integers(1, 2), label="preemption_bound")
    crash = data.draw(
        st.one_of(st.none(),
                  st.tuples(st.integers(0, 1), st.integers(1, 6))),
        label="crash")
    cached, legacy, _tree, _delta = _both(
        seed=seed, preemption_bound=bound, crash=crash, **GRID)
    assert cached == legacy


@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_forced_eviction_preserves_equivalence(data):
    """Capacity 0 (nothing ever cached) and a 1-node LRU (evicts on
    nearly every insert) both stay byte-identical — eviction can cost
    speed, never correctness."""
    seed = data.draw(st.integers(0, 3), label="seed")
    kwargs = data.draw(st.sampled_from(
        [{"budget_bytes": 0}, {"max_nodes": 1}]), label="capacity")
    cached, legacy, tree, delta = _both(
        tree_kwargs=kwargs, seed=seed, preemption_bound=1, **GRID)
    assert cached == legacy
    if kwargs.get("budget_bytes") == 0:
        assert delta["snapshot_cache.hits"] == 0
        assert delta["snapshot_cache.captures"] == 0
    else:
        assert len(tree.nodes) <= 1
        assert delta["snapshot_cache.evictions"] > 0


def test_cache_hits_and_saves_suffix_steps():
    """Under the default budget the tree actually serves: most lookups
    hit and whole prefixes of scheduler decisions are skipped."""
    cached, legacy, tree, delta = _both(seed=0, preemption_bound=1,
                                        **GRID)
    assert cached == legacy
    hits = delta["snapshot_cache.hits"]
    misses = delta["snapshot_cache.misses"]
    assert hits > 0 and hits / (hits + misses) > 0.5
    assert delta["snapshot_cache.steps_saved"] > 0
    assert delta["snapshot_cache.cow_shared"] > 0
    assert tree.bytes_resident > 0


def test_ni_worlds_restore_byte_identically(tree):
    """The noninterference re-run (secret-42 world) gets its own
    subtree via the world key; full NI campaigns restore identically."""
    grid = dict(seed=1, preemption_bound=1, max_schedules=10,
                check_ni=True, workers=1)
    cached = parallel_interleaving_campaign(prefix_cache=True, **grid)
    legacy = parallel_interleaving_campaign(prefix_cache=False, **grid)
    assert repr(cached) == repr(legacy)


def test_counters_surface_in_render_metrics(tree):
    """The snapshot-cache counter group flows through the registry into
    the rendered metrics table (and hence the daemon's ``/metrics``)."""
    parallel_interleaving_campaign(prefix_cache=True, seed=0,
                                   preemption_bound=1, **GRID)
    table = render_metrics(REGISTRY.snapshot())
    for name in ("snapshot_cache.hits", "snapshot_cache.misses",
                 "snapshot_cache.steps_saved",
                 "snapshot_cache.bytes_resident"):
        assert name in table


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
