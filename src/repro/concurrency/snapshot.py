"""Prefix-sharing execution cache: the snapshot tree.

Bounded-preemption BFS schedules share prefixes almost entirely — a
child schedule is its parent plus one forced preemption, so everything
before the preemption re-executes identically (execution is a pure
function of the :class:`~repro.concurrency.scheduler.Schedule`).  This
module caches that shared work: a **snapshot tree** whose nodes hold
frozen :class:`~repro.security.state.SystemState` forks captured at
scheduling decision points, keyed by ``(world key, trace prefix)``.
Running a child schedule restores its deepest cached ancestor through
the structured clone layer and executes only the suffix.

Correctness rests on three properties:

* **Snapshot-safe decision points.**  A node is taken only when every
  live vCPU is parked in its scheduler driver, with an empty stack
  under it, and no lock is held anywhere.  The driver's parks are the
  ``step`` yield, each ``lock.acquire`` of the step's declared lock
  plan, and ``hc.return`` (see
  :class:`~repro.concurrency.scheduler.DeterministicScheduler`); a
  task that has not started yet sits at ``task.start``.  A task parked
  there is its script position plus that park, and a restored task
  resumes its driver just past the park its ``pending_kind`` names:
  nothing re-executes and nothing is counted twice.  With no lock
  held, a ``lock.acquire`` park is the plan's first and no
  transaction is open.  Parks at ``phys.write``/``shootdown.ipi`` sit
  inside a hypercall body, with a stack and an open transaction whose
  journal and structure snapshots cannot be re-seeded soundly, and
  stay ineligible.
* **Deterministic prefix prediction.**  A child's trace prefix equals
  its parent's trace up to the forced decision plus the forced vid, so
  a side index of recorded traces keyed by ``(world key, preemptions)``
  predicts the child's prefix without running anything.
* **Copy-on-write structure sharing.**  The version-counted structures
  (``phys``, ``frames``, ``epcm``) carry monotone mutation counters;
  consecutive captures in one run share the previous node's cloned
  structure by reference when the counter did not move.  Safe because
  node states are frozen — only ever used as clone sources.

Only captures a child can look up are taken.  A child branches at or
after :func:`~repro.concurrency.explorer.first_branch_index` of its
parent — the decision after the parent's last preemption — and a
schedule at the campaign's preemption bound has no children; nor does
one whose children the campaign's ``max_schedules`` will never run
(:meth:`~repro.concurrency.explorer.FrontierState.branch_bound` hands
it a bound of 0).  A capture anywhere else is either keyed by a prefix
an ancestor's run already offered or never looked up, so
:class:`SnapshotPlan` skips those decisions before doing any other
work.  When every ancestor ran in the same tree (the sequential
campaign, a one-worker pool), hits, misses and decisions saved are
exactly those of capturing at every safe decision, and at bound 2 the
captures fall from 1,916 to 292 per campaign.  In a larger pool the
root schedule runs on one worker only, so a few children of
one-preemption schedules on the other workers restore a shallower node
or none (bound 2, two workers: 324 hits instead of 332), and a process
tree that outlives its campaigns no longer keeps the nodes only a
later campaign would look up.

Memory is bounded by an LRU byte budget (``REPRO_SNAPSHOT_BUDGET_MB``,
default 256).  Every bounded campaign runs through a tree.  The
sequential :func:`~repro.faults.campaign.interleaving_campaign` owns
one that lives only as long as the campaign.  Pooled, durable and
service campaigns use the **process tree** (:func:`process_tree`),
which is process-local by design: pool workers fork with an empty tree
and warm it across waves; a durable campaign resumed after ``kill -9``
starts new workers whose trees are rebuilt from live execution, so
pre-crash snapshots are structurally impossible to reuse.  Runs with no
campaign bound — single-schedule ``replay``, provenance bundles, the
crash-in-critical-section sweep — capture nothing, and
:func:`~repro.faults.campaign.execute_interleaved` runs each of them
from a plain prototype clone.
"""

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.concurrency import scheduler as conc
from repro.concurrency.explorer import first_branch_index
from repro.obs.metrics import REGISTRY

#: The scheduler driver's own parks (plus ``task.start``, before a
#: task's driver has run): the yield kinds with no stack under them,
#: where a vCPU's continuation is its script position plus the park.
SAFE_PARK_KINDS = frozenset({"task.start", "step", "lock.acquire",
                             "hc.return"})

ENV_BUDGET = "REPRO_SNAPSHOT_BUDGET_MB"
DEFAULT_BUDGET_MB = 256.0

#: Recorded parent traces kept for prefix prediction (tiny tuples; a
#: FIFO cap keeps unbounded campaigns bounded).
TRACE_CAP = 100_000


def snapshot_budget_bytes() -> int:
    """The LRU byte budget from ``REPRO_SNAPSHOT_BUDGET_MB``."""
    env = os.environ.get(ENV_BUDGET)
    if env is None or not env.strip():
        mb = DEFAULT_BUDGET_MB
    else:
        try:
            mb = float(env)
        except ValueError:
            raise ValueError(
                f"{ENV_BUDGET}={env!r} is not a number of megabytes")
    return max(0, int(mb * 1024 * 1024))


def locality_key(schedule) -> str:
    """Shard key that co-locates one preemption subtree on one worker.

    Every descendant of a first preemption ``(index, vid)`` keeps that
    head, so sharding by (seed, crash, head) sends each subtree — the
    schedules that actually share prefixes — to the same worker, where
    the process-local tree can serve them.  Distinct heads spread over
    the pool, so parallelism is preserved.  Merge order stays by unit
    index, so campaign results are byte-identical to any other keying.
    """
    head = schedule.preemptions[0] if schedule.preemptions else None
    return f"seed={schedule.seed} crash={schedule.crash} head={head}"


@dataclass(frozen=True)
class TaskMeta:
    """One vCPU's restart coordinates inside a snapshot node.

    ``position`` is the script step the task was in when captured and
    ``pending_kind`` the driver park it waits at; ``waiting_lock``
    re-seeds the runnability test so a restored blocked task cannot be
    picked into a contended acquire.
    """

    vid: int
    position: int                      # script step the task is in
    pending_kind: str
    pending_detail: Optional[str]
    yield_index: int
    done: bool
    parked: bool
    crashed: bool
    exc: Optional[BaseException]
    waiting_lock: Optional[str] = None


class SnapshotNode:
    """A frozen mid-execution world plus everything needed to resume.

    ``state`` is only ever used as a clone source; the cached prefix
    records (decisions, yields, stale findings, lock violations) are
    seeded into the resuming scheduler so its :class:`RunResult` is
    byte-identical to a from-scratch run.
    """

    __slots__ = ("state", "versions", "metas", "decisions", "yields",
                 "stale", "lock_violations", "last", "depth", "nbytes")

    def __init__(self, state, versions, metas, decisions, yields, stale,
                 lock_violations, last, nbytes):
        self.state = state
        self.versions = versions
        self.metas = metas
        self.decisions = decisions
        self.yields = yields
        self.stale = stale
        self.lock_violations = lock_violations
        self.last = last
        self.depth = len(decisions)
        self.nbytes = nbytes

    def positions(self):
        return [meta.position for meta in self.metas]

    def apply_to(self, sched):
        """Seed a fresh scheduler with this node's cached prefix."""
        sched.decisions = list(self.decisions)
        sched.yields = list(self.yields)
        sched.stale = list(self.stale)
        sched.locks.violations = list(self.lock_violations)
        sched._last = self.last
        for task, meta in zip(sched.tasks, self.metas):
            task.pending_kind = meta.pending_kind
            task.pending_detail = meta.pending_detail
            task.yield_index = meta.yield_index
            task.done = meta.done
            task.parked = meta.parked
            task.crashed = meta.crashed
            task.exc = meta.exc
            task.waiting_lock = meta.waiting_lock


class SnapshotTree:
    """LRU byte-budgeted store of :class:`SnapshotNode` plus the
    parent-trace side index used for prefix prediction.

    ``max_nodes`` is a test knob forcing tiny capacities (the
    equivalence suite runs at capacity 0 and 1)."""

    def __init__(self, budget_bytes: Optional[int] = None,
                 max_nodes: Optional[int] = None):
        self.budget = (snapshot_budget_bytes()
                       if budget_bytes is None else int(budget_bytes))
        self.max_nodes = max_nodes
        self.nodes: "OrderedDict[tuple, SnapshotNode]" = OrderedDict()
        self.traces: "OrderedDict[tuple, Tuple[int, ...]]" = OrderedDict()
        self.bytes_resident = 0
        self.stats = REGISTRY.counter_group(
            "snapshot_cache",
            ("hits", "misses", "evictions", "captures", "steps_saved",
             "cow_shared"))

    @property
    def capacity_disabled(self) -> bool:
        return self.budget <= 0 or self.max_nodes == 0

    # -- lookup ---------------------------------------------------------------

    def _predicted_prefix(self, world_key, schedule):
        if not schedule.preemptions:
            return None
        index, vid = schedule.preemptions[-1]
        parent = self.traces.get((world_key, schedule.preemptions[:-1]))
        if parent is None or len(parent) < index:
            return None
        return parent[:index] + (vid,)

    def lookup(self, world_key, schedule) -> Optional[SnapshotNode]:
        """The deepest cached ancestor consistent with ``schedule``'s
        predicted trace prefix, or None (counted as hit/miss)."""
        predicted = self._predicted_prefix(world_key, schedule)
        if predicted:
            for depth in range(len(predicted), 0, -1):
                key = (world_key, predicted[:depth])
                node = self.nodes.get(key)
                if node is not None:
                    self.nodes.move_to_end(key)
                    self.stats["hits"] += 1
                    self.stats["steps_saved"] += node.depth
                    return node
        self.stats["misses"] += 1
        return None

    def record_trace(self, world_key, schedule, trace):
        """Remember an executed schedule's vid-trace (the side index
        that lets :meth:`lookup` predict a child schedule's prefix)."""
        key = (world_key, schedule.preemptions)
        self.traces[key] = trace
        self.traces.move_to_end(key)
        while len(self.traces) > TRACE_CAP:
            self.traces.popitem(last=False)

    # -- insertion / eviction -------------------------------------------------

    def insert(self, key, node):
        """Add a captured node, evicting least-recently-used nodes
        until the byte budget (and ``max_nodes``, if set) is met.

        Only the process tree publishes the
        ``snapshot_cache.bytes_resident`` gauge: a campaign's own tree
        must not overwrite what ``/metrics`` reports for the memory the
        process keeps."""
        if self.capacity_disabled:
            return
        self.nodes[key] = node
        self.bytes_resident += node.nbytes
        self.stats["captures"] += 1
        while self.nodes and (
                self.bytes_resident > self.budget
                or (self.max_nodes is not None
                    and len(self.nodes) > self.max_nodes)):
            _, evicted = self.nodes.popitem(last=False)
            self.bytes_resident -= evicted.nbytes
            self.stats["evictions"] += 1
        if self is _PROCESS_TREE:
            REGISTRY.set_gauge("snapshot_cache.bytes_resident",
                               float(self.bytes_resident))


class SnapshotPlan:
    """The capture policy for one scheduled run.

    Installed as ``DeterministicScheduler.snapshots``; offered the
    frozen world right before every scheduling decision (both the
    loop's and the inline ones).  ``preemption_bound`` is the bound
    under which the schedule's children can run — the campaign's, or
    0 when ``max_schedules`` ends the sweep first
    (:meth:`~repro.concurrency.explorer.FrontierState.branch_bound`):
    the plan captures only from
    :func:`~repro.concurrency.explorer.first_branch_index` of
    ``schedule`` on (nowhere when the schedule is at the bound), and
    there only at snapshot-safe decisions — at least two live vCPUs,
    every live vCPU at a snapshot-safe park, no lock held.  It dedups
    by node key *before* cloning, so re-executed shared prefixes cost a
    dict probe, not a clone.
    """

    __slots__ = ("tree", "world_key", "state", "workloads", "first",
                 "_prev")

    def __init__(self, tree, world_key, state, workloads, schedule,
                 preemption_bound: int,
                 resumed_from: Optional[SnapshotNode] = None):
        self.tree = tree
        self.world_key = world_key
        self.state = state
        self.workloads = workloads
        self.first = first_branch_index(schedule, preemption_bound)
        self._prev = resumed_from

    def offer(self, sched):
        """Capture the scheduler's state at the current decision point
        if a child can branch here and the point is snapshot-safe
        (called by the scheduler before every pick); every other point
        is skipped for free."""
        index = len(sched.decisions)
        first = self.first
        if first is None or index < first or index == 0:
            # no child of this schedule branches here, so no lookup
            # can reach a node keyed here that an ancestor's run did
            # not already capture; and the initial state is the world
            # prototype, which a node would not improve on
            return
        tree = self.tree
        if tree.capacity_disabled:
            return
        live = 0
        for task in sched.tasks:
            if task.done:
                continue
            live += 1
            if task.pending_kind not in SAFE_PARK_KINDS:
                return
        if live < 2 or sched.locks.any_held():
            # a single live vCPU can never branch; a held lock is part
            # of a plan mid-acquire or a hypercall mid-flight, which a
            # node does not re-seed
            return
        prefix = tuple(d.chosen for d in sched.decisions)
        key = (self.world_key, prefix)
        existing = tree.nodes.get(key)
        if existing is not None:
            # an earlier run of this prefix captured the identical
            # state (deterministic execution); adopt it as the COW
            # donor so this run's later captures share with it
            tree.nodes.move_to_end(key)
            self._prev = existing
            return
        tree.insert(key, self._capture(sched))

    def _capture(self, sched) -> SnapshotNode:
        from repro.engine.fingerprint import (
            structure_versions,
            warm_fingerprints,
        )

        monitor = self.state.monitor
        versions = structure_versions(monitor)
        reuse = {}
        prev = self._prev
        if prev is not None:
            donor = prev.state.monitor
            for name, attr in (("phys", "phys"),
                               ("frames", "pt_allocator"),
                               ("epcm", "epcm")):
                if prev.versions.get(name) == versions[name]:
                    reuse[attr] = getattr(donor, attr)
        with conc.suspended():
            # the node and the live run both inherit the warm digests,
            # so neither re-hashes what was written before this point
            warm_fingerprints(monitor)
            frozen = self.state.clone(reuse=reuse or None)
        if reuse:
            self.tree.stats["cow_shared"] += len(reuse)
        metas = tuple(self._task_meta(task) for task in sched.tasks)
        node = SnapshotNode(
            state=frozen, versions=versions, metas=metas,
            decisions=tuple(sched.decisions),
            yields=tuple(sched.yields),
            stale=tuple(sched.stale),
            lock_violations=tuple(sched.locks.violations),
            last=sched._last,
            nbytes=_estimate_bytes(frozen, sched, reuse))
        self._prev = node
        return node

    def _task_meta(self, task) -> TaskMeta:
        return TaskMeta(
            vid=task.vid, position=self.workloads.positions[task.vid],
            pending_kind=task.pending_kind,
            pending_detail=task.pending_detail,
            yield_index=task.yield_index,
            done=task.done, parked=task.parked,
            crashed=task.crashed, exc=task.exc,
            waiting_lock=task.waiting_lock)


def _estimate_bytes(state, sched, reuse) -> int:
    """Deterministic byte estimate of one node (shared structures are
    charged to the node that owns them)."""
    monitor = state.monitor
    total = 8192
    if "phys" not in reuse:
        total += 96 * monitor.phys.nonzero_words()
    if "pt_allocator" not in reuse:
        total += monitor.pt_allocator.size
    if "epcm" not in reuse:
        total += 120 * len(monitor.epcm._entries)
    total += 256 * len(monitor.enclaves)
    total += 512 * len(monitor.cpus)
    total += 48 * (len(sched.decisions) + len(sched.yields))
    return total


# ---------------------------------------------------------------------------
# The per-process tree (worker-local by construction)
# ---------------------------------------------------------------------------

_PROCESS_TREE: Optional[SnapshotTree] = None


def process_tree() -> SnapshotTree:
    """This process's snapshot tree (created on first use).

    Pool workers fork before their first unit, so each starts with
    whatever the parent had — normally nothing — and warms its own tree
    across the waves it serves.  A process restarted after a crash
    necessarily starts empty: the durable-resume rebuild rule is
    structural, not a protocol.
    """
    global _PROCESS_TREE
    if _PROCESS_TREE is None:
        _PROCESS_TREE = SnapshotTree()
    return _PROCESS_TREE


def reset_process_tree(tree: Optional[SnapshotTree] = None):
    """Replace (or clear) the process tree — test and bench hook."""
    global _PROCESS_TREE
    _PROCESS_TREE = tree


__all__ = [
    "SAFE_PARK_KINDS", "ENV_BUDGET",
    "TaskMeta", "SnapshotNode", "SnapshotTree",
    "SnapshotPlan",
    "snapshot_budget_bytes", "locality_key", "process_tree",
    "reset_process_tree",
]
