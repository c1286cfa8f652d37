"""Prefix-sharing execution cache: the snapshot tree.

Bounded-preemption BFS schedules share prefixes almost entirely — a
child schedule is its parent plus one forced preemption, so everything
before the preemption re-executes identically (execution is a pure
function of the :class:`~repro.concurrency.scheduler.Schedule`).  This
module caches that shared work: a **snapshot tree** whose nodes hold
frozen :class:`~repro.security.state.SystemState` forks captured at
scheduling decision points, keyed by ``(world key, trace prefix)``.
Running a child schedule restores its deepest cached ancestor through
the structured clone layer and executes only the suffix.  What is left
of a leaf schedule — one no child branches from — converges on states
earlier runs already ran to the end, so the tree also keeps
**completions**: how a leaf run went on from a driver park to its end,
keyed by ``(world key, resume key)``.  A later leaf run that parks in
an equal state takes that run's records and frozen final state and
stops.

Correctness rests on four properties:

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
* **Shared values.**  Every structure but physical memory holds an
  immutable value that a mutation replaces, so a node's clone shares
  with the live run, and with every earlier node of the run, each
  value that has not changed since — and the fingerprint kept on it —
  and physical memory shares its word tuples.  Safe because node
  states are frozen — only ever used as clone sources.
* **Determinism past the last forced preemption.**  Once
  ``len(decisions)`` passes a schedule's last forced preemption, every
  pick continues the running vCPU or the lowest enabled one.  The rest
  of the run is then a function of the state, of every vCPU's script
  position and scheduling state, and of the last pick, which
  :func:`resume_key` covers at each driver park with no lock held:
  every field of the monitor and of the state, with ``config``,
  ``layout`` and the oracle's values fixed per world
  (:func:`static_key`).  Two parks with equal keys append equal
  records and end in equal states, up to each decision's index, which
  a splice shifts.  A run whose monitor or state carries a field no
  key covers, or that runs under a fault plane, keys nothing.

Only leaf runs key parks.  A run with children has to execute its
suffix, because that is where it captures the nodes its children
restore; a leaf run captures nothing, so splicing it leaves captures,
hits, misses and decisions saved exactly as they were.  A leaf run
notes every key it misses and, when it ends, publishes one
:class:`Completion` per noted key, all sharing one :class:`RunTail`
and one frozen final state per distinct final content
(:meth:`SnapshotTree.intern_final`).  Completions share the nodes' byte
budget and ``max_nodes`` and are evicted first.

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
campaign, or the durable wave step's units in one process), hits,
misses and decisions saved are
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
one that lives only as long as the campaign.  Durable and service
campaigns, the pooled path, run their units
(:func:`~repro.engine.workers.run_interleaving_unit`) through the
**process tree** (:func:`process_tree`), which is process-local by
design: pool workers fork with an empty tree and warm it across waves;
a durable campaign resumed after ``kill -9`` starts new workers whose
trees are rebuilt from live execution, so pre-crash snapshots are
structurally impossible to reuse.  Runs with no campaign bound — a
single schedule re-run on its own, provenance bundles, the
crash-in-critical-section sweep — capture nothing, and
:func:`~repro.faults.campaign.execute_interleaved` runs each of them
from a plain prototype clone.
"""

import os
import weakref
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
    records (decisions, their trace, yields, stale findings, lock
    violations) are seeded into the resuming scheduler so its
    :class:`RunResult` is byte-identical to a from-scratch run.  The
    trace is the prefix the node is keyed by.
    """

    __slots__ = ("state", "metas", "decisions", "trace", "yields",
                 "stale", "lock_violations", "last", "depth", "nbytes")

    def __init__(self, state, metas, decisions, trace, yields, stale,
                 lock_violations, last, nbytes):
        self.state = state
        self.metas = metas
        self.decisions = decisions
        self.trace = trace
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
        sched.trace = list(self.trace)
        sched.yields = list(self.yields)
        sched.stale = list(self.stale)
        sched.locks.violations = list(self.lock_violations)
        sched._last = self.last
        _seed_tasks(sched, self.metas)


class RunTail:
    """The end of one leaf run, from its first resume key on: the
    records it appended from there (the trace beside the decisions),
    every vCPU's final :class:`TaskMeta`, and the frozen final state
    (interned by :meth:`SnapshotTree.intern_final`).  Shared by every
    :class:`Completion` of the run."""

    __slots__ = ("decisions", "trace", "yields", "stale",
                 "lock_violations", "metas", "final")

    def __init__(self, decisions, trace, yields, stale, lock_violations,
                 metas, final):
        self.decisions = decisions
        self.trace = trace
        self.yields = yields
        self.stale = stale
        self.lock_violations = lock_violations
        self.metas = metas
        self.final = final


class Completion:
    """How a leaf run went on to its end from one resume key: offsets
    into its :class:`RunTail`, and ``index``, the number of decisions
    made before the key."""

    __slots__ = ("tail", "index", "decisions", "yields", "stale",
                 "lock_violations", "nbytes")

    def __init__(self, tail, index, decisions, yields, stale,
                 lock_violations, nbytes):
        self.tail = tail
        self.index = index
        self.decisions = decisions
        self.yields = yields
        self.stale = stale
        self.lock_violations = lock_violations
        self.nbytes = nbytes

    @property
    def length(self) -> int:
        """Decisions this completion supplies."""
        return len(self.tail.decisions) - self.decisions

    def apply_to(self, sched):
        """End ``sched``'s run with this suffix: its records appended
        (decisions re-indexed from ``len(sched.decisions)``) and every
        task in its final state."""
        tail = self.tail
        decisions = tail.decisions[self.decisions:]
        shift = len(sched.decisions) - self.index
        if shift:
            decisions = [d._replace(index=d.index + shift)
                         for d in decisions]
        sched.decisions.extend(decisions)
        sched.trace.extend(tail.trace[self.decisions:])
        sched.yields.extend(tail.yields[self.yields:])
        sched.stale.extend(tail.stale[self.stale:])
        sched.locks.violations.extend(
            tail.lock_violations[self.lock_violations:])
        _seed_tasks(sched, tail.metas)


def _seed_tasks(sched, metas):
    """Put every task of ``sched`` in the scheduling state its
    :class:`TaskMeta` records."""
    for task, meta in zip(sched.tasks, metas):
        task.pending_kind = meta.pending_kind
        task.pending_detail = meta.pending_detail
        task.yield_index = meta.yield_index
        task.done = meta.done
        task.parked = meta.parked
        task.crashed = meta.crashed
        task.exc = meta.exc
        task.waiting_lock = meta.waiting_lock


class SnapshotTree:
    """LRU byte-budgeted store of :class:`SnapshotNode` and
    :class:`Completion` plus the parent-trace side index used for
    prefix prediction.

    ``nodes`` are keyed by ``(world key, trace prefix)``,
    ``completions`` by ``(world key, resume key)``; both share the byte
    budget and ``max_nodes``, and completions are evicted first (one
    serves a single leaf run's suffix, a node every child's prefix).
    ``max_nodes`` is a test knob forcing tiny capacities (the
    equivalence suite runs at capacity 0 and 1)."""

    def __init__(self, budget_bytes: Optional[int] = None,
                 max_nodes: Optional[int] = None):
        self.budget = (snapshot_budget_bytes()
                       if budget_bytes is None else int(budget_bytes))
        self.max_nodes = max_nodes
        self.nodes: "OrderedDict[tuple, SnapshotNode]" = OrderedDict()
        self.completions: "OrderedDict[tuple, Completion]" = OrderedDict()
        # frozen final states by content, alive while a completion
        # holds them (so equal ends of many runs are one clone source)
        self.finals = weakref.WeakValueDictionary()
        self.statics: Dict[tuple, tuple] = {}
        self.traces: "OrderedDict[tuple, Tuple[int, ...]]" = OrderedDict()
        self.bytes_resident = 0
        self.stats = REGISTRY.counter_group(
            "snapshot_cache",
            ("hits", "misses", "evictions", "captures", "steps_saved",
             "completion_hits", "completion_misses", "decisions_spliced"))

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
        self._shrink()

    def publish(self, key, completion):
        """Add a leaf run's :class:`Completion` under ``key``, evicting
        like :meth:`insert`."""
        if self.capacity_disabled:
            return
        self.completions[key] = completion
        self.bytes_resident += completion.nbytes
        self._shrink()

    def _shrink(self):
        """Evict least-recently-used entries, completions first, until
        the byte budget and ``max_nodes`` hold."""
        while self.bytes_resident > self.budget or (
                self.max_nodes is not None
                and len(self.nodes) + len(self.completions)
                > self.max_nodes):
            table = self.completions or self.nodes
            if not table:
                break
            _, evicted = table.popitem(last=False)
            self.bytes_resident -= evicted.nbytes
            self.stats["evictions"] += 1
        if self is _PROCESS_TREE:
            REGISTRY.set_gauge("snapshot_cache.bytes_resident",
                               float(self.bytes_resident))

    def intern_final(self, world_key, static, state):
        """The frozen clone of a leaf run's final ``state`` shared by
        every run of the world that ended in the same content, and
        whether this call made it."""
        key = (world_key, static, state_key(state))
        frozen = self.finals.get(key)
        if frozen is not None:
            return frozen, False
        frozen = self.finals[key] = state.clone()
        return frozen, True


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

    A plan that never captures (a leaf run) ``completes`` instead,
    unless :func:`static_key` refuses the run: the scheduler asks
    :meth:`resume` for a completion at each driver park past the last
    forced preemption, and the caller hands the finished scheduler to
    :meth:`finish`.
    """

    __slots__ = ("tree", "world_key", "state", "workloads", "first",
                 "completes", "_static", "_noted", "_hit")

    def __init__(self, tree, world_key, state, workloads, schedule,
                 preemption_bound: int):
        self.tree = tree
        self.world_key = world_key
        self.state = state
        self.workloads = workloads
        self.first = first_branch_index(schedule, preemption_bound)
        self._static = None
        if self.first is None and not tree.capacity_disabled:
            static = static_key(state, schedule)
            if static is not None:
                # one copy per distinct world, shared by all its keys
                self._static = tree.statics.setdefault(static, static)
        self.completes = self._static is not None
        self._noted = []
        self._hit: Optional[Completion] = None

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
        if sum(not task.done for task in sched.tasks) < 2 \
                or not _parked_in_drivers(sched):
            # a single live vCPU can never branch
            return
        prefix = tuple(sched.trace)
        key = (self.world_key, prefix)
        if key in tree.nodes:
            # an earlier run of this prefix captured the identical
            # state (deterministic execution)
            tree.nodes.move_to_end(key)
            return
        tree.insert(key, self._capture(sched, prefix))

    def resume(self, sched) -> Optional[Completion]:
        """At a driver park of a leaf run past its last forced
        preemption (called by the scheduler's ``_emit``): the
        completion an earlier run of the world published for this
        exact resume key, or None, noting the key for :meth:`finish`.
        Only a snapshot-safe point is keyed."""
        if not _parked_in_drivers(sched):
            return None
        key = resume_key(sched, self.state, self.workloads.positions)
        if key is None:
            return None
        key = (self.world_key, self._static, key)
        tree = self.tree
        completion = tree.completions.get(key)
        if completion is None:
            self._noted.append((key, len(sched.decisions),
                                len(sched.yields), len(sched.stale),
                                len(sched.locks.violations)))
            return None
        tree.completions.move_to_end(key)
        tree.stats["completion_hits"] += 1
        tree.stats["decisions_spliced"] += completion.length
        self._hit = completion
        return completion

    def finish(self, sched):
        """After the run: publish a :class:`Completion` for every key
        the run noted, and return the state it ended in — the live
        state, or for a spliced run a clone of the frozen final state
        it took over."""
        hit, noted = self._hit, self._noted
        if hit is None and not noted:
            return self.state
        tree = self.tree
        if hit is None:
            tree.stats["completion_misses"] += 1
            final, fresh = tree.intern_final(self.world_key, self._static,
                                             self.state)
            metas = tuple(self._task_meta(task) for task in sched.tasks)
        else:
            final, fresh = hit.tail.final, False
            metas = hit.tail.metas
        if noted:
            _key, d0, y0, s0, v0 = noted[0]
            tail = RunTail(tuple(sched.decisions[d0:]),
                           tuple(sched.trace[d0:]),
                           tuple(sched.yields[y0:]),
                           tuple(sched.stale[s0:]),
                           tuple(sched.locks.violations[v0:]),
                           metas, final)
            for key, d, y, s, v in noted:
                nbytes = COMPLETION_BYTES + 48 * (
                    len(tail.decisions) - (d - d0)
                    + len(tail.yields) - (y - y0))
                if fresh:
                    # the final state is charged to the first completion
                    # that holds it
                    nbytes += _state_bytes(final)
                    fresh = False
                tree.publish(key, Completion(tail, d, d - d0, y - y0,
                                             s - s0, v - v0, nbytes))
        return self.state if hit is None else final.clone()

    def _capture(self, sched, trace) -> SnapshotNode:
        with conc.suspended():
            frozen = self.state.clone()
        return SnapshotNode(
            state=frozen,
            metas=tuple(self._task_meta(task) for task in sched.tasks),
            decisions=tuple(sched.decisions),
            trace=trace,
            yields=tuple(sched.yields),
            stale=tuple(sched.stale),
            lock_violations=tuple(sched.locks.violations),
            last=sched._last,
            nbytes=_state_bytes(frozen) + 48 * (len(sched.decisions)
                                                + len(sched.yields)))

    def _task_meta(self, task) -> TaskMeta:
        return TaskMeta(
            vid=task.vid, position=self.workloads.positions[task.vid],
            pending_kind=task.pending_kind,
            pending_detail=task.pending_detail,
            yield_index=task.yield_index,
            done=task.done, parked=task.parked,
            crashed=task.crashed, exc=task.exc,
            waiting_lock=task.waiting_lock)


def _parked_in_drivers(sched) -> bool:
    """A snapshot-safe point: every live vCPU parked in its driver, no
    lock held (a held lock is part of a plan mid-acquire or a hypercall
    mid-flight), and no step unwinding an exception through its
    ``hc.return`` park (the task goes on to re-raise, not to its next
    step).  Nodes and resume keys re-seed none of those."""
    if sched.locks.any_held() or sched._unwinding:
        return False
    for task in sched.tasks:
        if not task.done and task.pending_kind not in SAFE_PARK_KINDS:
            return False
    return True


def _state_bytes(state) -> int:
    """Deterministic byte estimate of one frozen state."""
    monitor = state.monitor
    return (8192 + 96 * monitor.phys.nonzero_words()
            + monitor.pt_allocator.size + 120 * len(monitor.epcm.value)
            + 256 * len(monitor.enclaves) + 512 * len(monitor.cpus))


#: Byte estimate of one completion's resume key and entry, records
#: apart (about 2 KB of key tuples at bound 2 on TINY).
COMPLETION_BYTES = 2048


#: The instance fields :func:`state_key` covers on a monitor and on a
#: state (``config`` and ``layout`` through the world key).  A run whose
#: monitor or state carries any other field keys nothing.
KEYED_MONITOR_FIELDS = frozenset((
    "config", "layout", "phys", "pt_allocator", "epcm", "enclaves",
    "_next_eid", "cpus", "_vid", "os_ept", "primary_os"))
KEYED_STATE_FIELDS = frozenset(
    ("monitor", "oracle", "step_count", "use_spec_walk"))


def static_key(state, schedule):
    """The part of a run's resume keys fixed for the whole run, or None
    when the run must not splice: a fault plane is installed (its hit
    counters are state no key covers), or the monitor or the state
    carries an instance field :func:`state_key` does not cover, or an
    oracle other than a :class:`~repro.security.oracle.DataOracle`."""
    from repro.faults.plane import active_plane
    from repro.security.oracle import DataOracle

    monitor = state.monitor
    if (active_plane() is not None
            or not KEYED_MONITOR_FIELDS.issuperset(monitor.__dict__)
            or not KEYED_STATE_FIELDS.issuperset(state.__dict__)):
        return None
    oracle = state.oracle
    if oracle is None:
        oracle_key = None
    elif type(oracle) is DataOracle:
        oracle_key = (oracle._values, oracle._cycle)
    else:
        return None
    return (type(state), type(monitor), state.use_spec_walk, oracle_key,
            schedule.crash)


def _table_key(table):
    return (table.root_frame, table.owner_lock, table.allow_huge,
            table.name)


def state_key(state) -> tuple:
    """Every field of the state and of its monitor, bar the per-world
    constants (``config``, ``layout``, the oracle's values; see
    :func:`static_key`): physical memory, the allocator bitmap and the
    EPCM through their fingerprints, which are kept on their values;
    every enclave's descriptor and value; every vCPU's value exactly (TLB
    entries in insertion order, flush count included); the page-table
    descriptors and the primary OS's bookkeeping."""
    from repro.engine.fingerprint import (
        epcm_fingerprint,
        frames_fingerprint,
        phys_fingerprint,
    )

    monitor = state.monitor
    primary_os = monitor.primary_os
    oracle = state.oracle
    return (
        phys_fingerprint(monitor), frames_fingerprint(monitor),
        epcm_fingerprint(monitor),
        tuple((eid, e.eid, e.elrange_base, e.elrange_size, e.mbuf,
               _table_key(e.gpt), _table_key(e.ept), e.gpa_base, e.value)
              for eid, e in monitor.enclaves.items()),
        monitor._next_eid, monitor._vid,
        tuple(cpu.value for cpu in monitor.cpus),
        _table_key(monitor.os_ept),
        tuple((app_id, app.app_id, app.gpt_root_gpa, app.mbuf_va,
               app.mbuf_size) for app_id, app in primary_os.apps.items()),
        primary_os._next_table_frame,
        tuple(sorted(primary_os._reserved_frames)),
        state.step_count,
        None if oracle is None else oracle._cursor)


def resume_key(sched, state, positions) -> Optional[tuple]:
    """What the rest of a scheduled run reads, at a driver park past
    its last forced preemption with no lock held: :func:`state_key`,
    every vCPU's script position and scheduling state, and the
    scheduler's last pick.  None if a task is an opaque callable."""
    tasks = []
    for task, position in zip(sched.tasks, positions):
        if task.fn is not None:
            return None
        exc = task.exc
        tasks.append((task.vid, position, task.pending_kind,
                      task.pending_detail, task.yield_index, task.done,
                      task.parked, task.crashed,
                      None if exc is None else (type(exc), repr(exc)),
                      task.waiting_lock))
    return state_key(state), tuple(tasks), sched._last


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
    "TaskMeta", "SnapshotNode", "RunTail", "Completion", "SnapshotTree",
    "SnapshotPlan", "static_key", "state_key", "resume_key",
    "snapshot_budget_bytes", "locality_key", "process_tree",
    "reset_process_tree",
]
