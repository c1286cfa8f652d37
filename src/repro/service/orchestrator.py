"""The durable campaign orchestrator: checkpoint, crash, resume, warm.

The run loop mirrors the paper's transactional hypercalls: state
advances in atomic steps (one explored wavefront), each step commits
via an atomic checkpoint, and a crash at *any* instant — between
steps, mid-wave, mid-checkpoint-write — leaves the store at the last
committed step.  ``python -m repro resume <store>`` then continues
from that step, and because the wavefront bookkeeping is the very
:class:`~repro.concurrency.explorer.FrontierState` the in-memory
explorer runs on, the resumed campaign's
:class:`~repro.concurrency.explorer.ExplorationResult` is
repr-identical to an uninterrupted run (property-tested by killing at
randomized checkpoints in ``tests/service/``).

The step itself is :class:`CampaignStep`, and it has two drivers:
:func:`run_durable_campaign` runs one campaign a whole wavefront at a
time, and :class:`~repro.service.scheduler.CampaignScheduler` runs
many campaigns on one shared pool in fair-share chunks.

Cross-run warm reuse rides the same store: worker memo misses are
journalled, shipped back with each shard, and appended to the
:class:`~repro.service.store.MemoStore`; the next campaign preloads
them into the parent's :class:`~repro.engine.memo.CheckMemo` *before*
forking workers, so every worker inherits the warm tables.
:func:`warm_pure_check_grid` does the same for whole hardened
pure-check verdicts, keyed by
:func:`~repro.verification.harness.pure_check_key`.

Chaos hooks: ``REPRO_CHAOS_KILL_AFTER=<n>`` (or the
``chaos_kill_after`` argument) SIGKILLs the process right after the
n-th checkpoint commits — the crash-safety tests and the CI chaos job
drive the orchestrator through real ``kill -9`` with it.
"""

import os
import signal
import threading
import time
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.concurrency.snapshot import locality_key
from repro.engine.memo import merge_stats
from repro.errors import CorruptArtifact, ShardQuarantined
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY
from repro.service.checkpoint import CampaignCheckpoint, spec_digest
from repro.service.store import MemoStore
from repro.service.supervisor import ResilientExecutor

CHECKPOINT_FILE = "checkpoint.bin"
MEMO_FILE = "memo.log"

#: Environment hook: SIGKILL self after this many checkpoint commits.
CHAOS_ENV = "REPRO_CHAOS_KILL_AFTER"

#: The unit runner every wave step fans out to.
WORKER_FN = "repro.engine.workers:run_interleaving_unit"


@dataclass(frozen=True)
class CampaignSpec:
    """What is being checked — the identity a checkpoint is keyed by."""

    kind: str = "interleaving"
    monitor: Optional[str] = None      # module:qualname, None = RustMonitor
    seed: int = 0
    preemption_bound: int = 2
    max_schedules: int = 600
    check_ni: bool = True
    observers: Optional[Tuple[int, ...]] = None

    def payload(self) -> Dict:
        return {"kind": self.kind, "monitor": self.monitor,
                "seed": self.seed,
                "preemption_bound": self.preemption_bound,
                "max_schedules": self.max_schedules,
                "check_ni": self.check_ni,
                "observers": list(self.observers)
                if self.observers is not None else None}

    @classmethod
    def from_payload(cls, payload: Dict) -> "CampaignSpec":
        """Rebuild a spec from a checkpoint's stored payload dict."""
        observers = payload.get("observers")
        return cls(kind=payload.get("kind", "interleaving"),
                   monitor=payload.get("monitor"),
                   seed=payload.get("seed", 0),
                   preemption_bound=payload.get("preemption_bound", 2),
                   max_schedules=payload.get("max_schedules", 600),
                   check_ni=payload.get("check_ni", True),
                   observers=tuple(observers)
                   if observers is not None else None)

    def digest(self) -> str:
        # payload() is the canonical form (observers as list-or-None),
        # and the checkpoint digests the same payload — the two must
        # agree or every resume would be a spec mismatch.
        return spec_digest(self.payload())


class CampaignStore:
    """One campaign's durable home: checkpoint file + memo log.

    Usable as a context manager: ``with CampaignStore(root) as store``
    releases the memo log's file handle on exit.  :meth:`close` is
    idempotent, and a closed store is not poisoned — the append log
    reopens lazily if the store is used again (closing releases OS
    resources; it does not retire the on-disk state).
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.checkpoint_path = os.path.join(root, CHECKPOINT_FILE)
        self.memo = MemoStore(os.path.join(root, MEMO_FILE))
        self._closed = False

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run since the last use."""
        return self._closed

    def has_checkpoint(self) -> bool:
        return os.path.exists(self.checkpoint_path)

    def load_checkpoint(self, expected_digest: Optional[str] = None,
                        strict: bool = False
                        ) -> Optional[CampaignCheckpoint]:
        """The stored checkpoint, or ``None`` for a cold start.

        A *corrupt* checkpoint is a warning plus cold start (strict
        off): refusing to run because last run's snapshot is damaged
        would turn one lost file into a lost service.  A checkpoint for
        a *different spec* always raises
        :class:`~repro.errors.CheckpointMismatch` — that is a caller
        error, not damage.
        """
        if not self.has_checkpoint():
            return None
        try:
            return CampaignCheckpoint.load(self.checkpoint_path,
                                           expected_digest)
        except CorruptArtifact as exc:
            if strict:
                raise
            warnings.warn(
                f"ignoring corrupt checkpoint and cold-starting: {exc}",
                RuntimeWarning, stacklevel=2)
            REGISTRY.inc("service.corrupt_checkpoints")
            return None

    def save_checkpoint(self, checkpoint: CampaignCheckpoint) -> str:
        """Atomically replace the checkpoint; metered and traced."""
        started = time.perf_counter()
        path = checkpoint.save(self.checkpoint_path)
        elapsed = time.perf_counter() - started
        REGISTRY.inc("service.checkpoints")
        REGISTRY.observe("service.checkpoint_seconds", elapsed)
        _trace.event("service.checkpoint", waves=checkpoint.waves,
                     done=checkpoint.done,
                     runs=len(getattr(checkpoint.state, "runs", ())),
                     seconds=round(elapsed, 6))
        return path

    def close(self):
        """Release the memo log's handle; safe to call repeatedly."""
        self.memo.close()
        self._closed = True

    def __enter__(self) -> "CampaignStore":
        self._closed = False
        return self

    def __exit__(self, *_exc):
        self.close()
        return False


def _coerce_store(store) -> CampaignStore:
    return store if isinstance(store, CampaignStore) else \
        CampaignStore(store)


def _chaos_threshold(chaos_kill_after: Optional[int]) -> Optional[int]:
    if chaos_kill_after is not None:
        return chaos_kill_after
    env = os.environ.get(CHAOS_ENV)
    return int(env) if env else None


def _maybe_chaos_kill(threshold: Optional[int], checkpoints_written: int,
                      pool=None):
    """The chaos hook: a real ``SIGKILL``, not an exception — nothing
    downstream of the commit gets a chance to clean up, exactly like a
    power cut.

    The pool's worker processes are killed first: they hold no durable
    state (the crash-safety property under test lives entirely in the
    store), but they do inherit the parent's stdio, and orphaned
    workers idling on an inherited pipe would wedge any harness that
    waits for the killed campaign's output to reach EOF.
    """
    if threshold is None or checkpoints_written < threshold:
        return
    if pool is not None:
        pool.terminate()
    os.kill(os.getpid(), signal.SIGKILL)


def _quarantine_output(schedule, error: ShardQuarantined):
    """A quarantined unit as an absorbable (result, findings) pair.

    The synthetic result has no decisions, so the explorer grows no
    children from it; the quarantine itself surfaces as a typed
    violation pinned to the schedule that was never checked.
    """
    from repro.concurrency.scheduler import RunResult
    empty = RunResult(schedule=schedule, decisions=(), yields=(),
                      trace=(), lock_violations=(),
                      stale_translations=(), task_errors={}, parked=())
    return empty, [("shard-quarantined", str(error))]


def _hash_cons_outputs(outputs, cache: dict) -> None:
    """Share value-equal scheduler events across a campaign's runs.

    Worker shards ship their results through separate pickles, so two
    runs that executed the same scheduling decision arrive holding
    equal-but-distinct ``Decision``/``YieldPoint`` objects.  Re-keying
    them through one campaign-lifetime cache lets every later
    checkpoint pickle emit each unique event once (pickle's memo table
    shares by identity, not value) — an order of magnitude off the
    per-wave checkpoint's size and serialisation time, while the
    result stays repr-identical by construction: the cache only ever
    substitutes an equal value.
    """
    for result, _findings in outputs:
        result.yields = tuple(cache.setdefault(y, y)
                              for y in result.yields)
        result.decisions = tuple(cache.setdefault(d, d)
                                 for d in result.decisions)


# ---------------------------------------------------------------------------
# The checkpointed wave step and its solo driver
# ---------------------------------------------------------------------------


class CampaignStep:
    """One campaign's checkpointed wave step over a worker pool.

    Construction loads the store's checkpoint (or starts cold), preloads
    the store's memo log into the parent's worker memo *before* the
    pool forks, and hash-conses the resumed runs.  Each :meth:`run`
    executes one wave (or one chunk of it), absorbs it into the
    :class:`~repro.concurrency.explorer.FrontierState`, adds the wave's
    memo counters to :attr:`stats` and commits the checkpoint plus the
    memo journal before it returns: a ``kill -9`` at any instant loses
    at most the wave in flight.

    Raises :class:`~repro.errors.CheckpointMismatch` when the store
    holds another spec's checkpoint.  ``campaign_id`` scopes the shard
    keys, so campaigns sharing one pool keep separate key spaces;
    ``lock`` (the scheduler's) guards every mutation a status reader on
    another thread may see.
    """

    def __init__(self, spec: CampaignSpec, store: CampaignStore, pool, *,
                 campaign_id: Optional[str] = None, lock=None):
        from repro.concurrency.explorer import FrontierState

        self.spec = spec
        self.store = store
        self.pool = pool
        self.campaign_id = campaign_id
        self.lock = lock if lock is not None else threading.RLock()
        checkpoint = store.load_checkpoint(expected_digest=spec.digest())
        self.resumed = checkpoint is not None
        if checkpoint is not None:
            self.state = checkpoint.state
            self.stats = checkpoint.stats
            self.waves = checkpoint.waves
            self.done = checkpoint.done     # the last commit's flag
            REGISTRY.inc("service.resumes")
            _trace.event("service.resume", campaign=campaign_id,
                         waves=self.waves, runs=len(self.state.runs),
                         frontier=len(self.state.frontier))
        else:
            self.state = FrontierState.start(
                seed=spec.seed, preemption_bound=spec.preemption_bound,
                max_schedules=spec.max_schedules)
            self.stats = {}
            self.waves = 0
            self.done = False
        self._cons: dict = {}
        if not self.done:
            self._warm()

    def _warm(self):
        from repro.engine import workers as worker_module

        # Preloaded entries and the journalling flag are inherited by
        # every worker the pool forks after this point.
        preloaded = self.store.memo.preload_memo(worker_module.MEMO)
        worker_module.MEMO.enable_journal()
        if preloaded:
            REGISTRY.inc("service.memo_preloaded", preloaded)
            _trace.event("service.memo-preload", entries=preloaded)
        # Seed the event cache from the resumed runs so fresh waves
        # share with the history, not just with each other.
        _hash_cons_outputs(
            ((result, ()) for _schedule, result in self.state.runs),
            self._cons)

    def run(self, wave: List) -> None:
        """Execute ``wave`` (popped from :attr:`state`) and commit.

        Snapshot trees are process-local, so a campaign resumed after
        ``kill -9`` (or a respawned dead worker) rebuilds them from live
        execution; pre-crash snapshots are never trusted.  On
        ``KeyboardInterrupt`` the wave goes back on the frontier and the
        checkpoint records the exact pre-wave state before the
        interrupt propagates.
        """
        from repro.hyperenclave.monitor import HOST_ID

        spec = self.spec
        watchers = list(spec.observers) if spec.observers is not None \
            else [HOST_ID]
        units = [{"schedule": schedule, "monitor": spec.monitor,
                  "config": None, "check_ni": spec.check_ni,
                  "observers": watchers, "prefix_cache": True}
                 for schedule in wave]
        # Prefix-locality keys co-locate each preemption subtree on one
        # worker; merge stays by unit index.
        scope = "" if self.campaign_id is None \
            else f"{self.campaign_id}\x1f"
        keys = [scope + locality_key(schedule) for schedule in wave]
        # Per-wave counters: a pool reused across campaigns (or across
        # an interrupt and its resume) must not carry old counts in.
        self.pool.stats = {}
        try:
            merged = self.pool.map(WORKER_FN, units, keys=keys)
        except KeyboardInterrupt:
            self.put_back(wave)
            raise
        outputs = [_quarantine_output(schedule, value)
                   if isinstance(value, ShardQuarantined) else value
                   for schedule, value in zip(wave, merged)]
        with self.lock:
            _hash_cons_outputs(outputs, self._cons)
            self.state.absorb(wave, outputs)
            merge_stats(self.stats, self.pool.stats)
            self._commit(done=self.state.done)

    def put_back(self, wave: List) -> None:
        """Return an unexecuted wave to the frontier and commit, so the
        checkpoint is the exact pre-wave state."""
        with self.lock:
            self.state.frontier.extendleft(reversed(wave))
            self._commit(done=False)

    def finish(self):
        """The campaign's result, with a done checkpoint left behind.

        The exploration can end inside ``take_wave`` (truncation, or an
        empty frontier on a resumed store) after the last wave's commit,
        which then predates that decision.
        """
        with self.lock:
            if not self.done:
                self._commit(done=True)
        return self.state.result()

    def _commit(self, done: bool):
        appended = self.store.memo.extend(self.pool.drain_memo_journal())
        if appended:
            REGISTRY.inc("service.memo_persisted", appended)
        self.waves += 1
        self.store.save_checkpoint(CampaignCheckpoint(
            spec=self.spec.payload(), state=self.state, waves=self.waves,
            done=done, stats=self.stats))
        self.done = done


def run_durable_campaign(spec: CampaignSpec, store, *,
                         workers: Optional[int] = None,
                         executor: Optional[ResilientExecutor] = None,
                         chaos_kill_after: Optional[int] = None):
    """Run (or continue) a crash-safe interleaving campaign.

    Returns the campaign's
    :class:`~repro.concurrency.explorer.ExplorationResult`; every
    explored wavefront is one :meth:`CampaignStep.run`, which commits
    an atomic checkpoint plus the wave's memo-journal entries before
    the next wave starts, so a ``kill -9`` at any instant loses at most
    one in-flight wave — which the next :func:`resume_campaign` re-runs
    to the identical verdict.

    ``executor`` (a pre-built :class:`ResilientExecutor`) is only
    honoured for pool reuse across campaigns *sharing a store* — a
    pool forked before this store's memo preload would run cold.
    """
    if spec.kind != "interleaving":
        raise ValueError(f"unknown campaign kind {spec.kind!r} "
                         f"(supported: 'interleaving')")
    owns_store = not isinstance(store, CampaignStore)
    store = _coerce_store(store)
    pool = executor if executor is not None \
        else ResilientExecutor(workers)
    threshold = _chaos_threshold(chaos_kill_after)
    try:
        step = CampaignStep(spec, store, pool)
        committed = step.waves
        with _trace.span("service.campaign", kind=spec.kind,
                         seed=spec.seed, resumed=step.resumed):
            while True:
                wave = step.state.take_wave()
                if not wave:
                    break
                step.run(wave)
                _maybe_chaos_kill(threshold, step.waves - committed, pool)
            return step.finish()
    finally:
        if executor is None:
            pool.close()
        if owns_store:
            store.close()


def resume_campaign(store, *, workers: Optional[int] = None,
                    executor: Optional[ResilientExecutor] = None,
                    chaos_kill_after: Optional[int] = None):
    """Continue an interrupted campaign from its store.

    The spec travels inside the checkpoint, so resuming needs only the
    store path.  Raises :class:`FileNotFoundError` when the store has
    no checkpoint and :class:`~repro.errors.CorruptArtifact` when the
    checkpoint cannot be loaded (an explicit resume of a damaged store
    should fail loudly; the *campaign* entry point is the one with the
    cold-start fallback).
    """
    owns_store = not isinstance(store, CampaignStore)
    store = _coerce_store(store)
    try:
        if not store.has_checkpoint():
            raise FileNotFoundError(
                f"no checkpoint at {store.checkpoint_path!r} — nothing "
                f"to resume")
        checkpoint = store.load_checkpoint(strict=True)
        spec = CampaignSpec.from_payload(checkpoint.spec)
        return run_durable_campaign(spec, store, workers=workers,
                                    executor=executor,
                                    chaos_kill_after=chaos_kill_after)
    finally:
        if owns_store:
            store.close()


# ---------------------------------------------------------------------------
# Warm cross-run verdict reuse for the hardened pure-check grid
# ---------------------------------------------------------------------------

VERDICT_TABLE = "pure-verdict"


def warm_pure_check_grid(names: Sequence[str], store, *,
                         total_steps: Optional[int] = None, seed: int = 0,
                         sample_count: int = 128,
                         max_exhaustive: int = 4096, config=None,
                         workers: Optional[int] = None,
                         executor=None, stats_out=None) -> List:
    """The parallel pure-check grid with a persistent verdict memo.

    Deterministic check parameters (step budgets only — wall-clock
    budgets are not reproducible, exactly the provenance-bundle rule)
    key each :class:`~repro.ccal.refinement.CheckReport` by
    :func:`~repro.verification.harness.pure_check_key`; verdicts found
    in the store are returned without running anything, the rest run
    through the sharded executor and are appended for the next
    campaign.  Reports come back in ``names`` order either way.
    """
    from repro.engine.campaigns import _executor, _pure_check_units
    from repro.verification.harness import pure_check_key

    owns_store = not isinstance(store, CampaignStore)
    store = _coerce_store(store)
    names = list(names)
    units = _pure_check_units(names, total_steps=total_steps,
                              total_seconds=None, seed=seed,
                              sample_count=sample_count,
                              max_exhaustive=max_exhaustive,
                              config=config, fake_clock=True)
    keys = [pure_check_key(unit["name"], max_steps=unit["max_steps"],
                           seed=seed, sample_count=sample_count,
                           max_exhaustive=max_exhaustive, config=config)
            for unit in units]
    cached = {key: value for table, key, value in store.memo.load()
              if table == VERDICT_TABLE}
    reports: List = [None] * len(units)
    misses = [index for index, key in enumerate(keys)
              if key not in cached]
    hits = len(units) - len(misses)
    if hits:
        REGISTRY.inc("service.verdict_hits", hits)
    for index, key in enumerate(keys):
        if key in cached:
            reports[index] = cached[key]
    if misses:
        REGISTRY.inc("service.verdict_misses", len(misses))
        with _trace.span("service.pure-grid", names=len(units),
                         misses=len(misses)), \
                _executor(executor, workers) as pool:
            fresh = pool.map("repro.engine.workers:run_pure_check_unit",
                             [units[index] for index in misses],
                             keys=[units[index]["name"]
                                   for index in misses])
            if stats_out is not None:
                merge_stats(stats_out, pool.stats)
        for index, report in zip(misses, fresh):
            reports[index] = report
        store.memo.extend(
            (VERDICT_TABLE, keys[index], report)
            for index, report in zip(misses, fresh))
    if owns_store:
        store.close()
    return reports
