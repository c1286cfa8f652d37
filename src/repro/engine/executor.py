"""The deterministic sharded executor.

Campaign work units are independent pure functions of their seeds, so
they can run in any process in any order — as long as the merge puts
the results back in unit order, the combined report is byte-identical
to the sequential run.  :class:`ShardedExecutor` does exactly that:

* units are partitioned across workers by a **stable shard key**
  (blake2b of a caller-supplied key string, defaulting to the unit's
  position) — the partition is a pure function of the unit list, never
  of scheduling luck;
* each shard ships to its **pinned worker process** — one
  single-process ``ProcessPoolExecutor`` per shard slot, so a given
  key always lands in the same OS process across every ``map`` call
  of the executor's lifetime (worker functions are named by
  ``module:attr`` path, because the campaign closures themselves do
  not pickle).  Affinity is what makes worker-local caches — world
  prototypes, the check memo, the snapshot tree of
  :mod:`repro.concurrency.snapshot` — serve repeat keys instead of
  missing on whichever process happened to be free;
* the merge reassembles results by original unit index, so neither the
  shard layout nor completion order can leak into the output;
* worker-side :class:`~repro.engine.memo.CheckMemo` hit/miss counters
  are returned per shard and aggregated on ``executor.stats``.

The pool uses the ``fork`` start method where available: workers
inherit the parent's imports, which makes them cheap to start.  Their
results do not depend on it: nothing a worker hashes into a verdict or
a fingerprint goes through a salted ``hash`` (the toy enclave
``measurement`` hashes a tuple of ints, which CPython does not salt),
so a worker started any other way would compute the same values.

Every pool worker exits once the process that forked it is gone: a
``kill -9`` of the parent (say the ``serve`` daemon) cannot reap its
pool, and an orphaned worker would otherwise idle on forever.

Worker count resolution: explicit argument (at least 1), else the
``REPRO_CHECK_WORKERS`` environment variable, else ``os.cpu_count()``.
``workers=1`` runs in-process with identical semantics — the degenerate
fabric is the sequential engine, and what a campaign driver runs on
when it is handed no executor (:func:`scoped_executor`).
"""

import hashlib
import importlib
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import List, Optional, Sequence

from repro.errors import ConfigError

WORKERS_ENV = "REPRO_CHECK_WORKERS"

#: Seconds between a pool worker's checks that its parent still lives.
PARENT_POLL_S = 0.5


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit count, else ``REPRO_CHECK_WORKERS``, else cpu count.

    An explicit count below 1, or a ``REPRO_CHECK_WORKERS`` value that
    is not a positive integer, raises
    :class:`~repro.errors.ConfigError` naming ``workers`` or the
    variable — a silent clamp would hide the typo, and the raw
    ``ValueError`` ``int()`` used to throw named neither the knob nor
    the fix.  An unset or empty variable falls back to the cpu count.
    """
    if workers is not None:
        count = int(workers)
        if count < 1:
            raise ConfigError("workers", workers,
                              "worker count must be >= 1")
        return count
    env = os.environ.get(WORKERS_ENV)
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ConfigError(
                WORKERS_ENV, env,
                "not an integer (expected a positive worker count, "
                "or unset for the cpu count)") from None
        if count < 1:
            raise ConfigError(
                WORKERS_ENV, env,
                "worker count must be >= 1 (or unset for the cpu "
                "count)")
        return count
    return max(1, os.cpu_count() or 1)


def resolve_callable(path: str):
    """Import ``module:attr`` (worker functions travel as paths)."""
    module_name, sep, attr = path.partition(":")
    if not sep or not attr:
        raise ValueError(f"worker path {path!r} is not 'module:attr'")
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def callable_path(obj) -> Optional[str]:
    """The ``module:qualname`` path of a class/function (or pass a
    string through) — the inverse of :func:`resolve_callable`."""
    if obj is None or isinstance(obj, str):
        return obj
    return f"{obj.__module__}:{obj.__qualname__}"


def scoped_executor(executor=None, workers: Optional[int] = 1):
    """``executor`` as a context manager that leaves it open, or a new
    :class:`ShardedExecutor` of ``workers`` (default one: in-process)
    that closes on exit — how a campaign driver takes its pool."""
    if executor is not None:
        return nullcontext(executor)
    return ShardedExecutor(workers)


def stable_shard(key: str, shards: int) -> int:
    """The shard a key lands in — deterministic across processes."""
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


def _exit_with_parent(parent_pid: int):
    """Pool-worker initializer: exit as soon as ``parent_pid`` dies.

    A daemon thread polls ``os.getppid()``; once the worker has been
    re-parented, the process that forked it is gone.
    ``PR_SET_PDEATHSIG`` would not do: it fires when the *forking
    thread* exits, and pools fork from whichever thread first submits
    (the service's scheduler thread, which can end before the daemon).
    """
    def watch():
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch",
                     daemon=True).start()


def _run_shard(fn_path: str, pairs):
    """Worker task: run one shard's ``(index, unit)`` pairs in order.

    Returns ``(results, memo_stats, metrics_delta, unit_traces,
    memo_journal)``:

    * ``metrics_delta`` — the worker registry's counter delta over the
      shard (how solver work done in workers reaches the parent; with
      the old memo-only return, a parent reading the global solver
      counters around a parallel campaign undercounted by exactly the
      work the pool did);
    * ``unit_traces`` — when tracing was enabled at fork time, one
      ``(index, records)`` export per unit, each recorded by a *fresh*
      per-unit tracer (the inherited tracer is detached first: its
      JSONL sink descriptor is shared with the parent across the fork,
      and per-unit recording is what makes the assembled trace a pure
      function of the unit list rather than of shard layout);
    * ``memo_journal`` — the ``(table, key, value)`` entries this
      shard's misses added to the worker memo, however long ago the
      worker forked (the durable orchestrator persists them).
    """
    from repro.engine import workers as worker_module
    from repro.obs import trace as trace_mod
    from repro.obs.metrics import REGISTRY
    fn = resolve_callable(fn_path)
    baseline = worker_module.MEMO.stats()
    metrics_before = REGISTRY.snapshot()
    tracing = trace_mod.enabled()
    inherited = trace_mod.install(None)
    results, traces = [], []
    try:
        with worker_module.MEMO.journalling() as journal:
            for index, unit in pairs:
                if tracing:
                    tracer = trace_mod.Tracer()
                    with trace_mod.installed(tracer):
                        with trace_mod.span("executor.unit", index=index,
                                            fn=fn_path):
                            value = fn(unit)
                    traces.append((index, tracer.export()))
                else:
                    value = fn(unit)
                results.append((index, value))
    finally:
        trace_mod.install(inherited)
    return (results, worker_module.MEMO.stats_since(baseline),
            REGISTRY.delta(metrics_before), traces, journal)


def _adopt_unit_traces(traces):
    """Re-emit shipped worker spans into the parent tracer, sorted by
    unit index — completion order and shard layout cannot leak into
    the assembled trace."""
    from repro.obs import trace as trace_mod
    tracer = trace_mod.active_tracer()
    if tracer is None:
        return
    for _index, records in sorted(traces, key=lambda item: item[0]):
        tracer.adopt(records)


class ShardedExecutor:
    """A reusable deterministic fan-out over a process pool."""

    def __init__(self, workers: Optional[int] = None):
        self.workers = resolve_workers(workers)
        self.stats = {}           # aggregated worker CheckMemo counters
        self.memo_journal = []    # (table, key, value) from worker misses
        self._pools = None        # one single-process pool per shard slot

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False

    def close(self):
        """Shut down every slot pool, draining queued work first."""
        pools, self._pools = self._pools, None
        for pool in pools or ():
            pool.shutdown()

    def terminate(self):
        """Kill worker processes *now* (the Ctrl-C / abort path).

        ``ProcessPoolExecutor.shutdown`` waits for queued work; on a
        ``KeyboardInterrupt`` that would leave orphaned children
        grinding on after the user asked to stop.  This kills the pool
        processes directly (they hold no state worth draining — every
        unit is a pure function of its seeds) and discards the pools,
        so the executor can be reused afterwards.
        """
        pools, self._pools = self._pools, None
        for pool in pools or ():
            # The pool's process table is private API, but it is the
            # only handle on the children; killing via it beats
            # leaking them.
            for process in list(getattr(pool, "_processes",
                                        {}).values()):
                try:
                    process.kill()
                except (OSError, ValueError, AttributeError):
                    pass
            pool.shutdown(wait=False, cancel_futures=True)

    def _ensure_pools(self) -> List[ProcessPoolExecutor]:
        """One single-process pool per shard slot (created together, so
        every slot forks from the same parent state).

        Shard *slot*, not shard count: a key's slot is stable across
        ``map`` calls of any size, and a slot's pool is one long-lived
        OS process, so worker-local warm state keyed by shard key
        survives the whole executor lifetime.
        """
        if self._pools is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:       # platform without fork
                context = None
            self._pools = [ProcessPoolExecutor(
                max_workers=1, mp_context=context,
                initializer=_exit_with_parent, initargs=(os.getpid(),))
                for _ in range(self.workers)]
        return self._pools

    def _submit_shard(self, number: int, fn_path: str, shard):
        """Ship one shard to the process pinned to its slot."""
        return self._ensure_pools()[number].submit(_run_shard, fn_path,
                                                   shard)

    def map(self, fn_path: str, units: Sequence,
            *, keys: Optional[Sequence[str]] = None) -> List:
        """Run ``fn_path(unit)`` for every unit; results in unit order.

        ``keys`` (one string per unit) drive the stable sharding;
        they default to the unit's position in the list.
        """
        from repro.engine.memo import merge_stats
        from repro.obs import trace as trace_mod
        from repro.obs.metrics import REGISTRY

        units = list(units)
        if not units:
            return []
        if keys is None:
            keys = [str(index) for index in range(len(units))]
        if len(keys) != len(units):
            raise ValueError("one shard key per unit required")
        # Shard by *slot* over the full worker count — never by the
        # wave size — so a key maps to the same pinned process in every
        # map call; a small wave just leaves some slots idle.
        shards = [[] for _ in range(self.workers)]
        for index, (unit, key) in enumerate(zip(units, keys)):
            shards[stable_shard(f"{fn_path}\x1f{key}",
                                self.workers)].append((index, unit))
        occupied = sum(1 for shard in shards if shard)
        with trace_mod.span("executor.map", fn=fn_path,
                            units=len(units), shards=occupied):
            if self.workers <= 1:
                # In-process: unit code already wrote to this process's
                # registry, so the returned metrics delta is discarded
                # (merging it would double-count).
                results, stats, _metrics, traces, journal = _run_shard(
                    fn_path, list(enumerate(units)))
                merge_stats(self.stats, stats)
                self.memo_journal.extend(journal)
                _adopt_unit_traces(traces)
                return [value for _index, value in results]
            futures = [self._submit_shard(number, fn_path, shard)
                       for number, shard in enumerate(shards) if shard]
            merged = [None] * len(units)
            unit_traces = []
            try:
                for future in futures:
                    results, stats, metrics, traces, journal = \
                        future.result()
                    merge_stats(self.stats, stats)
                    REGISTRY.merge(metrics)
                    self.memo_journal.extend(journal)
                    unit_traces.extend(traces)
                    for index, value in results:
                        merged[index] = value
            except KeyboardInterrupt:
                # Kill the children instead of leaking them behind a
                # half-written campaign; the caller (orchestrator/CLI)
                # flushes its checkpoint and exits with its distinct
                # interrupted code.
                self.terminate()
                raise
            _adopt_unit_traces(unit_traces)
            return merged

    def drain_memo_journal(self):
        """Take and clear the journalled worker memo entries."""
        drained, self.memo_journal = self.memo_journal, []
        return drained
