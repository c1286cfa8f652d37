"""Parallel counterparts of every sequential checking campaign.

Each function here fans a sequential campaign's work units out through
the :class:`~repro.engine.executor.ShardedExecutor` and merges the
results **byte-identically** to the sequential run:

* unit enumeration happens in the parent, in the sequential sweep
  order;
* units are pure functions of their seeds (every worker rebuilds or
  clones its worlds deterministically);
* the merge reassembles results by unit index, so worker count and
  completion order cannot leak into the report.

Workers clone per-worker world prototypes instead of rebooting and
run the same fingerprint-memoised checkers (:mod:`repro.engine.memo`)
as the sequential campaigns; the interleaving campaign's units run the
sequential campaign's per-schedule battery
(:func:`~repro.faults.campaign.schedule_findings`) through the
worker's memo.

All functions accept ``workers`` (see
:func:`~repro.engine.executor.resolve_workers`) or a pre-built
``executor`` to share one process pool across campaigns, and
``stats_out`` — a dict that receives the aggregated worker
memoisation counters.
"""

from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence

from repro.engine.executor import ShardedExecutor
from repro.engine.memo import merge_stats
from repro.obs import trace as _trace

DEFAULT_WORLD_FACTORY = "repro.faults.campaign:default_world_factory"
DEFAULT_WORKLOAD = "repro.faults.campaign:default_workload"
DEFAULT_TWO_WORLDS = "repro.faults.campaign:default_two_worlds"


def callable_path(obj) -> Optional[str]:
    """The ``module:qualname`` path of a class/function (or pass a
    string through) — how monitor classes travel to workers."""
    if obj is None or isinstance(obj, str):
        return obj
    return f"{obj.__module__}:{obj.__qualname__}"


def _executor(executor, workers):
    """An owned-or-borrowed executor as a context manager."""
    if executor is not None:
        return nullcontext(executor)
    return ShardedExecutor(workers)


def _publish_stats(stats_out, executor):
    if stats_out is not None:
        merge_stats(stats_out, executor.stats)


# ---------------------------------------------------------------------------
# Interleaving exploration
# ---------------------------------------------------------------------------


def parallel_interleaving_campaign(monitor_cls=None, *,
                                   preemption_bound=2, max_schedules=600,
                                   seed=0, check_ni=True, crash=None,
                                   config=None, observers=None,
                                   workers=None, executor=None,
                                   stats_out=None):
    """:func:`repro.faults.campaign.interleaving_campaign`, fanned out
    one BFS wavefront at a time; the returned
    :class:`~repro.concurrency.explorer.ExplorationResult` is
    byte-identical to the sequential campaign's.

    Each unit carries its wave's branch bound (the campaign's
    ``preemption_bound``, or 0 once ``max_schedules`` will end the
    sweep before the wave's children run), and the workers run every
    schedule through their process snapshot tree under the same
    capture rule as the sequential campaign's tree, with
    prefix-locality shard keys so each preemption subtree lands on one
    worker.  Merge order is by unit index, so the keying cannot change
    a result.
    """
    from repro.concurrency import explore_batched
    from repro.concurrency.snapshot import locality_key
    from repro.hyperenclave.monitor import HOST_ID

    monitor_path = callable_path(monitor_cls)
    watchers = list(observers) if observers is not None else [HOST_ID]

    with _trace.span("campaign.interleaving", seed=seed,
                     preemption_bound=preemption_bound, parallel=True), \
            _executor(executor, workers) as pool:
        def run_batch(schedules, branch_bound):
            units = [{"schedule": schedule, "monitor": monitor_path,
                      "config": config, "check_ni": check_ni,
                      "observers": watchers,
                      "preemption_bound": branch_bound}
                     for schedule in schedules]
            return pool.map("repro.engine.workers:run_interleaving_unit",
                            units,
                            keys=[locality_key(s) for s in schedules])

        result = explore_batched(run_batch, seed=seed,
                                 preemption_bound=preemption_bound,
                                 max_schedules=max_schedules, crash=crash)
        _publish_stats(stats_out, pool)
    return result


# ---------------------------------------------------------------------------
# Fault campaigns
# ---------------------------------------------------------------------------


def parallel_crash_step_campaign(factory=DEFAULT_WORLD_FACTORY,
                                 workload=DEFAULT_WORKLOAD, *,
                                 factory_args=(), sites=None, seed=0,
                                 runner=None, workers=None,
                                 executor=None, stats_out=None):
    """:func:`repro.faults.campaign.crash_step_campaign` over the
    sharded executor.  ``factory``/``workload``/``runner`` are dotted
    paths (``factory`` names a *maker* called with ``factory_args`` to
    produce the world factory, matching the sequential driver's
    ``default_world_factory(config)`` convention)."""
    from repro.engine.executor import resolve_callable
    from repro.faults.campaign import (
        DEFAULT_SITES,
        CampaignReport,
        crash_step_units,
    )

    sites = tuple(sites) if sites is not None else DEFAULT_SITES
    world_factory = resolve_callable(factory)(*factory_args)
    calls = resolve_callable(workload)()
    units = [{"factory": factory, "factory_args": tuple(factory_args),
              "workload": workload, "index": index, "site": site,
              "kind": kind, "step": step, "seed": seed,
              "runner": callable_path(runner)}
             for index, site, kind, step
             in crash_step_units(world_factory, calls, sites)]
    report = CampaignReport(seed=seed)
    with _trace.span("campaign.crash-step", seed=seed,
                     units=len(units), parallel=True), \
            _executor(executor, workers) as pool:
        report.runs = pool.map("repro.engine.workers:run_crash_step_unit",
                               units,
                               keys=[f"{u['index']}:{u['site']}:{u['step']}"
                                     for u in units])
        _publish_stats(stats_out, pool)
    return report


def parallel_bitflip_campaigns(seeds: Sequence[int],
                               factory=DEFAULT_WORLD_FACTORY,
                               workload=None, *, factory_args=(),
                               flips=64, workers=None, executor=None,
                               stats_out=None):
    """One :func:`repro.faults.campaign.bitflip_campaign` per seed, in
    parallel; returns the reports in seed order.  The per-seed campaign
    stays whole (its flips are cumulative on one monitor), so the unit
    of work is the seed."""
    units = [{"factory": factory, "factory_args": tuple(factory_args),
              "workload": workload, "flips": flips, "seed": s}
             for s in seeds]
    with _trace.span("campaign.bitflip", seeds=len(units),
                     parallel=True), \
            _executor(executor, workers) as pool:
        reports = pool.map("repro.engine.workers:run_bitflip_unit",
                           units, keys=[str(s) for s in seeds])
        _publish_stats(stats_out, pool)
    return reports


def parallel_crash_ni_campaign(factory=DEFAULT_TWO_WORLDS, *,
                               factory_args=(), trace=None, sites=None,
                               observers=None, seed=0, workers=None,
                               executor=None, stats_out=None):
    """:func:`repro.faults.campaign.crash_ni_campaign` with one unit
    per trace step (each unit owns that step's whole site×step sweep,
    including the suffix drain)."""
    from repro.engine.executor import resolve_callable
    from repro.faults.campaign import (
        DEFAULT_SITES,
        CampaignReport,
        default_ni_trace,
    )
    from repro.hyperenclave.monitor import HOST_ID

    sites = tuple(sites) if sites is not None else DEFAULT_SITES
    observers = list(observers) if observers is not None else [HOST_ID]
    if trace is None:
        worlds_probe, eid = resolve_callable(factory)(*factory_args)()
        trace = default_ni_trace(
            eid, worlds_probe.a.monitor.config.page_size)
    units = [{"factory": factory, "factory_args": tuple(factory_args),
              "trace": trace, "index": index, "sites": sites,
              "observers": observers, "seed": seed}
             for index in range(len(trace))]
    report = CampaignReport(seed=seed)
    with _trace.span("campaign.crash-ni", seed=seed,
                     units=len(units), parallel=True), \
            _executor(executor, workers) as pool:
        per_index = pool.map("repro.engine.workers:run_crash_ni_unit",
                             units,
                             keys=[str(u["index"]) for u in units])
        _publish_stats(stats_out, pool)
    for runs in per_index:
        report.runs.extend(runs)
    return report


def parallel_crash_in_critical_section_campaign(monitor_cls=None, *,
                                                seed=0, config=None,
                                                workers=None,
                                                executor=None,
                                                stats_out=None):
    """:func:`repro.faults.campaign.crash_in_critical_section_campaign`
    with one unit per critical-section yield point.  The clean baseline
    run (which discovers the points) executes in the parent, exactly as
    the sequential campaign's does."""
    from repro.concurrency import Schedule
    from repro.faults.campaign import (
        CrashCampaignReport,
        make_interleaved_run,
    )
    from repro.hyperenclave.monitor import RustMonitor

    cls = monitor_cls or RustMonitor
    run_world = make_interleaved_run(monitor_cls, config)
    _state, baseline = run_world(41, Schedule(seed=seed))
    points = baseline.critical_yields()
    report = CrashCampaignReport(monitor=cls.__name__,
                                 critical_yields=len(points))
    monitor_path = callable_path(monitor_cls)
    units = [{"monitor": monitor_path, "config": config, "seed": seed,
              "point": point} for point in points]
    with _trace.span("campaign.crash-critical-section", seed=seed,
                     points=len(points), parallel=True), \
            _executor(executor, workers) as pool:
        report.records = pool.map(
            "repro.engine.workers:run_crash_point_unit", units,
            keys=[f"{p.vid}:{p.yield_index}" for p in points])
        _publish_stats(stats_out, pool)
    return report


# ---------------------------------------------------------------------------
# Hardened pure-check grid
# ---------------------------------------------------------------------------


def _pure_check_units(names, *, total_steps, total_seconds, seed,
                      sample_count, max_exhaustive, config, fake_clock):
    from repro.verification.harness import split_budget
    max_steps, max_seconds = split_budget(total_steps, total_seconds,
                                          max(1, len(names)))
    return [{"name": name, "max_steps": max_steps,
             "max_seconds": max_seconds, "seed": seed,
             "sample_count": sample_count,
             "max_exhaustive": max_exhaustive, "config": config,
             "fake_clock": fake_clock}
            for name in names]


def sequential_pure_check_grid(names, *, total_steps=None,
                               total_seconds=None, seed=0,
                               sample_count=128, max_exhaustive=4096,
                               config=None, fake_clock=False) -> List:
    """The hardened pure-check grid, run in-process: one
    :class:`~repro.ccal.refinement.CheckReport` per name, each under
    its :func:`~repro.verification.harness.split_budget` slice of the
    grid-wide allowance.  The parallel grid's equivalence baseline."""
    from repro.engine.workers import run_pure_check_unit
    return [run_pure_check_unit(unit)
            for unit in _pure_check_units(
                names, total_steps=total_steps,
                total_seconds=total_seconds, seed=seed,
                sample_count=sample_count,
                max_exhaustive=max_exhaustive, config=config,
                fake_clock=fake_clock)]


def parallel_pure_check_grid(names, *, total_steps=None,
                             total_seconds=None, seed=0,
                             sample_count=128, max_exhaustive=4096,
                             config=None, fake_clock=False,
                             workers=None, executor=None,
                             stats_out=None) -> List:
    """:func:`sequential_pure_check_grid` over the sharded executor.

    With ``fake_clock`` the budget's wall-clock reads a frozen zero in
    every worker, so ``budget_spent`` merges deterministically; without
    it, reports carry real per-worker timings (identical verdicts,
    non-identical ``seconds``).
    """
    units = _pure_check_units(names, total_steps=total_steps,
                              total_seconds=total_seconds, seed=seed,
                              sample_count=sample_count,
                              max_exhaustive=max_exhaustive,
                              config=config, fake_clock=fake_clock)
    with _trace.span("campaign.pure-grid", names=len(units),
                     parallel=True), \
            _executor(executor, workers) as pool:
        reports = pool.map("repro.engine.workers:run_pure_check_unit",
                           units, keys=[u["name"] for u in units])
        _publish_stats(stats_out, pool)
    return reports
