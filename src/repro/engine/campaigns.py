"""The campaigns that run through the sharded executor here, not in
:mod:`repro.faults.campaign`: the pooled interleaving sweep and the
hardened pure-check grid.

Both enumerate their work units in the parent and fan them out through
a :class:`~repro.engine.executor.ShardedExecutor`; the merge
reassembles results by unit index, so worker count and completion
order cannot leak into a report.  The fault campaigns work the same
way but keep their one driver beside their sequential helpers in
:mod:`repro.faults.campaign`.

:func:`parallel_interleaving_campaign` stays a twin of
:func:`~repro.faults.campaign.interleaving_campaign`: the sequential
campaign runs the same per-schedule battery
(:func:`~repro.faults.campaign.schedule_findings`) in-process through
:func:`~repro.concurrency.explore` with a campaign-local memo and
snapshot tree, while the pooled one explores wave by wave
(:func:`~repro.concurrency.explore_batched`) with each worker's process
memo and tree.  It takes ``workers`` (see
:func:`~repro.engine.executor.resolve_workers`) or a pre-built
``executor``, and ``stats_out`` — a dict that receives the aggregated
worker memoisation counters.
"""

from typing import List

from repro.engine.executor import callable_path, scoped_executor
from repro.engine.memo import merge_stats
from repro.obs import trace as _trace


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
            scoped_executor(executor, workers) as pool:
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


def pure_check_grid(names, *, total_steps=None, total_seconds=None,
                    seed=0, sample_count=128, max_exhaustive=4096,
                    config=None, fake_clock=False, executor=None) -> List:
    """The hardened pure-check grid: one
    :class:`~repro.ccal.refinement.CheckReport` per name, each under
    its :func:`~repro.verification.harness.split_budget` slice of the
    grid-wide allowance, run through ``executor`` (in-process on one
    worker by default).

    With ``fake_clock`` the budget's wall-clock reads a frozen zero in
    every worker, so ``budget_spent`` is the same on any executor;
    without it, reports carry real timings (identical verdicts,
    non-identical ``seconds``).
    """
    units = _pure_check_units(names, total_steps=total_steps,
                              total_seconds=total_seconds, seed=seed,
                              sample_count=sample_count,
                              max_exhaustive=max_exhaustive,
                              config=config, fake_clock=fake_clock)
    with _trace.span("campaign.pure-grid", names=len(units)), \
            scoped_executor(executor) as pool:
        return pool.map("repro.engine.workers:run_pure_check_unit",
                        units, keys=[u["name"] for u in units])
