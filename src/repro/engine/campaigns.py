"""The hardened pure-check grid, run through the sharded executor.

The grid enumerates its work units in the parent and fans them out
through a :class:`~repro.engine.executor.ShardedExecutor`; the merge
reassembles results by unit index, so worker count and completion
order cannot leak into a report.  The fault campaigns work the same
way but keep their one driver beside their sequential helpers in
:mod:`repro.faults.campaign`.

The interleaving sweep has one driver per path: the sequential
:func:`~repro.faults.campaign.interleaving_campaign` runs in process,
and the pooled path is the durable wave step,
:class:`~repro.service.orchestrator.CampaignStep`, which
:func:`~repro.service.orchestrator.run_durable_campaign` and the
service scheduler drive.
"""

from typing import List

from repro.engine.executor import scoped_executor
from repro.obs import trace as _trace


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
