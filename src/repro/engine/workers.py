"""Worker-side unit runners for the sharded executor.

Each function here takes one picklable ``unit`` dict and returns a
picklable result; the executor addresses them by dotted path
(``repro.engine.workers:run_interleaving_unit``).  Every campaign runs
its units through one of these, in-process on a one-worker executor or
in a pool, so there is one unit path per campaign: interleaving units
come from the durable wave step
(:class:`~repro.service.orchestrator.CampaignStep`), fault and grid
units from their campaigns, and matrix units from
:func:`~repro.engine.bug_matrix.run_matrix_parallel`, one whole row
each.  Fault units carry their worlds and workloads themselves
(picklable :func:`functools.partial` objects and module-level
functions, see :mod:`repro.faults.campaign`).  Heavyweight context
lives in per-process module globals, built once per worker and reused
across every unit the worker's shards carry:

* :data:`MEMO` — the process's :class:`~repro.engine.memo.CheckMemo`,
  which interleaving units check through; the executor returns its
  counter deltas with every shard.
* interleaving worlds — one cached :func:`run_world` per (monitor,
  config): each secret's
  :func:`~repro.faults.campaign.build_interleaved_world` prototype is
  built once per worker and every schedule runs on a
  :meth:`~repro.security.state.SystemState.clone` of it (~20x cheaper
  than a fresh boot, and byte-identical to one by the clone layer's
  contract);
* mir models — built once per config.

The unit runners call the per-unit helpers of the campaigns
(:func:`~repro.faults.campaign.schedule_findings`,
:func:`~repro.faults.campaign.run_crash_step_unit` and friends).
"""

from functools import partial

from repro.engine.executor import callable_path, resolve_callable
from repro.engine.memo import CheckMemo

# One memo per worker process (and one in the parent for in-process
# runs); the executor snapshots its stats around every shard.
MEMO = CheckMemo()

_RUN_WORLDS = {}        # (monitor path, config repr) -> run_world
_MODELS = {}            # config repr -> mir corpus model


def _resolve_cls(path):
    """The monitor class a ``module:qualname`` path names (``None``
    stays ``None``: the default monitor)."""
    return resolve_callable(path) if path else None


def run_world(monitor_path, config, preemption_bound=None):
    """This process's ``run_world(secret, schedule) -> (state,
    RunResult)`` for one interleaved-campaign world flavour.

    With a ``preemption_bound`` (a unit's branch bound: the campaign's,
    or 0 when no child of its wave will run) every run goes through
    this process's snapshot tree and captures only where a child
    schedule can branch under that bound; without one nothing is
    captured.  Every bound shares one prototype per secret.  The tree
    key space is world-scoped — monitor class, config, secret, plus the
    schedule's (seed, crash) — so the secret-41 primary runs and the
    secret-42 noninterference re-runs each warm their own subtree on
    the same worker (unit-level sharding keeps both here), and
    campaigns of different bounds share nodes safely.
    """
    config_key = repr(config)
    key = (monitor_path, config_key)
    runner = _RUN_WORLDS.get(key)
    if runner is None:
        from repro.concurrency.snapshot import process_tree
        from repro.faults.campaign import (
            build_interleaved_world,
            execute_interleaved,
        )

        monitor_cls = _resolve_cls(monitor_path)
        prototypes = {}

        def runner(secret, schedule, preemption_bound):
            proto = prototypes.get(secret)
            if proto is None:
                proto = prototypes[secret] = build_interleaved_world(
                    monitor_cls, config, secret=secret)
            return execute_interleaved(
                *proto, schedule,
                tree=None if preemption_bound is None else process_tree(),
                world_key=(monitor_path, config_key, secret, schedule.seed,
                           schedule.crash),
                preemption_bound=preemption_bound)

        _RUN_WORLDS[key] = runner
    return partial(runner, preemption_bound=preemption_bound)


def zero_clock():
    """A frozen clock: hardened-check budgets measured in wall-clock
    seconds read 0.0 everywhere, making ``budget_spent`` deterministic
    across workers (the equivalence suite's requirement)."""
    return 0.0


# ---------------------------------------------------------------------------
# Interleaving exploration
# ---------------------------------------------------------------------------


def run_interleaving_unit(unit):
    """One explored schedule: execute it, then run the per-schedule
    battery (:func:`~repro.faults.campaign.schedule_findings`) through
    this worker's :data:`MEMO`.

    Returns ``(RunResult, findings)``, the pair
    :meth:`~repro.concurrency.explorer.FrontierState.absorb` takes per
    schedule; the findings are byte-identical to the sequential
    campaign's ``check`` hook.
    """
    from repro.faults.campaign import schedule_findings

    schedule = unit["schedule"]
    runner = run_world(unit.get("monitor"), unit.get("config"),
                       unit["preemption_bound"])
    state, result = runner(41, schedule)
    return result, schedule_findings(
        state, result, runner, schedule, memo=MEMO,
        check_ni=unit.get("check_ni"), observers=unit.get("observers"))


# ---------------------------------------------------------------------------
# Fault campaigns
# ---------------------------------------------------------------------------


def run_crash_step_unit(unit):
    """One ``(hypercall, site, step)`` crash-step execution."""
    from repro.faults.campaign import run_crash_step_unit as run_unit
    return run_unit(unit["world"], unit["calls"], unit["index"],
                    unit["site"], unit["kind"], unit["step"],
                    seed=unit["seed"], runner=unit["runner"])


def run_crash_ni_unit(unit):
    """All crash-NI runs of one trace step (list of RunRecords)."""
    from repro.faults.campaign import run_crash_ni_index
    return run_crash_ni_index(
        unit["worlds"], unit["trace"], unit["index"], sites=unit["sites"],
        observers=unit["observers"], seed=unit["seed"])


def run_crash_point_unit(unit):
    """One crash delivered at one critical-section yield point, on
    this process's cached world for the unit's monitor and config."""
    from repro.faults.campaign import crash_point_record
    return crash_point_record(
        run_world(callable_path(unit["monitor"]), unit["config"]),
        unit["point"], seed=unit["seed"])


# ---------------------------------------------------------------------------
# Hardened pure-check grid
# ---------------------------------------------------------------------------


def run_pure_check_unit(unit):
    """One hardened pure-domain check under its budget slice."""
    from repro.verification.harness import check_pure_hardened

    config_key = repr(unit.get("config"))
    if config_key not in _MODELS:
        from repro.hyperenclave.constants import TINY
        from repro.hyperenclave.mir_model import build_model
        _MODELS[config_key] = build_model(unit.get("config") or TINY)
    model = _MODELS[config_key]
    return check_pure_hardened(
        model, unit["name"],
        max_steps=unit.get("max_steps"),
        max_seconds=unit.get("max_seconds"),
        seed=unit.get("seed", 0),
        sample_count=unit.get("sample_count", 128),
        max_exhaustive=unit.get("max_exhaustive", 4096),
        clock=zero_clock if unit.get("fake_clock") else None)


# ---------------------------------------------------------------------------
# Planted-bug matrix
# ---------------------------------------------------------------------------


def run_bug_matrix_unit(unit):
    """One planted-bug conviction, its campaign included when the row
    runs one: ``(bug name, detected, how)``."""
    from repro.engine.bug_matrix import run_case
    return run_case(unit["case"], config=unit.get("config"))
