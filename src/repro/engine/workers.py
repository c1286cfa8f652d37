"""Worker-side unit runners for the sharded executor.

Each function here takes one small picklable ``unit`` dict and returns
a picklable result; the executor addresses them by dotted path
(``repro.engine.workers:run_interleaving_unit``) because the campaign
closures themselves do not pickle.  Heavyweight context lives in
per-process module globals, built once per worker and reused across
every unit the worker's shards carry:

* :data:`MEMO` — the process's :class:`~repro.engine.memo.CheckMemo`;
  the executor returns its counter deltas with every shard.
* interleaving worlds — one cached :func:`run_world` per (monitor,
  config, prefix cache): each secret's
  :func:`~repro.faults.campaign.build_interleaved_world` prototype is
  built once per worker and every schedule runs on a
  :meth:`~repro.security.state.SystemState.clone` of it (~20x cheaper
  than a fresh boot, and byte-identical to one by the clone layer's
  contract);
* world factories / workloads / mir models — resolved and cached per
  dotted path.

The unit runners reuse the *same* per-unit helpers the sequential
campaigns run (:func:`~repro.faults.campaign.schedule_findings`,
:func:`~repro.faults.campaign.run_crash_step_unit` and friends), so
sequential/parallel equivalence is structural, not re-implemented.
"""

from repro.engine.executor import resolve_callable
from repro.engine.memo import CheckMemo

# One memo per worker process (and one in the parent for in-process
# runs); the executor snapshots its stats around every shard.
MEMO = CheckMemo()

_RUN_WORLDS = {}        # (monitor path, config repr, prefix cache) -> run_world
_FACTORIES = {}         # (maker path, args repr) -> world factory
_WORKLOADS = {}         # workload path -> [(name, invoke)]
_MODELS = {}            # config repr -> mir corpus model


def _resolve_cls(path):
    """The monitor class a ``module:qualname`` path names (``None``
    stays ``None``: the default monitor)."""
    return resolve_callable(path) if path else None


def run_world(monitor_path, config, prefix_cache=False):
    """This process's ``run_world(secret, schedule) -> (state,
    RunResult)`` for one interleaved-campaign world flavour.

    With ``prefix_cache`` every run goes through this process's
    snapshot tree.  The tree key space is world-scoped — monitor
    class, config, secret, plus the schedule's (seed, crash) — so the
    secret-41 primary runs and the secret-42 noninterference re-runs
    each warm their own subtree on the same worker (unit-level
    sharding keeps both here).
    """
    config_key = repr(config)
    key = (monitor_path, config_key, bool(prefix_cache))
    runner = _RUN_WORLDS.get(key)
    if runner is None:
        from repro.concurrency.snapshot import process_tree
        from repro.faults.campaign import (
            build_interleaved_world,
            execute_interleaved,
        )

        monitor_cls = _resolve_cls(monitor_path)
        prototypes = {}

        def runner(secret, schedule):
            proto = prototypes.get(secret)
            if proto is None:
                proto = prototypes[secret] = build_interleaved_world(
                    monitor_cls, config, secret=secret)
            if not prefix_cache:
                return execute_interleaved(*proto, schedule)
            world_key = (monitor_path, config_key, secret, schedule.seed,
                         schedule.crash)
            return execute_interleaved(*proto, schedule,
                                       tree=process_tree(),
                                       world_key=world_key)

        _RUN_WORLDS[key] = runner
    return runner


def _world_factory(maker_path, args):
    key = (maker_path, repr(args))
    if key not in _FACTORIES:
        _FACTORIES[key] = resolve_callable(maker_path)(*args)
    return _FACTORIES[key]


def _workload(path):
    if path not in _WORKLOADS:
        _WORKLOADS[path] = resolve_callable(path)()
    return _WORKLOADS[path]


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

    Returns ``(RunResult, findings)`` for
    :func:`~repro.concurrency.explorer.explore_batched`; the findings
    are byte-identical to the sequential campaign's ``check`` hook.
    """
    from repro.faults.campaign import schedule_findings

    schedule = unit["schedule"]
    runner = run_world(unit.get("monitor"), unit.get("config"),
                       unit.get("prefix_cache"))
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
    factory = _world_factory(unit["factory"],
                             unit.get("factory_args", ()))
    calls = _workload(unit["workload"])
    runner = unit.get("runner")
    return run_unit(factory, calls, unit["index"], unit["site"],
                    unit["kind"], unit["step"], seed=unit.get("seed", 0),
                    runner=resolve_callable(runner) if runner else None)


def run_bitflip_unit(unit):
    """One whole seeded bit-flip campaign (the per-seed unit keeps the
    cumulative-corruption semantics of the sequential run)."""
    from repro.faults.campaign import bitflip_campaign
    factory = _world_factory(unit["factory"],
                             unit.get("factory_args", ()))
    workload = unit.get("workload")
    calls = _workload(workload) if workload else ()
    return bitflip_campaign(factory, calls,
                            flips=unit.get("flips", 64),
                            seed=unit.get("seed", 0))


def run_crash_ni_unit(unit):
    """All crash-NI runs of one trace step (list of RunRecords)."""
    from repro.faults.campaign import (
        default_ni_trace,
        run_crash_ni_index,
    )
    factory = _world_factory(unit["factory"],
                             unit.get("factory_args", ()))
    trace = unit.get("trace")
    if trace is None:
        worlds, eid = factory()
        trace = default_ni_trace(eid, worlds.a.monitor.config.page_size)
    return run_crash_ni_index(
        factory, trace, unit["index"], sites=tuple(unit["sites"]),
        observers=list(unit["observers"]), seed=unit.get("seed", 0))


def run_crash_point_unit(unit):
    """One crash delivered at one critical-section yield point."""
    from repro.faults.campaign import crash_point_record
    return crash_point_record(run_world(unit.get("monitor"),
                                        unit.get("config")),
                              unit["point"], seed=unit.get("seed", 0))


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
    """One planted-bug conviction: ``(bug name, detected, how)``."""
    from repro.engine.bug_matrix import run_case
    from repro.hyperenclave.constants import ARCH_CONFIGS
    config_name = unit.get("config")
    config = ARCH_CONFIGS[config_name] if config_name else None
    return run_case(unit["case"],
                    memo=MEMO if unit.get("memo") else None,
                    config=config)
