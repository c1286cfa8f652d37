"""Counterexample provenance: self-contained, replayable failure bundles.

A violation that cannot be re-run is an anecdote.  Every checking
engine in this reproduction is deterministic given a small set of
inputs — a seed, a schedule, a fault plan, a budget — so a refuted
invariant can carry *everything needed to reproduce itself* in one
JSON-serialisable bundle.  :class:`ProvenanceBundle` is that record,
and :func:`replay_bundle` is the other half of the contract: load the
bundle, rebuild the world from its named factories, re-run the failing
check, and report whether the recorded violation reappeared.

Bundle ``kind``s and what replays them:

===============  ========================================================
``interleaving``  one explored schedule re-run with the full battery
                  (invariants, vCPU consistency, optional two-world NI)
``crash-step``    one ``(hypercall, site, step)`` fault injection via
                  :func:`repro.engine.workers.run_crash_step_unit`
``crash-point``   one vCPU crash at one critical-section yield point
``pure-check``    one hardened pure-corpus check under a step budget
===============  ========================================================

Classes and callables travel as ``module:qualname`` paths (the sharded
executor's convention), so a bundle written by one process replays in
another — or in a fresh ``python -m repro replay bundle.json`` months
later.  Wall-clock budgets are deliberately *not* replayed (a seconds
budget is not reproducible across machines); replay runs with the
recorded step budget and a frozen clock.

When a tracer is installed at bundle-creation time, the bundle also
captures the **minimal trace slice** — the tail of the trace ring at
the moment of failure — so the evidence of *how* the checker got there
ships with the counterexample.
"""

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CorruptArtifact
from repro.obs import trace as trace_mod

SCHEMA_VERSION = 1

#: The arch a bundle replays on when it records none.
DEFAULT_ARCH = "x86_64"

#: Records kept from the trace ring when a bundle is created.
TRACE_SLICE_LIMIT = 64


@dataclass
class ProvenanceBundle:
    """Everything needed to replay one failing check."""

    kind: str                      # interleaving | crash-step | ...
    seed: int = 0
    monitor: Optional[str] = None  # module:qualname, None = RustMonitor
    schedule: Optional[Dict] = None
    fault_plan: Optional[Dict] = None
    check: Dict = field(default_factory=dict)     # engine parameters
    violation: Dict = field(default_factory=dict)  # what was observed
    budget_spent: Dict = field(default_factory=dict)
    trace_slice: List[Dict] = field(default_factory=list)
    version: int = SCHEMA_VERSION

    # -- JSON round-trip ----------------------------------------------------

    def to_json(self) -> str:
        """The bundle as pretty-printed, key-sorted JSON."""
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProvenanceBundle":
        """Parse a :meth:`to_json` payload back into a bundle."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError("not a provenance bundle: missing 'kind'")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"not a provenance bundle: unknown fields {sorted(unknown)}")
        return cls(**payload)

    def save(self, path: str) -> str:
        """Write the bundle to ``path`` as JSON; returns the path.

        The write is atomic (temp + fsync + rename): a crash mid-save
        cannot leave a truncated bundle where a replayable one stood.
        """
        from repro.service.store import atomic_write_text
        return atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ProvenanceBundle":
        """Load a bundle; a truncated or non-JSON file raises
        :class:`~repro.errors.CorruptArtifact` naming the damage (a
        schema-valid JSON object with wrong fields stays a plain
        ``ValueError`` — that is a foreign document, not a torn one)."""
        with open(path) as fh:
            text = fh.read()
        try:
            return cls.from_json(text)
        except json.JSONDecodeError as exc:
            raise CorruptArtifact(
                path, f"bundle is not valid JSON "
                      f"(truncated write?): {exc}") from None


@dataclass
class ReplayOutcome:
    """What a :func:`replay_bundle` run observed vs. what was recorded."""

    kind: str
    matched: bool
    expected: Dict
    found: List
    detail: str = ""

    def summary(self) -> str:
        """One human line: REPRODUCED/DIVERGED plus what was compared."""
        verdict = "REPRODUCED" if self.matched else "DIVERGED"
        return (f"[{verdict}] {self.kind} replay: expected "
                f"{self.expected}, found {len(self.found)} finding(s)"
                + (f" — {self.detail}" if self.detail else ""))


# ---------------------------------------------------------------------------
# Bundle builders
# ---------------------------------------------------------------------------


def _trace_slice(limit=TRACE_SLICE_LIMIT) -> List[Dict]:
    """The tail of the installed tracer's ring (empty when tracing is
    off) — the evidence of how the checker reached the failure."""
    tracer = trace_mod.active_tracer()
    if tracer is None:
        return []
    return tracer.export()[-limit:]

def _schedule_dict(schedule) -> Dict:
    return {"seed": schedule.seed,
            "preemptions": [list(p) for p in schedule.preemptions],
            "crash": list(schedule.crash)
            if schedule.crash is not None else None}


def _schedule_from_dict(payload):
    from repro.concurrency import Schedule
    return Schedule(
        seed=payload.get("seed", 0),
        preemptions=tuple(tuple(p)
                          for p in payload.get("preemptions", ())),
        crash=tuple(payload["crash"])
        if payload.get("crash") is not None else None)


def _arch_name(config) -> str:
    """The :data:`~repro.hyperenclave.constants.ARCH_CONFIGS` name a
    bundle records for ``config`` (None is the default x86-64 world)."""
    from repro.hyperenclave.constants import ARCH_CONFIGS
    if config is None:
        return DEFAULT_ARCH
    for name, candidate in ARCH_CONFIGS.items():
        if candidate == config:
            return name
    raise ValueError(f"config {config.name!r} is not in ARCH_CONFIGS; "
                     f"a bundle replays named configs only")


def _arch_config(name):
    """The world config a bundle's recorded arch names (bundles written
    before arches were recorded replay on x86-64, as they always did)."""
    from repro.hyperenclave.constants import ARCH_CONFIGS
    config = ARCH_CONFIGS.get(name or DEFAULT_ARCH)
    if config is None:
        raise ValueError(f"bundle names unknown arch {name!r} "
                         f"(known: {sorted(ARCH_CONFIGS)})")
    return config


def interleaving_bundle(violation, *, monitor_cls=None, check_ni=True,
                        observers=None, result=None,
                        config=None) -> ProvenanceBundle:
    """A bundle for one :class:`~repro.concurrency.explorer.Violation`
    out of an interleaving campaign run on ``config`` (default TINY
    geometry); the arch travels in ``check["arch"]``."""
    from repro.engine.campaigns import callable_path

    check = {"check_ni": bool(check_ni), "arch": _arch_name(config)}
    if observers is not None:
        check["observers"] = list(observers)
    bundle = ProvenanceBundle(
        kind="interleaving",
        seed=violation.schedule.seed,
        monitor=callable_path(monitor_cls),
        schedule=_schedule_dict(violation.schedule),
        check=check,
        violation={"kind": violation.kind, "detail": violation.detail},
        trace_slice=_trace_slice())
    if result is not None and not bundle.trace_slice:
        bundle.trace_slice = [{"type": "event", "id": 0, "span": None,
                               "name": "schedule.trace", "t": 0.0,
                               "attrs": {"trace": list(result.trace)}}]
    return bundle


def bundles_from_exploration(result, *, monitor_cls=None, check_ni=True,
                             observers=None,
                             config=None) -> List[ProvenanceBundle]:
    """One bundle per violation of an
    :class:`~repro.concurrency.explorer.ExplorationResult` explored on
    ``config``."""
    return [interleaving_bundle(violation, monitor_cls=monitor_cls,
                                check_ni=check_ni, observers=observers,
                                config=config)
            for violation in result.violations]


def crash_step_bundle(index, site, kind, step, *, seed=0,
                      factory=None, factory_args=(), workload=None,
                      record=None) -> ProvenanceBundle:
    """A bundle for one ``(hypercall, site, step)`` crash-step run.

    ``factory``/``workload`` are the campaign's dotted maker/workload
    paths (defaults: the standard lifecycle campaign).
    """
    from repro.engine.campaigns import DEFAULT_WORKLOAD, DEFAULT_WORLD_FACTORY

    violation = {}
    if record is not None:
        violation = {"hypercall": record.hypercall,
                     "outcome": record.outcome,
                     "rolled_back": record.rolled_back,
                     "invariants_ok": record.invariants_ok,
                     "detail": record.detail}
    return ProvenanceBundle(
        kind="crash-step", seed=seed,
        fault_plan={"index": index, "site": site, "kind": kind,
                    "step": step,
                    "factory": factory or DEFAULT_WORLD_FACTORY,
                    "factory_args": list(factory_args),
                    "workload": workload or DEFAULT_WORKLOAD},
        violation=violation,
        trace_slice=_trace_slice())


def crash_point_bundle(point, record=None, *, monitor_cls=None,
                       seed=0, config=None) -> ProvenanceBundle:
    """A bundle for one crash-in-critical-section record on ``config``;
    the arch travels in ``fault_plan["arch"]``."""
    from repro.engine.campaigns import callable_path

    violation = {}
    if record is not None:
        violation = {"violations": list(record.violations),
                     "parked": record.parked}
    return ProvenanceBundle(
        kind="crash-point", seed=seed,
        monitor=callable_path(monitor_cls),
        fault_plan={"vid": point.vid, "yield_index": point.yield_index,
                    "kind": point.kind, "detail": point.detail,
                    "locks_held": list(point.locks_held),
                    "arch": _arch_name(config)},
        violation=violation,
        trace_slice=_trace_slice())


def pure_check_bundle(report, *, max_steps=None, seed=0,
                      sample_count=128, max_exhaustive=4096,
                      fastpath_enabled=None) -> ProvenanceBundle:
    """A bundle for one hardened pure-corpus
    :class:`~repro.ccal.refinement.CheckReport` (step budgets only —
    wall-clock budgets are not reproducible)."""
    from repro import fastpath

    return ProvenanceBundle(
        kind="pure-check", seed=seed,
        check={"name": report.name, "max_steps": max_steps,
               "sample_count": sample_count,
               "max_exhaustive": max_exhaustive,
               "fastpath": fastpath.enabled()
               if fastpath_enabled is None else bool(fastpath_enabled)},
        violation={"engine": report.engine,
                   "failures": [str(f) for f in report.failures],
                   "degradations": list(report.degradations),
                   "completed": report.completed},
        budget_spent=dict(report.budget_spent),
        trace_slice=_trace_slice())


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_bundle(bundle: ProvenanceBundle) -> ReplayOutcome:
    """Re-run the check a bundle describes; compare what comes back."""
    handler = _REPLAYERS.get(bundle.kind)
    if handler is None:
        raise ValueError(
            f"unknown bundle kind {bundle.kind!r} "
            f"(known: {sorted(_REPLAYERS)})")
    return handler(bundle)


def _replay_interleaving(bundle) -> ReplayOutcome:
    from repro.concurrency.explorer import result_violations
    from repro.engine.executor import resolve_callable
    from repro.engine.memo import CheckMemo
    from repro.faults.campaign import make_interleaved_run, schedule_findings

    schedule = _schedule_from_dict(bundle.schedule or {})
    monitor_cls = resolve_callable(bundle.monitor) if bundle.monitor \
        else None
    run_world = make_interleaved_run(
        monitor_cls, _arch_config(bundle.check.get("arch")))
    state, result = run_world(41, schedule)
    findings = [(v.kind, v.detail)
                for v in result_violations(schedule, result)]
    findings += schedule_findings(
        state, result, run_world, schedule, memo=CheckMemo(),
        check_ni=bundle.check.get("check_ni", True),
        observers=bundle.check.get("observers"))
    expected = (bundle.violation.get("kind"),
                bundle.violation.get("detail"))
    return ReplayOutcome(
        kind=bundle.kind, matched=expected in findings,
        expected=bundle.violation, found=findings,
        detail=f"schedule {schedule.describe()}")


def _replay_crash_step(bundle) -> ReplayOutcome:
    from repro.engine.workers import run_crash_step_unit

    plan = bundle.fault_plan or {}
    record = run_crash_step_unit({
        "factory": plan["factory"],
        "factory_args": tuple(plan.get("factory_args", ())),
        "workload": plan["workload"], "index": plan["index"],
        "site": plan["site"], "kind": plan["kind"],
        "step": plan["step"], "seed": bundle.seed})
    found = {"hypercall": record.hypercall, "outcome": record.outcome,
             "rolled_back": record.rolled_back,
             "invariants_ok": record.invariants_ok,
             "detail": record.detail}
    expected = bundle.violation
    matched = all(found.get(key) == value
                  for key, value in expected.items()) if expected \
        else record.fired
    return ReplayOutcome(
        kind=bundle.kind, matched=matched, expected=expected,
        found=[found],
        detail=f"{plan['site']} step {plan['step']} of call "
               f"#{plan['index']}")


def _replay_crash_point(bundle) -> ReplayOutcome:
    from repro.concurrency.scheduler import YieldPoint
    from repro.engine.executor import resolve_callable
    from repro.faults.campaign import crash_point_record, make_interleaved_run

    plan = bundle.fault_plan or {}
    monitor_cls = resolve_callable(bundle.monitor) if bundle.monitor \
        else None
    run_world = make_interleaved_run(monitor_cls,
                                     _arch_config(plan.get("arch")))
    point = YieldPoint(vid=plan["vid"],
                       yield_index=plan["yield_index"],
                       kind=plan.get("kind", "step"),
                       detail=plan.get("detail"),
                       locks_held=tuple(plan.get("locks_held", ())))
    record = crash_point_record(run_world, point, seed=bundle.seed)
    found = {"violations": list(record.violations),
             "parked": record.parked}
    expected = bundle.violation
    matched = all(found.get(key) == value
                  for key, value in expected.items()) if expected \
        else True
    return ReplayOutcome(kind=bundle.kind, matched=matched,
                         expected=expected, found=[found],
                         detail=f"crash vcpu{plan['vid']}"
                                f"@yield{plan['yield_index']}")


def _replay_pure_check(bundle) -> ReplayOutcome:
    from repro import fastpath
    from repro.engine.workers import run_pure_check_unit

    check = dict(bundle.check)
    switch = fastpath.forced if check.get("fastpath", True) \
        else fastpath.disabled
    with switch():
        report = run_pure_check_unit({
            "name": check["name"], "max_steps": check.get("max_steps"),
            "seed": bundle.seed,
            "sample_count": check.get("sample_count", 128),
            "max_exhaustive": check.get("max_exhaustive", 4096),
            "fake_clock": True})
    found = {"engine": report.engine,
             "failures": [str(f) for f in report.failures],
             "degradations": list(report.degradations),
             "completed": report.completed}
    expected = bundle.violation
    # Every recorded verdict field must reproduce — including
    # ``degradations``.  An earlier whitelist silently skipped it, so
    # a replay whose engine ladder degraded differently (or a bundle
    # whose recorded degradations were edited) still reported
    # REPRODUCED and exited 0.
    matched = all(found.get(key) == value
                  for key, value in expected.items())
    return ReplayOutcome(kind=bundle.kind, matched=matched,
                         expected=expected, found=[found],
                         detail=f"function {check['name']}")


_REPLAYERS = {
    "interleaving": _replay_interleaving,
    "crash-step": _replay_crash_step,
    "crash-point": _replay_crash_point,
    "pure-check": _replay_pure_check,
}
