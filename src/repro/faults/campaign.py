"""Campaign drivers: sweep every fault site × every step of every hypercall.

The crash-step campaign is the executable form of the robustness claim:
*a hypercall that fails at any step leaves the monitor exactly where it
started, with all Sec. 5.2 invariant families intact*.  The driver

1. dry-runs each hypercall of a workload under a record-only
   :class:`~repro.faults.plane.FaultPlane` to count how often each
   injection site is reached (the injectable step indices),
2. then, for every ``(hypercall, site, step)`` triple, rebuilds the
   world deterministically, arms one fault, runs the hypercall, and
   checks three things: the typed abort surfaced
   (:class:`~repro.errors.HypercallAborted`), the state digest equals
   the pre-hypercall digest (rollback), and
   :func:`repro.security.invariants.check_all_invariants` is all green.

Running the same campaign against the deliberately broken
``NonTransactionalMonitor`` produces failures — which is what makes the
all-green run on the real monitor evidence rather than vacuity.

The bit-flip campaign is the other half of hostile-environment
robustness: arbitrary single-bit corruption of *untrusted* memory must
never disturb any invariant family, because no secure state is ever
derived from untrusted bytes.
"""

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FaultInjected, HypercallAborted, ReproError
from repro.obs import trace as _trace
from repro.faults.plane import (
    EXHAUST,
    RAISE,
    SITE_EPCM_ALLOC,
    SITE_FRAME_ALLOC,
    SITE_PHYS_WRITE,
    FaultPlane,
    installed,
)

DEFAULT_SITES = (SITE_FRAME_ALLOC, SITE_EPCM_ALLOC, SITE_PHYS_WRITE)

# Allocator sites are injected as typed exhaustion (the organic failure
# they model); everything else as a raw injected fault.
_KIND_FOR_SITE = {SITE_FRAME_ALLOC: EXHAUST, SITE_EPCM_ALLOC: EXHAUST}


def hypercall_site(name: str) -> str:
    """The crash-point site name of hypercall ``name`` (e.g. ``add_page``)."""
    return f"hc.{name}"


@dataclass
class RunRecord:
    """One faulted execution of one hypercall."""

    hypercall: str
    site: str
    step: int
    kind: str
    outcome: str                      # aborted | completed | escaped:<type>
    fired: bool
    rolled_back: Optional[bool]       # None when rollback is not expected
    invariants_ok: bool
    detail: str = ""
    fired_faults: Tuple = ()          # the plane's FiredFault trace

    @property
    def ok(self) -> bool:
        """Did this run behave exactly as the robustness claim demands?"""
        if not self.invariants_ok:
            return False
        if not self.fired:
            return self.outcome == "completed"
        if self.rolled_back is None:
            # Injections without abort semantics (bit flips): green means
            # the run completed and the sweep stayed clean.
            return self.outcome == "completed"
        return self.outcome == "aborted" and self.rolled_back


@dataclass
class CampaignReport:
    """Aggregate of a fault campaign."""

    seed: int = 0
    runs: List[RunRecord] = field(default_factory=list)

    @property
    def faults_injected(self):
        return sum(1 for run in self.runs if run.fired)

    @property
    def rollbacks_verified(self):
        return sum(1 for run in self.runs if run.fired and run.rolled_back)

    @property
    def invariant_sweeps_passed(self):
        return sum(1 for run in self.runs if run.invariants_ok)

    def failures(self) -> List[RunRecord]:
        return [run for run in self.runs if not run.ok]

    @property
    def ok(self):
        return not self.failures()

    def by_hypercall_site(self) -> Dict[Tuple[str, str], List[RunRecord]]:
        """Runs grouped by ``(hypercall, site)`` for tabular rendering."""
        grouped: Dict[Tuple[str, str], List[RunRecord]] = {}
        for run in self.runs:
            grouped.setdefault((run.hypercall, run.site), []).append(run)
        return grouped

    def render(self, title="Crash-step fault-injection campaign") -> str:
        """A per-(hypercall, site) table plus one summary line."""
        from repro.reporting import render_table
        rows = []
        for (hypercall, site), runs in sorted(
                self.by_hypercall_site().items()):
            rows.append([
                hypercall, site, len(runs),
                sum(1 for r in runs if r.fired),
                sum(1 for r in runs if r.fired and r.rolled_back),
                sum(1 for r in runs if r.invariants_ok),
                "ok" if all(r.ok for r in runs) else "FAIL",
            ])
        table = render_table(
            ["hypercall", "site", "steps", "injected", "rolled back",
             "sweeps green", "verdict"],
            rows, title=title)
        summary = (f"total: {len(self.runs)} faulted runs, "
                   f"{self.faults_injected} faults injected, "
                   f"{self.rollbacks_verified} rollbacks verified, "
                   f"{self.invariant_sweeps_passed} invariant sweeps "
                   f"passed, {len(self.failures())} failures "
                   f"(seed={self.seed})")
        return table + "\n" + summary


# ---------------------------------------------------------------------------
# Workloads: (name, invoke) pairs over a deterministic world factory
# ---------------------------------------------------------------------------


def default_world_factory(config=None):
    """A deterministic ``() -> (monitor, ctx)`` factory over TINY.

    ``ctx`` carries the workload's shared addresses (mbuf, source page,
    ELRANGE) plus whatever the calls stash (the enclave id).
    """
    from repro.hyperenclave.constants import TINY
    from repro.hyperenclave.monitor import RustMonitor

    config = config or TINY

    def factory():
        monitor = RustMonitor(config)
        primary_os = monitor.primary_os
        page = config.page_size
        ctx = {
            "page": page,
            "mbuf_pa": config.frame_base(primary_os.reserve_data_frame()),
            "src_pa": config.frame_base(primary_os.reserve_data_frame()),
            "elrange_base": 16 * page,
        }
        primary_os.gpa_write_word(ctx["src_pa"], 0xDEAD)
        return monitor, ctx

    return factory


def default_workload() -> List[Tuple[str, Callable]]:
    """The full-lifecycle workload: every hypercall appears at least once.

    create → add → remove → add → init → aug → trim → enter → exit →
    destroy, so the sweep exercises every crash point of every hypercall
    from a state where it actually mutates something (the trim removes
    the page the aug just grew, post-init — the SGX2 shrink path).
    """
    def create(monitor, ctx):
        ctx["eid"] = monitor.hc_create(
            elrange_base=ctx["elrange_base"],
            elrange_size=4 * ctx["page"],
            mbuf_va=12 * ctx["page"], mbuf_pa=ctx["mbuf_pa"],
            mbuf_size=ctx["page"])

    return [
        ("create", create),
        ("add_page", lambda m, c: m.hc_add_page(
            c["eid"], c["elrange_base"], c["src_pa"])),
        ("remove_page", lambda m, c: m.hc_remove_page(
            c["eid"], c["elrange_base"])),
        ("add_page", lambda m, c: m.hc_add_page(
            c["eid"], c["elrange_base"], c["src_pa"])),
        ("init", lambda m, c: m.hc_init(c["eid"])),
        ("aug_page", lambda m, c: m.hc_aug_page(
            c["eid"], c["elrange_base"] + c["page"])),
        ("trim_page", lambda m, c: m.hc_trim_page(
            c["eid"], c["elrange_base"] + c["page"])),
        ("enter", lambda m, c: m.hc_enter(c["eid"])),
        ("exit", lambda m, c: m.hc_exit(c["eid"])),
        ("destroy", lambda m, c: m.hc_destroy(c["eid"])),
    ]


def _world_at(world_factory, calls, upto):
    """A fresh world with ``calls[:upto]`` already applied cleanly."""
    monitor, ctx = world_factory()
    for _name, invoke in calls[:upto]:
        invoke(monitor, ctx)
    return monitor, ctx


def enumerate_injectable_steps(world_factory, calls,
                               sites: Sequence[str] = DEFAULT_SITES
                               ) -> List[Dict[str, int]]:
    """Dry-run each call under a record-only plane; hit counts per site.

    Entry ``i`` of the result maps every reached site (the shared sites
    plus the call's own ``hc.<name>`` crash points) to how many times
    the executing hypercall passed through it — the sweepable step
    indices.
    """
    per_call = []
    for index, (name, invoke) in enumerate(calls):
        monitor, ctx = _world_at(world_factory, calls, index)
        plane = FaultPlane(record_only=True)
        with installed(plane):
            invoke(monitor, ctx)
        reached = {}
        for site in tuple(sites) + (hypercall_site(name),):
            hits = plane.counts.get(site, 0)
            if hits:
                reached[site] = hits
        per_call.append(reached)
    return per_call


def scheduled_runner(invoke, monitor, ctx):
    """Run one hypercall as vCPU 0 of a one-task deterministic schedule.

    The determinism guard: handing ``runner=scheduled_runner`` to
    :func:`crash_step_campaign` must change *nothing* — same fired
    faults, same verdicts — because a single-vCPU schedule has exactly
    one enabled choice at every decision and the concurrency plane's
    journal rollback must be observation-equivalent to the sequential
    whole-monitor snapshot.
    """
    from repro.concurrency import DeterministicScheduler, Schedule

    box = {}

    def task():
        box["result"] = invoke(monitor, ctx)

    scheduler = DeterministicScheduler(monitor, [task], Schedule())
    run = scheduler.run()
    for exc in run.task_errors.values():
        raise exc
    return box.get("result")


def crash_step_units(world_factory, calls,
                     sites: Sequence[str] = DEFAULT_SITES
                     ) -> List[Tuple[int, str, str, int]]:
    """The campaign's work units, in sweep order:
    ``(call index, site, kind, step)`` for every injectable step."""
    step_table = enumerate_injectable_steps(world_factory, calls, sites)
    units = []
    for index, _call in enumerate(calls):
        for site, hits in sorted(step_table[index].items()):
            kind = _KIND_FOR_SITE.get(site, RAISE)
            for step in range(hits):
                units.append((index, site, kind, step))
    return units


def run_crash_step_unit(world_factory, calls, index, site, kind, step, *,
                        seed=0, runner=None) -> RunRecord:
    """One armed ``(hypercall, site, step)`` execution: rebuild the
    world, arm exactly one fault, run, verify rollback and invariants.
    """
    from repro.hyperenclave.txn import monitor_digest
    from repro.security.invariants import check_all_invariants

    name, invoke = calls[index]
    monitor, ctx = _world_at(world_factory, calls, index)
    pre_digest = monitor_digest(monitor)
    plane = FaultPlane(seed=seed)
    plane.arm(site, index=step, kind=kind)
    outcome, detail = "completed", ""
    with installed(plane):
        try:
            if runner is None:
                invoke(monitor, ctx)
            else:
                runner(invoke, monitor, ctx)
        except HypercallAborted as exc:
            outcome, detail = "aborted", str(exc.cause)
        except (FaultInjected, ReproError) as exc:
            # A fault that escapes the transactional wrapper
            # raw — the non-transactional signature.
            outcome = f"escaped:{type(exc).__name__}"
            detail = str(exc)
    rolled_back = monitor_digest(monitor) == pre_digest
    invariants_ok = check_all_invariants(monitor).ok
    return RunRecord(
        hypercall=name, site=site, step=step, kind=kind,
        outcome=outcome, fired=bool(plane.fired),
        rolled_back=rolled_back, invariants_ok=invariants_ok,
        detail=detail, fired_faults=tuple(plane.fired))


def crash_step_campaign(world_factory, calls, *,
                        sites: Sequence[str] = DEFAULT_SITES,
                        seed=0, runner=None) -> CampaignReport:
    """Sweep every fault site × every step index of every hypercall.

    ``world_factory() -> (monitor, ctx)`` must be deterministic;
    ``calls`` is an ordered workload of ``(name, invoke)`` pairs where
    ``invoke(monitor, ctx)`` performs exactly one hypercall.
    ``runner``, if given, wraps each *armed* invocation (the fault-free
    world rebuilding stays direct) — see :func:`scheduled_runner`.
    """
    report = CampaignReport(seed=seed)
    with _trace.span("campaign.crash-step", seed=seed, parallel=False):
        for index, site, kind, step in crash_step_units(
                world_factory, calls, sites):
            report.runs.append(run_crash_step_unit(
                world_factory, calls, index, site, kind, step,
                seed=seed, runner=runner))
    return report


# ---------------------------------------------------------------------------
# Untrusted-memory bit flips
# ---------------------------------------------------------------------------


def bitflip_campaign(world_factory, calls=(), *, flips=64,
                     seed=0) -> CampaignReport:
    """Flip seed-chosen bits in untrusted memory; invariants must hold.

    No Sec. 5.2 invariant family may depend on a single byte of
    untrusted memory, so arbitrary corruption there (rowhammer, a
    hostile OS scribbling over its own RAM) must leave every sweep
    green — and must never crash a checker.  ``calls`` (a workload
    prefix) runs first so the flips land next to a *live* enclave
    rather than an empty monitor.
    """
    monitor, _ctx = _world_at(world_factory, list(calls), len(calls))
    rng = random.Random(f"bitflip:{seed}")
    config = monitor.config
    report = CampaignReport(seed=seed)
    with _trace.span("campaign.bitflip", seed=seed, flips=flips,
                     parallel=False):
        _bitflip_sweep(monitor, rng, config, report, flips)
    return report


def _bitflip_sweep(monitor, rng, config, report, flips):
    from repro.hyperenclave.constants import WORD_BYTES
    from repro.security.invariants import check_all_invariants

    for index in range(flips):
        frame = rng.randrange(monitor.layout.secure_base)
        word = rng.randrange(config.words_per_page)
        bit = rng.randrange(64)
        paddr = config.frame_base(frame) + word * WORD_BYTES
        monitor.phys.write_word(paddr,
                                monitor.phys.read_word(paddr) ^ (1 << bit))
        invariants_ok = check_all_invariants(monitor).ok
        report.runs.append(RunRecord(
            hypercall="-", site="phys.bitflip-untrusted", step=index,
            kind="flip", outcome="completed", fired=True,
            rolled_back=None, invariants_ok=invariants_ok,
            detail=f"frame {frame} word {word} bit {bit}"))


# ---------------------------------------------------------------------------
# Crash-step noninterference
# ---------------------------------------------------------------------------


def default_two_worlds(config=None, secrets=(41, 42)):
    """A deterministic ``() -> (worlds, eid)`` factory for NI campaigns.

    Two booted monitors differing only in one word of an enclave's
    initial memory (the paper's 41-vs-42 construction), each wrapped in
    a :class:`~repro.security.state.SystemState` with a seeded data
    oracle, paired into :class:`~repro.security.noninterference.TwoWorlds`.
    """
    from repro.hyperenclave.constants import TINY
    from repro.hyperenclave.monitor import RustMonitor
    from repro.security.noninterference import TwoWorlds
    from repro.security.oracle import DataOracle
    from repro.security.state import SystemState

    config = config or TINY

    def factory():
        def one(secret):
            monitor = RustMonitor(config)
            primary_os = monitor.primary_os
            primary_os.spawn_app(1)
            page = config.page_size
            mbuf_pa = config.frame_base(primary_os.reserve_data_frame())
            src_pa = config.frame_base(primary_os.reserve_data_frame())
            primary_os.gpa_write_word(src_pa, secret)
            eid = monitor.hc_create(16 * page, 4 * page, 12 * page,
                                    mbuf_pa, page)
            monitor.hc_add_page(eid, 16 * page, src_pa)
            primary_os.gpa_write_word(src_pa, 0)
            monitor.hc_init(eid)
            return SystemState(monitor, DataOracle.seeded(13)), eid
        world_a, eid = one(secrets[0])
        world_b, _eid = one(secrets[1])
        return TwoWorlds(world_a, world_b), eid

    return factory


def default_ni_trace(eid, page_size):
    """An enclave session around every faultable lifecycle hypercall.

    Steps are transition-system :class:`~repro.security.transitions.Step`
    values (or ``(step_a, step_b)`` pairs for secret-touching moves
    inside the enclave); hypercall steps are the fault targets.
    """
    from repro.hyperenclave.monitor import HOST_ID
    from repro.security.transitions import Hypercall, MemLoad

    return [
        Hypercall(HOST_ID, "enter", (eid,)),
        (MemLoad(eid, 16 * page_size, "rax"),
         MemLoad(eid, 16 * page_size, "rax")),
        (Hypercall(eid, "exit", (eid,)), Hypercall(eid, "exit", (eid,))),
        Hypercall(HOST_ID, "aug_page", (eid, 17 * page_size)),
        Hypercall(HOST_ID, "enter", (eid,)),
        (Hypercall(eid, "exit", (eid,)), Hypercall(eid, "exit", (eid,))),
        Hypercall(HOST_ID, "destroy", (eid,)),
    ]


def _split(item):
    if isinstance(item, tuple) and len(item) == 2:
        return item
    return item, item


def _apply_tolerant(state, step):
    """Apply one step; schedule violations after an aborted hypercall
    (e.g. enclave moves after a crashed ``enter``) become no-op skips."""
    from repro.errors import SecurityError
    from repro.security.transitions import apply_step
    try:
        return apply_step(state, step).applied
    except SecurityError:
        return None


def crash_ni_campaign(two_worlds_factory=None, trace=None, *,
                      sites: Sequence[str] = DEFAULT_SITES,
                      observers=None, seed=0) -> CampaignReport:
    """The crash-step noninterference campaign (on top of Lemmas 5.2-5.4).

    The step-wise lemmas quantify over *completed* transitions; this
    campaign quantifies over *crashed* ones: for every hypercall step of
    a two-world trace and every injectable fault site/step index, the
    same fault is injected into both worlds (identical seeded planes,
    one per world so hit counting stays symmetric), and the observers
    must remain unable to distinguish the worlds — right after the
    rolled-back hypercall and through the whole remaining trace.  A
    crash that opened a distinguishing channel (partial mutations
    visible to the host, an asymmetric abort) is a violation.
    """
    from repro.hyperenclave.monitor import HOST_ID

    factory = two_worlds_factory or default_two_worlds()
    worlds_probe, eid = factory()
    observers = list(observers) if observers is not None else [HOST_ID]
    if trace is None:
        trace = default_ni_trace(
            eid, worlds_probe.a.monitor.config.page_size)

    report = CampaignReport(seed=seed)
    with _trace.span("campaign.crash-ni", seed=seed, parallel=False):
        for index in range(len(trace)):
            report.runs.extend(run_crash_ni_index(
                factory, trace, index, sites=sites, observers=observers,
                seed=seed))
    return report


def run_crash_ni_index(two_worlds_factory, trace, index, *,
                       sites: Sequence[str] = DEFAULT_SITES,
                       observers, seed=0) -> List[RunRecord]:
    """All crash-NI runs for one trace step — the campaign's unit of
    work.  Non-hypercall steps have no crash points: empty list."""
    from repro.security.noninterference import (
        indistinguishable as indist)
    from repro.security.transitions import Hypercall

    item = trace[index]
    step_a, _step_b = _split(item)
    if not isinstance(step_a, Hypercall):
        return []
    # Reach the prefix state freshly, then count this step's hits.
    worlds, _eid = two_worlds_factory()
    for prior in trace[:index]:
        pa, pb = _split(prior)
        _apply_tolerant(worlds.a, pa)
        _apply_tolerant(worlds.b, pb)
    probe = worlds.a.clone()
    recorder = FaultPlane(record_only=True)
    with installed(recorder):
        _apply_tolerant(probe, step_a)
    reached = {}
    for site in tuple(sites) + (hypercall_site(step_a.name),):
        if recorder.counts.get(site, 0):
            reached[site] = recorder.counts[site]
    runs = []
    for site, hits in sorted(reached.items()):
        kind = _KIND_FOR_SITE.get(site, RAISE)
        for step in range(hits):
            state_a = worlds.a.clone()
            state_b = worlds.b.clone()
            plane_a = FaultPlane(seed=seed).arm(site, index=step,
                                                kind=kind)
            plane_b = FaultPlane(seed=seed).arm(site, index=step,
                                                kind=kind)
            sa, sb = _split(item)
            with installed(plane_a):
                applied_a = _apply_tolerant(state_a, sa)
            with installed(plane_b):
                applied_b = _apply_tolerant(state_b, sb)
            fired = bool(plane_a.fired)
            symmetric = applied_a == applied_b and \
                bool(plane_a.fired) == bool(plane_b.fired)
            indistinguishable = True
            for observer in observers:
                if not indist(state_a, state_b, observer):
                    indistinguishable = False
            # Drain the rest of the trace; every suffix step must
            # keep the worlds indistinguishable too.
            for later in trace[index + 1:]:
                la, lb = _split(later)
                ra = _apply_tolerant(state_a, la)
                rb = _apply_tolerant(state_b, lb)
                symmetric = symmetric and (ra == rb)
                for observer in observers:
                    if not indist(state_a, state_b, observer):
                        indistinguishable = False
            outcome = "aborted" if fired else "completed"
            runs.append(RunRecord(
                hypercall=step_a.name, site=site, step=step,
                kind=kind, outcome=outcome, fired=fired,
                rolled_back=symmetric if fired else None,
                invariants_ok=indistinguishable,
                detail=f"trace step {index}"))
    return runs


# ---------------------------------------------------------------------------
# Multi-vCPU interleaving campaigns
# ---------------------------------------------------------------------------


def default_concurrent_scripts(ctx):
    """The two racing vCPU step scripts over one shared monitor.

    vCPU 0 (the management core) builds an enclave and then trims its
    only page — the SGX2 shrink path whose TLB shootdown is
    load-bearing.  vCPU 1 (the application core) races an
    enter → load → load → exit session through the same enclave.  Every
    step goes through the transition system (so each is a preemption
    point), and mis-sequenced steps — entering before ``init`` landed,
    loading after a rejected enter — are tolerated skips, which is what
    lets *every* interleaving of the two scripts run to completion.
    """
    from repro.hyperenclave.monitor import HOST_ID
    from repro.security.transitions import Hypercall, MemLoad

    page, base = ctx["page"], ctx["elrange_base"]
    host_script = [
        Hypercall(HOST_ID, "create",
                  (base, 4 * page, 12 * page, ctx["mbuf_pa"], page)),
        Hypercall(HOST_ID, "add_page", (1, base, ctx["src_pa"])),
        Hypercall(HOST_ID, "init", (1,)),
        Hypercall(HOST_ID, "trim_page", (1, base)),
    ]
    guest_script = [
        Hypercall(HOST_ID, "enter", (1,)),
        MemLoad(1, base, "rax"),
        MemLoad(1, base, "rbx"),
        Hypercall(1, "exit", (1,)),
    ]
    return [host_script, guest_script]


class ScriptWorkloads:
    """Script runners whose per-vCPU progress is observable/restorable.

    This is the scheduler's *step-drivable workload protocol*
    (``scripts``/``positions``/``run_step``/``advance``/
    ``steps_remaining``): handed to
    :class:`~repro.concurrency.DeterministicScheduler` directly, it lets
    the scheduling loop drive each script one step at a time — inline
    when the scheduling is settled, on a pooled fiber otherwise.

    The snapshot tree needs to know, at a capture point, *where in its
    script* each vCPU is — and needs restored tasks to pick up from an
    arbitrary step.  ``positions[vid]`` is the index of the step the
    vCPU is currently inside (incremented only after the step
    completes), so a task parked at the top-of-step yield restores by
    re-entering exactly that step.
    """

    def __init__(self, state, scripts, positions=None):
        self.state = state
        self.scripts = scripts
        self.positions = (list(positions) if positions is not None
                          else [0] * len(scripts))

    def steps_remaining(self, vid) -> bool:
        return self.positions[vid] < len(self.scripts[vid])

    def run_step(self, vid):
        """Execute vCPU ``vid``'s current step (position unchanged)."""
        _apply_tolerant(self.state, self.scripts[vid][self.positions[vid]])

    def advance(self, vid):
        self.positions[vid] += 1


def build_interleaved_world(monitor_cls=None, config=None, *, secret=41):
    """The interleaved-campaign world, pre-schedule: ``(state, ctx)``.

    A two-vCPU monitor, one app, and a source page holding ``secret``.
    The returned state has executed nothing yet, so it serves as the
    clean prototype :func:`execute_interleaved` clones per schedule:
    :meth:`SystemState.clone` of it is exactly the world a fresh build
    would produce.
    """
    from repro.hyperenclave.constants import TINY
    from repro.hyperenclave.monitor import RustMonitor
    from repro.security.oracle import DataOracle
    from repro.security.state import SystemState

    config = config or TINY
    cls = monitor_cls or RustMonitor
    monitor = cls(config, num_vcpus=2)
    primary_os = monitor.primary_os
    primary_os.spawn_app(1)
    page = config.page_size
    ctx = {
        "page": page,
        "mbuf_pa": config.frame_base(primary_os.reserve_data_frame()),
        "src_pa": config.frame_base(primary_os.reserve_data_frame()),
        "elrange_base": 16 * page,
    }
    primary_os.gpa_write_word(ctx["src_pa"], secret)
    return SystemState(monitor, DataOracle.seeded(13)), ctx


def execute_interleaved(prototype, ctx, schedule, *, workloads=None,
                        probe=True, tree=None, world_key=None):
    """Run ``schedule`` on a clone of a :func:`build_interleaved_world`
    prototype; returns ``(state, RunResult)``.

    ``prototype`` itself never executes, so one build serves every
    schedule.  The vCPUs run :func:`default_concurrent_scripts` unless
    ``workloads(state, ctx)`` builds a list of callables instead; the
    stale-translation detector probes after every decision unless
    ``probe`` is false.

    With ``tree`` (a :class:`~repro.concurrency.snapshot.SnapshotTree`;
    default scripts only) the run starts from a clone of the deepest
    cached ancestor of the schedule's predicted trace prefix under
    ``world_key``, with the cached prefix records pre-seeded, and
    executes only the rest; a
    :class:`~repro.concurrency.snapshot.SnapshotPlan` captures new
    nodes at snapshot-safe decisions, and the finished trace is
    recorded so children of this schedule can predict their prefixes.
    Results are byte-identical with or without the tree — the golden
    digests pin this, including under forced eviction.
    """
    from repro.concurrency import DeterministicScheduler
    from repro.concurrency.shootdown import detect_stale_translations
    from repro.concurrency.snapshot import SnapshotPlan

    node = None if tree is None else tree.lookup(world_key, schedule)
    state = (prototype if node is None else node.state).clone()
    if workloads is not None:
        built = workloads(state, dict(ctx))
    else:
        built = ScriptWorkloads(state, default_concurrent_scripts(ctx),
                                None if node is None else node.positions())
    scheduler = DeterministicScheduler(
        state.monitor, built, schedule,
        probe=detect_stale_translations if probe else None)
    if tree is not None:
        if node is not None:
            node.apply_to(scheduler)
        scheduler.snapshots = SnapshotPlan(tree, world_key, state, built,
                                           schedule, resumed_from=node)
    result = scheduler.run()
    if tree is not None:
        tree.record_trace(world_key, schedule, result.trace)
    # Scrub the source page the harness used to seed the secret —
    # the concurrent analogue of :func:`default_two_worlds` zeroing
    # it right after ``hc_add_page``.  Once inside the enclave the
    # secret is exactly what noninterference must hide; the staging
    # copy in host memory is a harness artifact, not a channel.  Tree
    # nodes are captured mid-run, pre-scrub — exactly the state a
    # from-scratch run holds at the same point.
    state.monitor.primary_os.gpa_write_word(ctx["src_pa"], 0)
    return state, result


def make_interleaved_run(monitor_cls=None, config=None, *,
                         workloads=None, probe=True):
    """A ``run_world(secret, schedule) -> (state, RunResult)`` factory.

    Each distinct ``secret``'s world is built once and every call runs
    on a clone of it (:func:`execute_interleaved`), so a campaign pays
    the assembly cost twice, not per schedule.
    """
    prototypes = {}

    def run_world(secret, schedule):
        proto = prototypes.get(secret)
        if proto is None:
            proto = prototypes[secret] = build_interleaved_world(
                monitor_cls, config, secret=secret)
        return execute_interleaved(*proto, schedule, workloads=workloads,
                                   probe=probe)

    return run_world


def schedule_findings(state, result, run_world, schedule, *, memo,
                      check_ni=True, observers=None):
    """The per-schedule check battery: ``(kind, detail)`` findings for
    one executed schedule, beyond those its ``RunResult`` carries.

    Every Sec. 5.2 invariant family plus the per-vCPU consistency check
    on the final ``state``, memoised through ``memo`` (a
    :class:`~repro.engine.memo.CheckMemo`), and with ``check_ni`` the
    two-world noninterference re-run, which reuses this execution as
    the secret-41 world and diffs final states through ``memo``'s
    digest tier.  ``run_world(secret, schedule)`` runs the secret-42
    world; ``observers`` defaults to the host.
    """
    from repro.engine.fingerprint import structure_fingerprints
    from repro.hyperenclave.monitor import HOST_ID
    from repro.security.noninterference import (
        check_schedule_noninterference_prepared)

    fps = structure_fingerprints(state.monitor)
    findings = []
    report = memo.check_invariants(state.monitor, fps)
    for family in report.violated_families():
        for item in report.violations[family]:
            findings.append(("invariant", f"[{family}] {item}"))
    for item in memo.check_vcpu(state.monitor, fps):
        findings.append(("vcpu-consistency", item))
    if check_ni:
        watchers = list(observers) if observers is not None else [HOST_ID]
        for violation in check_schedule_noninterference_prepared(
                state, result, run_world, schedule, watchers,
                diff=memo.final_state_diff):
            findings.append(("noninterference", str(violation)))
    return findings


def interleaving_campaign(monitor_cls=None, *, preemption_bound=2,
                          max_schedules=600, seed=0, check_ni=True,
                          crash=None, config=None, observers=None):
    """The systematic interleaving sweep — the concurrency tentpole.

    Bounded-preemption exploration over the racing-vCPU workload, with
    the full verification battery applied to *every* explored schedule:
    the run's own findings (lock-discipline violations, stale
    translations, vCPU errors) and :func:`schedule_findings` — all
    Sec. 5.2 invariant families plus the per-vCPU consistency check on
    the final state, and (with ``check_ni``) the two-world
    noninterference re-run: the same schedule executed in a secret-41
    and a secret-42 world must produce the identical scheduler trace
    and observer-indistinguishable final states.  Returns the
    explorer's :class:`~repro.concurrency.explorer.ExplorationResult`;
    every violation carries its replayable ``(seed, schedule)``.

    Worlds clone from one prototype per secret, and the checks go
    through a campaign-local :class:`~repro.engine.memo.CheckMemo` —
    the same battery, memo included, that the parallel fabric's
    workers run per unit.
    """
    from repro.concurrency import explore
    from repro.engine.memo import CheckMemo

    run_world = make_interleaved_run(monitor_cls, config)
    memo = CheckMemo()
    holder = {}

    def run_schedule(schedule):
        holder["state"], result = run_world(41, schedule)
        return result

    def check(schedule, result):
        return schedule_findings(holder["state"], result, run_world,
                                 schedule, memo=memo, check_ni=check_ni,
                                 observers=observers)

    with _trace.span("campaign.interleaving", seed=seed,
                     preemption_bound=preemption_bound, parallel=False):
        return explore(run_schedule, seed=seed,
                       preemption_bound=preemption_bound,
                       max_schedules=max_schedules, crash=crash,
                       check=check)


@dataclass
class CrashRecord:
    """One vCPU crash delivered at one critical-section yield point."""

    vid: int
    yield_index: int
    kind: str
    detail: Optional[str]
    locks_held: Tuple[str, ...]
    parked: bool
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Did the monitor absorb this mid-critical-section crash?"""
        return not self.violations


@dataclass
class CrashCampaignReport:
    """Aggregate of a crash-in-critical-section sweep."""

    monitor: str
    critical_yields: int = 0
    records: List[CrashRecord] = field(default_factory=list)

    def failures(self) -> List[CrashRecord]:
        return [record for record in self.records if not record.ok]

    @property
    def ok(self):
        return not self.failures()

    def render(self, title="Crash-in-critical-section campaign") -> str:
        """A per-(vid, yield-kind) table plus one summary line."""
        from repro.reporting import render_table
        grouped: Dict[Tuple[int, str], List[CrashRecord]] = {}
        for record in self.records:
            grouped.setdefault((record.vid, record.kind),
                               []).append(record)
        rows = []
        for (vid, kind), records in sorted(grouped.items()):
            rows.append([
                f"vcpu{vid}", kind, len(records),
                max(len(r.locks_held) for r in records),
                sum(1 for r in records if r.parked),
                "ok" if all(r.ok for r in records) else "FAIL",
            ])
        table = render_table(
            ["vcpu", "crashed at", "crashes", "max locks held",
             "parked", "verdict"],
            rows, title=f"{title} — {self.monitor}")
        summary = (f"total: {self.critical_yields} critical-section yield "
                   f"points, {len(self.records)} crashes delivered, "
                   f"{len(self.failures())} failures")
        return table + "\n" + summary


def crash_in_critical_section_campaign(monitor_cls=None, *, seed=0,
                                       config=None) -> CrashCampaignReport:
    """Kill a vCPU at every yield point inside a critical section.

    This is PR 1's crash model composed with the concurrency plane:
    first the root schedule runs cleanly and every yield taken while
    the yielding vCPU held locks is collected; then, for each such
    ``(vid, yield_index)``, the same schedule re-runs with the crash
    armed.  The dying vCPU's transactional scope must roll its partial
    hypercall back and release its locks (a dead vCPU may strand its
    own work, never a lock), the other vCPU must run to completion, and
    the final state must pass every invariant family plus the per-vCPU
    consistency check.
    """
    from repro.concurrency import Schedule, result_violations
    from repro.hyperenclave.monitor import RustMonitor
    from repro.security.invariants import (
        check_all_invariants,
        check_vcpu_consistency,
    )

    cls = monitor_cls or RustMonitor
    run_world = make_interleaved_run(monitor_cls, config)
    _state, baseline = run_world(41, Schedule(seed=seed))
    points = baseline.critical_yields()
    report = CrashCampaignReport(monitor=cls.__name__,
                                 critical_yields=len(points))
    with _trace.span("campaign.crash-critical-section", seed=seed,
                     points=len(points), parallel=False):
        for point in points:
            report.records.append(crash_point_record(run_world, point,
                                                     seed=seed))
    return report


def crash_point_record(run_world, point, *, seed=0) -> CrashRecord:
    """Deliver one crash at one critical-section yield point — the
    crash-in-critical-section campaign's unit of work."""
    from repro.concurrency import Schedule, result_violations
    from repro.security.invariants import (
        check_all_invariants,
        check_vcpu_consistency,
    )

    schedule = Schedule(seed=seed, crash=(point.vid, point.yield_index))
    state, result = run_world(41, schedule)
    found = [str(v) for v in result_violations(schedule, result)]
    monitor = state.monitor
    invariants = check_all_invariants(monitor)
    for family in invariants.violated_families():
        for item in invariants.violations[family]:
            found.append(f"[invariant:{family}] {item} "
                         f"(replay: {schedule.describe()})")
    for item in check_vcpu_consistency(monitor):
        found.append(f"[vcpu-consistency] {item} "
                     f"(replay: {schedule.describe()})")
    return CrashRecord(
        vid=point.vid, yield_index=point.yield_index,
        kind=point.kind, detail=point.detail,
        locks_held=point.locks_held,
        parked=point.vid in result.parked,
        violations=tuple(found))
