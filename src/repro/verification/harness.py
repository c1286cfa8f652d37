"""The hardened checking harness: budgets + graceful degradation.

A checker that hangs is worse than a checker that answers less: the
harness must survive hostile inputs (path explosions, endless sample
streams, adversarially slow geometries) and still return a verdict.
This module wraps the checking engines in a degradation chain

    symbolic  →  exhaustive-bounded  →  property sampling

where each engine gets the budget the previous engines left behind
(:class:`repro.budget.Budget`), and falling through the chain is
*recorded*, not hidden: the returned
:class:`~repro.ccal.refinement.CheckReport` names the ``engine`` that
produced the verdict, lists every ``degradations`` step taken to get
there, and carries ``budget_spent`` so reports show where the time
went.

* **symbolic** — :func:`repro.symbolic.verify_assertions` +
  :func:`repro.symbolic.check_equivalence`: a bounded *proof* over the
  whole domain.  Strongest, most expensive, and the one that can blow
  up (``SymbolicUnsupported`` on corpus fragments the executor cannot
  handle, :class:`~repro.errors.CheckBudgetExceeded` on explosion).
* **exhaustive-bounded** — run the MIR interpreter *concretely* on
  every input in the bounded domain and compare against the Python
  reference.  Same coverage as the symbolic cell enumeration, no path
  reasoning; skipped outright (with a recorded degradation) when the
  domain product is too large to enumerate.
* **property sampling** — seeded random inputs from the same domains;
  the engine of last resort, always cheap enough to say *something*.
  If even sampling runs out of budget the partial tally is returned
  with ``completed=False`` — never an exception, never a hang.

Stateful (co-simulation) checking has its own hardening in
:func:`check_stateful_hardened`: the budget is threaded into
:meth:`~repro.ccal.refinement.CoSimChecker.check`, and a sampled
campaign whose samples mostly fall outside the spec precondition is
retried with a reseeded generator — boundedly (``max_reseeds``), with
the retry count surfaced as ``CheckReport.seed_retries``.
"""

import hashlib
import itertools
import random

from repro.budget import Budget
from repro.ccal.refinement import CheckReport, mir_impl
from repro.obs import trace as _trace
from repro.errors import (
    CheckBudgetExceeded,
    RefinementFailure,
    ReproError,
)
from repro.mir.value import mk_bool, mk_u64
from repro.symbolic import (
    SymbolicUnsupported,
    check_equivalence,
    solver_stats,
    stats_delta,
    verify_assertions,
)
from repro.verification.pure_refs import default_domains, pure_reference

ENGINE_SYMBOLIC = "symbolic"
ENGINE_EXHAUSTIVE = "exhaustive-bounded"
ENGINE_SAMPLING = "property-sampling"

PURE_ENGINE_CHAIN = (ENGINE_SYMBOLIC, ENGINE_EXHAUSTIVE, ENGINE_SAMPLING)


class _BudgetPool:
    """Total step/second allowance shared by a whole degradation chain.

    Each engine draws a fresh :class:`Budget` bounded by whatever the
    pool has left, so an abandoned engine's spend is charged against
    its successors — "degrading" never resets the clock.
    """

    def __init__(self, max_steps=None, max_seconds=None, clock=None):
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self._clock = clock
        self.steps_spent = 0
        self.seconds_spent = 0.0
        self._live = None

    def slice(self, fraction=1.0) -> Budget:
        """A Budget limited to ``fraction`` of the remaining allowance.

        Non-final engines take a fraction < 1 so that blowing up still
        leaves the cheaper fallbacks something to spend — otherwise a
        path explosion in the first engine would "degrade" every
        successor straight to zero.
        """
        slice_steps = None
        if self.max_steps is not None:
            remaining = max(self.max_steps - self.steps_spent, 0)
            slice_steps = max(int(remaining * fraction), 1) \
                if remaining else 0
        slice_seconds = None
        if self.max_seconds is not None:
            remaining = max(self.max_seconds - self.seconds_spent, 0.0)
            slice_seconds = remaining * fraction if remaining else 0.0
        kwargs = {} if self._clock is None else {"clock": self._clock}
        self._live = Budget(max_steps=slice_steps,
                            max_seconds=slice_seconds, **kwargs)
        return self._live

    def settle(self):
        """Charge the live slice's spend back to the pool."""
        if self._live is not None:
            self.steps_spent += self._live.steps
            self.seconds_spent += self._live.seconds
            self._live = None

    @property
    def exhausted(self):
        """True once either axis of the pool has nothing left to give."""
        if self.max_steps is not None and self.steps_spent >= self.max_steps:
            return True
        if self.max_seconds is not None and \
                self.seconds_spent >= self.max_seconds:
            return True
        return False

    def spent(self):
        return {"steps": self.steps_spent,
                "seconds": round(self.seconds_spent, 6)}


def _wrap(value):
    """A Python domain value as the MIR Value the corpus expects."""
    if isinstance(value, bool):
        return mk_bool(value)
    return mk_u64(value)


def _run_concrete(impl, state, reference, args, failures, cap=5):
    """One concrete MIR-vs-reference comparison; collect divergences."""
    try:
        mir_value, _state = impl(args, state)
    except CheckBudgetExceeded:
        raise
    except ReproError as exc:
        if len(failures) < cap:
            failures.append(RefinementFailure(
                f"MIR execution raised {type(exc).__name__}: {exc}",
                counterexample=args))
        return
    ref_value = reference(*args)
    if mir_value != ref_value:
        if len(failures) < cap:
            failures.append(RefinementFailure(
                f"mir={mir_value} ref={ref_value}",
                counterexample=args))


def split_budget(max_steps, max_seconds, shares):
    """Even per-unit slices of a grid-wide checking allowance.

    The parallel fabric fans a check grid out across workers; each unit
    gets ``total // shares`` steps (at least 1) and ``total / shares``
    seconds, so the whole grid spends no more than the caller allowed —
    and the sequential grid uses the *same* slices, keeping the two
    byte-identical.  ``None`` (unlimited) stays ``None``.
    """
    if shares <= 0:
        raise ValueError("shares must be positive")
    steps = None if max_steps is None else max(1, max_steps // shares)
    seconds = None if max_seconds is None else max_seconds / shares
    return steps, seconds


def pure_check_key(name, *, max_steps=None, seed=0, sample_count=128,
                   max_exhaustive=4096, config=None) -> str:
    """The blake2b identity of one *deterministic* hardened pure check.

    Two :func:`check_pure_hardened` runs with equal keys produce equal
    reports, so the key indexes a durable cross-run verdict memo (the
    ``pure-verdict`` table of a
    :class:`~repro.service.store.MemoStore`).  Wall-clock budgets are
    deliberately absent — a seconds budget is not reproducible across
    machines (the provenance-bundle rule), so only frozen-clock,
    step-budgeted checks may be memoised under this key.
    """
    canonical = repr((name, max_steps, seed, sample_count,
                      max_exhaustive, repr(config))).encode()
    return hashlib.blake2b(canonical, digest_size=16).hexdigest()


def check_pure_hardened(model, name, *, max_steps=None, max_seconds=None,
                        seed=0, sample_count=128, max_exhaustive=4096,
                        clock=None) -> CheckReport:
    """Check one pure corpus function through the degradation chain.

    Never raises for budget reasons and never hangs: a verdict (possibly
    ``completed=False`` with whatever the last engine managed) always
    comes back, with the taken path recorded on the report.
    """
    pool = _BudgetPool(max_steps=max_steps, max_seconds=max_seconds,
                       clock=clock)
    domains = default_domains(name, model.config)
    reference = pure_reference(name, model.config, model.layout)
    params = model.program.functions[name].params
    degradations = []
    solver_before = solver_stats()

    def degrade(engine, reason):
        degradations.append(f"{engine}: {reason}")
        _trace.event("degradation", name=name, engine=engine,
                     reason=str(reason))

    def finish(engine, checked, failures, completed=True):
        pool.settle()
        _trace.event("verdict", name=name, engine=engine,
                     checked=checked, failures=len(failures),
                     completed=completed)
        return CheckReport(name=name, checked=checked, failures=failures,
                           engine=engine, degradations=degradations,
                           budget_spent=pool.spent(), completed=completed,
                           solver_stats=stats_delta(solver_before))

    with _trace.span("check.pure", name=name):
        # -- engine 1: symbolic (keep 40% of the pool for fallbacks) -------
        budget = pool.slice(0.6)
        try:
            with _trace.span("engine.symbolic", name=name):
                failures = []
                ok, assertion_failures = verify_assertions(
                    model.program, name, domains, budget=budget)
                if not ok:
                    failures.extend(RefinementFailure(
                        f"assertion can fail: {ob.message} with {witness}",
                        counterexample=witness)
                        for ob, witness in assertion_failures)
                mismatches, stats = check_equivalence(
                    model.program, name, reference, domains, budget=budget)
                failures.extend(RefinementFailure(
                    f"mismatch at {witness}: mir={mv} ref={rv}",
                    counterexample=witness)
                    for witness, mv, rv in mismatches[:5])
                return finish(ENGINE_SYMBOLIC, stats["cells"], failures)
        except (CheckBudgetExceeded, SymbolicUnsupported) as exc:
            degrade(ENGINE_SYMBOLIC, exc)
            pool.settle()

        # -- engine 2: exhaustive-bounded concrete enumeration -------------
        impl = mir_impl(model.program, name, trusted=model.trusted)
        state = model.initial_absstate()
        value_lists = [domains.of(param) for param in params]
        space = 1
        for values in value_lists:
            space *= max(len(values), 1)
        if space > max_exhaustive:
            degrade(ENGINE_EXHAUSTIVE,
                    f"domain too large ({space} inputs > cap "
                    f"{max_exhaustive})")
        elif pool.exhausted:
            degrade(ENGINE_EXHAUSTIVE, "no budget left")
        else:
            budget = pool.slice(0.7)
            failures, checked = [], 0
            try:
                with _trace.span("engine.exhaustive", name=name):
                    for combo in itertools.product(*value_lists):
                        budget.spend(1, what=f"exhaustive input of {name}")
                        args = tuple(_wrap(v) for v in combo)
                        _run_concrete(impl, state, reference, args,
                                      failures)
                        checked += 1
                    return finish(ENGINE_EXHAUSTIVE, checked, failures)
            except CheckBudgetExceeded as exc:
                degrade(ENGINE_EXHAUSTIVE, exc)
                pool.settle()

        # -- engine 3: property sampling (last resort, partial on cutoff) --
        rng = random.Random(f"{name}:{seed}")
        budget = pool.slice()
        failures, checked, completed = [], 0, True
        with _trace.span("engine.sampling", name=name):
            try:
                for _ in range(sample_count):
                    budget.spend(1, what=f"sampled input of {name}")
                    combo = [rng.choice(values) if values else 0
                             for values in value_lists]
                    args = tuple(_wrap(v) for v in combo)
                    _run_concrete(impl, state, reference, args, failures)
                    checked += 1
            except CheckBudgetExceeded as exc:
                degrade(ENGINE_SAMPLING, exc)
                completed = False
            return finish(ENGINE_SAMPLING, checked, failures,
                          completed=completed)


def check_stateful_hardened(model, name, *, max_steps=None,
                            max_seconds=None, seed=0, count=24,
                            min_checked=1, max_reseeds=2,
                            clock=None) -> CheckReport:
    """Co-simulate one stateful function under budget, reseeding boundedly.

    The checker is the layer-modular one every stateful verdict uses
    (:func:`repro.verification.code_proofs.cosim_checker`).
    A sampled campaign is only evidence if enough samples land inside
    the spec's precondition; when fewer than ``min_checked`` do, the
    generator is reseeded and the campaign rerun — at most
    ``max_reseeds`` times, each retry charged against the same budget.
    Budget exhaustion mid-campaign returns ``completed=False`` instead
    of raising, so a caller sweeping the whole corpus cannot be hung or
    crashed by one hostile function.
    """
    from repro.verification.code_proofs import cosim_checker, sample_states

    pool = _BudgetPool(max_steps=max_steps, max_seconds=max_seconds,
                       clock=clock)
    solver_before = solver_stats()
    checker = cosim_checker(model, name)
    degradations = []
    last = None
    with _trace.span("check.stateful", name=name):
        for attempt in range(max_reseeds + 1):
            if pool.exhausted and attempt:
                degradations.append(
                    f"reseed {attempt}: no budget left, stopping retries")
                _trace.event("reseed", name=name, attempt=attempt,
                             reason="no budget left")
                break
            budget = pool.slice()
            samples = sample_states(model, name, seed=seed + attempt,
                                    count=count)
            try:
                last = checker.check(samples, budget=budget)
            except CheckBudgetExceeded as exc:
                pool.settle()
                degradations.append(
                    f"cosim (seed {seed + attempt}): {exc}")
                _trace.event("degradation", name=name, engine="cosim",
                             reason=str(exc))
                _trace.event("verdict", name=name, engine="cosim",
                             checked=0, failures=0, completed=False)
                return CheckReport(
                    name=name, checked=0, failures=[], engine="cosim",
                    degradations=degradations, budget_spent=pool.spent(),
                    seed_retries=attempt, completed=False,
                    solver_stats=stats_delta(solver_before))
            pool.settle()
            if last.checked >= min_checked or last.failures:
                break
            degradations.append(
                f"reseed {attempt + 1}: only {last.checked} of {count} "
                f"samples inside the precondition (seed {seed + attempt})")
            _trace.event("reseed", name=name, attempt=attempt + 1,
                         checked=last.checked)
        retries = sum(1 for d in degradations if d.startswith("reseed"))
        _trace.event("verdict", name=name, engine="cosim",
                     checked=last.checked if last else 0,
                     failures=len(last.failures) if last else 0,
                     completed=True)
        return CheckReport(
            name=name, checked=last.checked if last else 0,
            skipped=last.skipped if last else 0,
            failures=last.failures if last else [],
            engine="cosim", degradations=degradations,
            budget_spent=pool.spent(), seed_retries=retries,
            completed=True, solver_stats=stats_delta(solver_before))
