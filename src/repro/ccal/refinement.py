"""Co-simulation refinement checking.

This module is the Python stand-in for the paper's Coq simulation proofs:
"we prove that for any two initially related states, the effects as well
as the return value of executing the HyperEnclave function (with MIR
semantics) and executing its specification should agree." (Sec. 4.3)

A Coq proof quantifies over *all* related states; we *check* the same
statement over generated samples — exhaustive over small bounded domains
where possible, randomized otherwise.  A failure is a genuine
counterexample either way; success is evidence (the repro band's
"informal symbolic checking"), not proof.

Pieces:

* :class:`RefinementRelation` — the relation ``R`` between low and high
  abstract states (and its special case, plain equality),
* :func:`mir_impl` — adapts a mirlight function executed by the
  interpreter into the ``(args, state) -> (ret, state)`` shape so code
  can be co-simulated against its spec,
* :class:`CoSimChecker` — drives paired executions and reports
  divergences with the offending witness.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import MirError, RefinementFailure, SpecPreconditionError
from repro.mir.interp import Interpreter


@dataclass
class RefinementRelation:
    """A named relation ``R(low_state, high_state) -> bool``.

    The paper's page-table relation ``R d1 d2`` ("the page tables viewed
    as trees in d1 agree in content with those viewed as flat memory in
    d2") is built on this in :mod:`repro.spec.relation`.
    """

    name: str
    relates: Callable

    def __call__(self, low_state, high_state):
        return bool(self.relates(low_state, high_state))

    @staticmethod
    def equality(name="state-equality"):
        return RefinementRelation(name, lambda low, high: low == high)


def mir_impl(program, fn_name, trusted=(), setup=None, extract=None,
             rdata_resolvers=None, fuel=None):
    """Adapt MIR code into the spec shape ``(args, state) -> (ret, state)``.

    Each invocation builds a fresh interpreter (fresh object memory) over
    ``program``, registers the ``trusted`` specs as trusted functions
    (converted once, here), installs the abstract state, and runs
    ``fn_name``.

    ``setup(interp, args) -> mir_args`` converts high-level sample
    arguments into runtime values — e.g. allocating a struct into object
    memory and passing its PathPtr, which is how self-pointer methods are
    co-simulated.  ``extract(interp, ret) -> ret`` post-processes the
    return value symmetrically (e.g. reading back through a pointer).
    """
    trusted_functions = [spec.as_trusted_function() for spec in trusted]

    def run(args, state):
        interp = Interpreter(program, absstate=state)
        if fuel is not None:
            interp.fuel = fuel
        interp.register_trusted_many(trusted_functions)
        for owner, resolver in (rdata_resolvers or {}).items():
            interp.register_rdata_resolver(owner, resolver)
        mir_args = setup(interp, args) if setup is not None else args
        result = interp.call(fn_name, mir_args)
        ret = extract(interp, result.value) if extract is not None else result.value
        return ret, interp.absstate

    run.__name__ = f"mir:{fn_name}"
    return run


@dataclass
class CheckReport:
    """Outcome of a checking run (co-simulation or any other engine).

    The hardened harness (:mod:`repro.verification.harness`) fills the
    provenance fields: which ``engine`` ultimately produced the verdict,
    the ``degradations`` taken to get there (e.g. symbolic falling back
    to co-simulation on a budget blow-up), what the run cost
    (``budget_spent``), how many times a sampled campaign was reseeded
    (``seed_retries``), and whether the engine ran to completion or was
    cut off mid-way (``completed``).  ``solver_stats`` carries the
    bounded solver's work counters for this run — candidate assignments
    examined, models enumerated, domain values pruned, and verdict-memo
    hits (see :func:`repro.symbolic.solver.solver_stats`) — so reports
    show not just *what* was decided but how much solving it took and
    how much the fast path saved.  The defaults make a bare
    co-simulation report look exactly as it always did.
    """

    name: str
    checked: int = 0
    skipped: int = 0
    failures: List[RefinementFailure] = field(default_factory=list)
    engine: str = "cosim"
    degradations: List[str] = field(default_factory=list)
    budget_spent: Dict = field(default_factory=dict)
    seed_retries: int = 0
    completed: bool = True
    solver_stats: Dict = field(default_factory=dict)

    @property
    def ok(self):
        return not self.failures

    def __str__(self):
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        base = (f"[{status}] {self.name}: {self.checked} checked, "
                f"{self.skipped} outside precondition "
                f"(engine={self.engine}")
        if self.degradations:
            base += f", degraded {len(self.degradations)}x"
        if self.seed_retries:
            base += f", reseeded {self.seed_retries}x"
        if not self.completed:
            base += ", INCOMPLETE"
        return base + ")"


class CoSimChecker:
    """Checks that an implementation refines a specification.

    ``impl`` and ``spec`` both have the shape ``(args, state) -> (ret,
    state)``; ``relation`` relates the two final states (defaults to
    equality — the common case when both run over the *same* abstract
    state type); ``ret_relation`` relates return values (defaults to
    ``==``).

    When the low and high sides use different state types (the flat vs
    tree page tables of Sec. 4.1) the sample supplies both initial states
    and ``relation`` is the paper's ``R``.
    """

    def __init__(self, name, impl, spec, relation=None, ret_relation=None,
                 stop_at_first=False):
        self.name = name
        self.impl = impl
        self.spec = spec
        self.relation = relation or RefinementRelation.equality()
        self.ret_relation = ret_relation or (lambda a, b: a == b)
        self.stop_at_first = stop_at_first

    def check(self, samples, budget=None) -> CheckReport:
        """Run every sample; collect divergences.

        A sample is either ``(args, state)`` — both sides start from the
        same state — or ``(args, low_state, high_state)`` for relations
        across different representations.  Samples rejected by the spec's
        precondition are skipped (outside the verified domain); a
        precondition failure *only on one side* is itself a divergence:
        when the spec accepted the sample and the code side raises
        :class:`~repro.errors.SpecPreconditionError` (the code broke a
        callee's or a primitive's precondition) or any
        :class:`~repro.errors.MirError` (a failed ``assert``, a stuck or
        ill-typed step), the sample counts as checked and a
        :class:`~repro.errors.RefinementFailure` names the function and
        the exception.  Any other exception propagates.

        ``budget`` (a :class:`repro.budget.Budget`) is spent one unit
        per sample; exhaustion raises
        :class:`~repro.errors.CheckBudgetExceeded` so the driver can
        degrade rather than hang on an endless sample stream.
        """
        report = CheckReport(self.name)
        for sample in samples:
            if budget is not None:
                budget.spend(1, what=f"cosim sample of {self.name}")
            if len(sample) == 2:
                args, low_state = sample
                high_state = low_state
            else:
                args, low_state, high_state = sample
            try:
                spec_ret, spec_state = self.spec(args, high_state)
            except SpecPreconditionError:
                report.skipped += 1
                continue
            try:
                impl_ret, impl_state = self.impl(args, low_state)
            except (SpecPreconditionError, MirError) as exc:
                failure = RefinementFailure(
                    f"{self.name}: code raised {type(exc).__name__} on "
                    f"args={args!r} where the spec returned "
                    f"{spec_ret!r}: {exc}",
                    counterexample={
                        "args": args,
                        "low_state": low_state,
                        "high_state": high_state,
                        "impl_error": exc,
                        "spec_ret": spec_ret,
                    })
            else:
                failure = self._compare(args, low_state, high_state,
                                        impl_ret, impl_state,
                                        spec_ret, spec_state)
            report.checked += 1
            if failure is not None:
                report.failures.append(failure)
                if self.stop_at_first:
                    break
        return report

    def check_or_raise(self, samples) -> CheckReport:
        """Like :meth:`check` but raises the first divergence."""
        report = self.check(samples)
        if not report.ok:
            raise report.failures[0]
        return report

    def _compare(self, args, low_state, high_state,
                 impl_ret, impl_state, spec_ret, spec_state):
        if not self.ret_relation(impl_ret, spec_ret):
            return RefinementFailure(
                f"{self.name}: return values diverge on args={args!r}: "
                f"code returned {impl_ret!r}, spec returned {spec_ret!r}",
                counterexample={
                    "args": args,
                    "low_state": low_state,
                    "high_state": high_state,
                    "impl_ret": impl_ret,
                    "spec_ret": spec_ret,
                })
        if not self.relation(impl_state, spec_state):
            return RefinementFailure(
                f"{self.name}: final states unrelated under "
                f"{self.relation.name} on args={args!r}",
                counterexample={
                    "args": args,
                    "low_state": low_state,
                    "high_state": high_state,
                    "impl_state": impl_state,
                    "spec_state": spec_state,
                })
        return None
