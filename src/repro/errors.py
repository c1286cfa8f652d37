"""Exception hierarchy shared across the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one type at the top level.  The sub-hierarchy mirrors
the package layout: MIR semantics errors, CCAL specification errors,
refinement-checking failures, and security-property violations.
"""


class ReproError(Exception):
    """Base class of all errors raised by the repro library.

    Errors can cross process boundaries (the parallel checking fabric
    ships :class:`~repro.concurrency.scheduler.RunResult` task errors
    back from worker processes), but default exception pickling
    reconstructs via ``cls(*self.args)`` — wrong for the subclasses
    below that compose a single message in ``__init__`` and stash the
    original arguments as attributes.  Those subclasses list their
    constructor attributes in ``_CTOR_ATTRS`` (in signature order) and
    pickle by re-invoking the constructor.
    """

    _CTOR_ATTRS = ()

    def __reduce__(self):
        if self._CTOR_ATTRS:
            return (type(self),
                    tuple(getattr(self, name)
                          for name in self._CTOR_ATTRS))
        return super().__reduce__()


class ConfigError(ReproError):
    """A runtime configuration knob holds an unusable value.

    Carries the knob's name (e.g. the ``REPRO_CHECK_WORKERS``
    environment variable), the offending value, and why it was
    rejected, so the message names exactly what to fix — instead of a
    bare ``ValueError: invalid literal for int()`` surfacing from deep
    inside the executor.
    """

    _CTOR_ATTRS = ("name", "value", "reason")

    def __init__(self, name, value, reason):
        super().__init__(f"{name}={value!r}: {reason}")
        self.name = name
        self.value = value
        self.reason = reason


class CorruptArtifact(ReproError, ValueError):
    """A persisted artifact (checkpoint, trace, bundle, memo log) is torn.

    Raised when loading a file whose framing or checksum does not
    survive validation — a truncated JSON bundle, a JSONL trace cut
    mid-line, a checkpoint whose CRC does not match.  Carries the path
    and what exactly failed, so the message says *which* artifact to
    delete or regenerate instead of surfacing a bare
    ``JSONDecodeError`` from deep inside a loader.

    Derives from :class:`ValueError` as well, so pre-existing callers
    that treated "cannot parse this file" as a ``ValueError`` keep
    working unchanged.
    """

    _CTOR_ATTRS = ("path", "reason")

    def __init__(self, path, reason):
        super().__init__(f"corrupt artifact {path!r}: {reason}")
        self.path = path
        self.reason = reason

    def __str__(self):
        return self.args[0]


class CheckpointMismatch(ReproError):
    """A checkpoint was offered to a campaign it does not belong to.

    Every checkpoint is keyed by the blake2b digest of its campaign
    spec; resuming with different parameters would silently splice two
    unrelated explorations, so the loader refuses with both digests.
    """

    _CTOR_ATTRS = ("path", "expected", "found")

    def __init__(self, path, expected, found):
        super().__init__(
            f"checkpoint {path!r} belongs to campaign {found}, not "
            f"{expected} — resume with the original parameters or "
            f"start a fresh store")
        self.path = path
        self.expected = expected
        self.found = found


class ShardQuarantined(ReproError):
    """A shard failed repeatedly and was quarantined, not retried forever.

    The resilient executor retries a failing shard with backoff; after
    ``attempts`` failures it records this typed result for each of the
    shard's units instead of sinking the whole campaign.  ``cause``
    is the stringified final failure (the exception itself may not
    pickle, so only its rendering travels).
    """

    _CTOR_ATTRS = ("shard", "attempts", "cause")

    def __init__(self, shard, attempts, cause):
        super().__init__(
            f"shard {shard} quarantined after {attempts} failed "
            f"attempt(s): {cause}")
        self.shard = shard
        self.attempts = attempts
        self.cause = cause


# ---------------------------------------------------------------------------
# MIR semantics errors
# ---------------------------------------------------------------------------


class MirError(ReproError):
    """Base class for errors in the mirlight language and its semantics."""


class MirParseError(MirError):
    """The mirlight textual source could not be parsed."""

    def __init__(self, message, line=None, column=None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class MirTypeError(MirError):
    """A value was used at an incompatible type during evaluation.

    The paper's semantics rely on rustc having already type-checked the
    program, so hitting this during interpretation means the transcription
    (our ``mirlightgen`` substitute) produced an ill-typed program.
    """


class MirRuntimeError(MirError):
    """The operational semantics got stuck (no applicable step rule)."""


class MirAssertError(MirRuntimeError):
    """An ``assert`` terminator failed (models a Rust panic)."""

    def __init__(self, message, function=None, block=None):
        where = ""
        if function is not None:
            where = f" in {function}"
            if block is not None:
                where += f" (block {block})"
        super().__init__(f"assertion failed{where}: {message}")
        self.function = function
        self.block = block


class EncapsulationViolation(MirError):
    """A pointer was dereferenced outside the layer that owns its pointee.

    RData pointers (Sec. 3.4 case 3) are opaque handles: the semantics
    provide no way to read or write through them, so any attempt from a
    layer other than the forging layer raises this error.  Raising instead
    of silently reading is exactly the encapsulation guarantee the paper's
    layered proofs rely on.
    """


class OutOfFuel(MirError):
    """The small-step machine exceeded its step budget.

    Bounded checking intentionally cuts off runaway executions; for the
    HyperEnclave corpus every function terminates well within default fuel.
    """


class UnboundSymbolicVariable(MirError, KeyError):
    """A constraint references a symbolic variable with no declared domain.

    The bounded solver can only enumerate variables whose domains the
    caller declared; silently treating an unbound variable as an empty
    domain would turn "I cannot decide this" into "unsatisfiable", which
    is unsound for :func:`~repro.symbolic.solver.must_hold` (an unbound
    negated property would be "proved").  ``enumerate_models``
    short-circuits with this error *before* enumerating anything.

    Derives from :class:`KeyError` as well so pre-existing callers that
    treated a missing domain as "cannot prune / cannot decide" keep
    working unchanged.
    """

    _CTOR_ATTRS = ("names",)

    def __init__(self, names):
        if isinstance(names, str):
            names = (names,)
        self.names = tuple(sorted(names))
        listing = ", ".join(repr(n) for n in self.names)
        # Exception.__str__ on a KeyError repr()s a single arg; pass the
        # composed message as the only argument for readable output.
        super().__init__(
            f"no domain declared for symbolic variable(s) {listing}")

    def __str__(self):
        return self.args[0]


# ---------------------------------------------------------------------------
# CCAL / specification errors
# ---------------------------------------------------------------------------


class SpecError(ReproError):
    """A functional specification was violated or misused."""


class SpecPreconditionError(SpecError):
    """A specification was invoked on arguments outside its precondition."""


class LayerError(ReproError):
    """A layer stack was assembled inconsistently.

    Examples: a function calling upward into a higher layer (the paper
    requires a strict caller-callee order), or two layers claiming
    ownership of the same abstract-state field.
    """


class RefinementFailure(ReproError):
    """A co-simulation refinement check found a counterexample.

    Carries the diverging pair so benches and tests can report the exact
    witness, like a Coq proof failing with the offending goal.
    """

    def __init__(self, message, counterexample=None):
        super().__init__(message)
        self.counterexample = counterexample


# ---------------------------------------------------------------------------
# Security property violations
# ---------------------------------------------------------------------------


class SecurityError(ReproError):
    """Base class for security property violations."""


class InvariantViolation(SecurityError):
    """One of the Sec. 5.2 page-table invariants does not hold.

    ``invariant`` names the violated family (e.g. ``"elrange-isolation"``)
    and ``witness`` carries the concrete offending addresses/entries.
    """

    _CTOR_ATTRS = ("invariant", "message", "witness")

    def __init__(self, invariant, message, witness=None):
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.message = message
        self.witness = witness


class NoninterferenceViolation(SecurityError):
    """A step-wise noninterference lemma (5.2-5.4) found distinguishable states."""

    _CTOR_ATTRS = ("lemma", "message", "witness")

    def __init__(self, lemma, message, witness=None):
        super().__init__(f"[{lemma}] {message}")
        self.lemma = lemma
        self.message = message
        self.witness = witness


# ---------------------------------------------------------------------------
# HyperEnclave model errors
# ---------------------------------------------------------------------------


class HypervisorError(ReproError):
    """Base class for errors raised by the HyperEnclave model itself."""


class ResourceExhausted(HypervisorError):
    """A finite monitor resource (frame pool, EPC, ...) ran out.

    Every allocator in the model raises a subclass of this, so the
    transactional hypercall layer can treat "out of resources" as one
    recoverable error family: roll back and re-raise typed, never leave
    a half-applied hypercall behind.
    """


class OutOfMemoryError(ResourceExhausted):
    """The secure-memory frame allocator is exhausted."""


class PagingError(HypervisorError):
    """A page-table operation failed (already mapped, not mapped, bad VA...)."""


class EpcmError(HypervisorError):
    """EPCM bookkeeping rejected an operation (page busy, wrong owner...)."""


class EpcExhausted(EpcmError, ResourceExhausted):
    """No free EPC frame is left for an allocation."""


class HypercallError(HypervisorError):
    """A hypercall was rejected by RustMonitor's validation."""


class HypercallAborted(HypercallError):
    """A hypercall failed *mid-sequence* and was rolled back.

    Raised by the transactional wrapper after it has restored the
    monitor to its pre-hypercall state; ``hypercall`` names the call and
    ``__cause__`` carries the original failure (an injected fault, an
    exhausted allocator, ...).  Observing this error therefore comes
    with the guarantee that no partial EPCM/GPT/EPT/allocator mutation
    survived.
    """

    _CTOR_ATTRS = ("hypercall", "cause")

    def __init__(self, hypercall, cause):
        super().__init__(f"{hypercall} aborted and rolled back: {cause}")
        self.hypercall = hypercall
        self.cause = cause


class FaultInjected(ReproError):
    """An armed fault-injection site fired.

    Deliberately *not* a :class:`HypervisorError`: injected faults model
    the environment failing underneath the monitor (broken hardware, an
    adversarial crash), so code that catches hypervisor errors for
    normal control flow never swallows one by accident.  The
    transactional hypercall layer converts it into a rolled-back
    :class:`HypercallAborted`.
    """

    _CTOR_ATTRS = ("site", "hit", "label")

    def __init__(self, site, hit=None, label=None):
        where = f" (hit {hit}" + (f", {label})" if label else ")") \
            if hit is not None else ""
        super().__init__(f"injected fault at site {site!r}{where}")
        self.site = site
        self.hit = hit
        self.label = label


class LockProtocolViolation(ReproError):
    """The multi-vCPU lock discipline was broken.

    Recorded by the :class:`repro.concurrency.locks.LockManager` when
    a vCPU acquires locks against the global order, still holds a lock
    at a hypercall return, or mutates a lock-guarded structure without
    holding its owning lock; raised when a hypercall entered outside
    the scheduler's script driver needs a lock another vCPU holds.
    Deliberately *not* a :class:`HypervisorError` — like
    :class:`FaultInjected`, it reports the checking harness catching
    the monitor misbehaving, so code that catches hypervisor errors for
    normal control flow (validation rejections, exhaustion) can never
    swallow a discipline violation by accident.
    """

    _CTOR_ATTRS = ("rule", "vid", "message")

    def __init__(self, rule, vid, message):
        super().__init__(f"[{rule}] vCPU {vid}: {message}")
        # lock-order | hold-across-return | unlocked-mutation
        # | contended-entry
        self.rule = rule
        self.vid = vid
        self.message = message


class StaleTranslation(ReproError):
    """A vCPU's TLB holds a translation its page tables no longer back.

    The concurrent analogue of the paper's Sec. 5 use-after-unmap
    concern: a page was unmapped (``hc_trim_page``, ``hc_remove_page``,
    ``hc_destroy``) while another vCPU still caches the translation —
    the TLB shootdown protocol exists to make this impossible.  Like
    :class:`FaultInjected` and :class:`LockProtocolViolation`, this is
    *not* a :class:`HypervisorError`: it is the detector convicting the
    monitor, and must never be absorbed by normal error handling.
    """

    _CTOR_ATTRS = ("vid", "principal", "va_page", "cached_pa", "reason")

    def __init__(self, vid, principal, va_page, cached_pa, reason):
        super().__init__(
            f"vCPU {vid}: principal {principal} caches "
            f"{va_page:#x} -> {cached_pa:#x} but the page tables say "
            f"{reason}")
        self.vid = vid
        self.principal = principal
        self.va_page = va_page
        self.cached_pa = cached_pa
        self.reason = reason


class CheckBudgetExceeded(ReproError):
    """A checking engine ran past its wall-clock or step budget.

    The hardened harness catches this and degrades to the next cheaper
    engine instead of hanging; ``spent`` records what was consumed.
    """

    def __init__(self, message, spent=None):
        super().__init__(message)
        self.spent = spent or {}


class TranslationFault(HypervisorError):
    """An address translation (GPT or EPT walk) did not resolve.

    Models the hardware page fault / EPT violation a real machine would
    deliver; the security model treats faulting accesses as no-ops.
    """

    def __init__(self, message, stage=None, va=None):
        super().__init__(message)
        self.stage = stage  # "gpt" or "ept"
        self.va = va


# ---------------------------------------------------------------------------
# Checking-as-a-service errors
# ---------------------------------------------------------------------------


class ServiceError(ReproError):
    """Base class for checking-as-a-service (daemon/scheduler/client)
    errors."""


class AdmissionRefused(ServiceError):
    """The service refused a campaign submission — the 429-style
    backpressure verdict.

    Raised when the admission queue is full or the daemon is draining.
    Carries why and a suggested ``retry_after`` delay (seconds, or
    ``None`` when retrying is pointless, e.g. during a drain), so a
    client can distinguish "come back shortly" from "this instance is
    going away".
    """

    _CTOR_ATTRS = ("reason", "retry_after")

    def __init__(self, reason, retry_after=None):
        hint = f" (retry after {retry_after}s)" \
            if retry_after is not None else ""
        super().__init__(f"admission refused: {reason}{hint}")
        self.reason = reason
        self.retry_after = retry_after


class CampaignNotFound(ServiceError, KeyError):
    """A campaign id was presented that the service does not know.

    Derives from :class:`KeyError` as well, so registry-shaped callers
    that treat an unknown id as a missing key keep working.
    """

    _CTOR_ATTRS = ("campaign_id",)

    def __init__(self, campaign_id):
        super().__init__(f"unknown campaign {campaign_id!r}")
        self.campaign_id = campaign_id

    def __str__(self):
        return self.args[0]


class CampaignBudgetExceeded(ServiceError):
    """A scheduled campaign ran past its wall-clock or wave budget.

    The scheduler stops scheduling the campaign and records this as its
    failure; the last wave-boundary checkpoint survives, so the
    campaign stays resumable under a larger budget.
    """

    _CTOR_ATTRS = ("campaign_id", "budget", "limit", "spent")

    def __init__(self, campaign_id, budget, limit, spent):
        super().__init__(
            f"campaign {campaign_id!r} exceeded its {budget} budget "
            f"({spent} of {limit}) — checkpoint kept, resume with a "
            f"larger budget")
        self.campaign_id = campaign_id
        self.budget = budget
        self.limit = limit
        self.spent = spent


class DeadlineExceeded(ServiceError):
    """A client operation did not finish inside its deadline.

    Carries the operation, the deadline (seconds), and the stringified
    last failure, so a caller sees *why* the final attempt did not land
    instead of a bare timeout.
    """

    _CTOR_ATTRS = ("operation", "deadline", "cause")

    def __init__(self, operation, deadline, cause):
        super().__init__(
            f"{operation} did not complete within {deadline}s: {cause}")
        self.operation = operation
        self.deadline = deadline
        self.cause = cause


class ReplayDivergence(ReproError):
    """A provenance-bundle replay did not reproduce the recorded verdict.

    Raised (and rendered by ``python -m repro replay``) when the
    re-executed check's outcome differs from what the bundle recorded —
    the counterexample is stale, the code under check changed, or the
    bundle was edited.  Carries the bundle kind and both sides of the
    comparison.
    """

    _CTOR_ATTRS = ("kind", "expected", "found")

    def __init__(self, kind, expected, found):
        super().__init__(
            f"{kind} replay diverged: recorded verdict {expected!r} "
            f"was not reproduced (replay found {found!r})")
        self.kind = kind
        self.expected = expected
        self.found = found
