"""The transition system of Sec. 5.1.

Steps:

* **CPU-local moves** — nondeterministic in the paper ("HyperEnclave
  does not care about the exact computation happening inside each VM");
  here the nondeterminism is resolved by the trace generator, which
  supplies the concrete :class:`LocalCompute`, :class:`MemLoad`, and
  :class:`MemStore` steps.  Loads and stores resolve through the active
  principal's installed page tables; faulting accesses are no-ops
  (hardware delivers a fault instead of completing the access).
* **Hypercalls** — trapped into RustMonitor: ``create``, ``add_page``,
  ``init``, ``enter``, ``exit``, ``destroy``.  Rejected hypercalls
  (validation errors) are also no-ops.

Marshalling-buffer accesses get the data-oracle semantics of Sec. 5.4:
stores are ignored, loads return the next oracle value.  Everything else
hits the real simulated memory.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

from repro.errors import (
    HypercallError,
    HypervisorError,
    SecurityError,
    TranslationFault,
)
from repro.hyperenclave.constants import WORD_BYTES
from repro.hyperenclave.monitor import HOST_ID
from repro.hyperenclave.paging import guest_walk


class Step:
    """Base class of transition-system steps."""


@dataclass(frozen=True)
class LocalCompute(Step):
    """The active principal updates one register.

    Either a literal ``value``, or ``op`` over two source registers
    (op in ``add/xor/copy``) — enough to express data-dependent
    computation, which is what leaks travel through.
    """

    principal: int
    reg: str
    value: Optional[int] = None
    op: Optional[str] = None
    src1: Optional[str] = None
    src2: Optional[str] = None


@dataclass(frozen=True)
class MemLoad(Step):
    """``reg <- [va]`` by ``principal``; host loads may go through an
    app's GPT (``via_app``), otherwise the host addresses guest-physical
    space directly."""

    principal: int
    va: int
    reg: str = "rax"
    via_app: Optional[int] = None


@dataclass(frozen=True)
class MemStore(Step):
    """``[va] <- reg`` by ``principal``."""

    principal: int
    va: int
    reg: str = "rax"
    via_app: Optional[int] = None


@dataclass(frozen=True)
class Hypercall(Step):
    """A hypercall by ``principal`` (host for lifecycle calls, the
    enclave itself for ``exit``)."""

    principal: int
    name: str  # create/add_page/init/enter/exit/destroy
    args: Tuple = ()


@dataclass
class StepOutcome:
    """What one step did: applied, faulted (no-op), or rejected (no-op)."""

    step: Step
    applied: bool
    detail: str = ""
    result: Optional[object] = None


# ---------------------------------------------------------------------------
# Resolution helpers
# ---------------------------------------------------------------------------


def spec_walk_enclave(monitor, eid, va, write=False) -> Optional[int]:
    """Resolve an enclave VA using the *verified specification* walk.

    Sec. 5.1: "instead of manually writing this function in Coq (which
    we could get wrong), we actually use a corresponding page-walk
    function that is part of the memory module of HyperEnclave, which we
    have a verified Coq specification for."  This is that reuse: the
    enclave's GPT and EPT are abstracted into the tree view (the thing
    the refinement proofs verified) and walked with
    :func:`repro.spec.walk.spec_translate`.  ``SystemState`` exposes it
    via ``use_spec_walk``; tests pin that it agrees with the hardware
    walker on every access — the refinement payoff, observable.
    """
    from repro.errors import ReproError
    from repro.spec.relation import AbstractionFailure, \
        flat_state_of_page_table, abstract_table
    from repro.spec.walk import spec_translate
    enclave = monitor.enclaves.get(eid)
    if enclave is None:
        return None
    layout = monitor.layout
    pool_base = layout.pt_pool_base
    pool_size = layout.epc_base - layout.pt_pool_base
    config = monitor.config
    try:
        gpt_tree = abstract_table(
            flat_state_of_page_table(enclave.gpt, pool_base, pool_size),
            enclave.gpt.root_frame)
        ept_tree = abstract_table(
            flat_state_of_page_table(enclave.ept, pool_base, pool_size),
            enclave.ept.root_frame)
    except AbstractionFailure:
        return None  # malformed tables: unprovable, treated as fault
    gpa = spec_translate(gpt_tree, va, config, write=write)
    if gpa is None:
        return None
    # Second stage: EPT entries carry no guest-PT USER semantics (the
    # same explicit-stage rule as paging._ept_translate).
    hpa_page = spec_translate(ept_tree, config.page_base(gpa), config,
                              write=write, user=False)
    if hpa_page is None:
        return None
    return hpa_page + config.page_offset(gpa)


def _mbuf_backing_hpa(monitor, hpa) -> bool:
    """Is ``hpa`` inside any enclave's marshalling-buffer backing?"""
    for enclave in monitor.enclaves.values():
        if enclave.mbuf is not None and enclave.mbuf.contains_pa(hpa):
            return True
    return False


def _resolve(state, step, write) -> Optional[int]:
    """The hardware address resolution for a load/store step, or None on
    fault.  Raises SecurityError when the step is malformed (wrong
    principal active) — that is a trace bug, not a fault.

    Virtual accesses (app code through its GPT, enclave code through its
    GPT∘EPT) go through the shared TLB: a hit skips the walk entirely,
    which is exactly why Sec. 2.1's "flushing the corresponding TLB
    entries" on every world switch is security-critical — the
    NoTlbFlushMonitor bench shows the leak when it is skipped.  Host
    direct guest-physical accesses model the kernel's physical map and
    bypass the TLB.
    """
    monitor = state.monitor
    if state.active != step.principal:
        raise SecurityError(
            f"step by principal {step.principal} while {state.active} is "
            f"active — traces must respect the schedule")
    if step.va % WORD_BYTES:
        return None  # unaligned: fault
    if step.principal == HOST_ID and step.via_app is None:
        try:
            return monitor.os_ept.translate(
                monitor.config.page_base(step.va), write=write) \
                + monitor.config.page_offset(step.va)
        except TranslationFault:
            return None
    # Virtual access: consult the TLB first.
    config = monitor.config
    va_page = config.page_base(step.va)
    offset = config.page_offset(step.va)
    cached = monitor.tlb.lookup(0, (va_page, write))
    if cached is not None:
        return cached + offset
    try:
        if step.principal == HOST_ID:
            app = monitor.primary_os.apps[step.via_app]
            hpa = guest_walk(config, monitor.phys, monitor.os_ept,
                             app.gpt_root_gpa, step.va, write=write)
        elif getattr(state, "use_spec_walk", False):
            hpa = spec_walk_enclave(monitor, step.principal, step.va,
                                    write=write)
            if hpa is None:
                return None
        else:
            hpa = monitor.enclave_translate(step.principal, step.va,
                                            write=write)
    except (TranslationFault, HypercallError):
        return None
    monitor.tlb.insert(0, (va_page, write), hpa - offset)
    return hpa


# ---------------------------------------------------------------------------
# Step application
# ---------------------------------------------------------------------------


class StepPlan(NamedTuple):
    """A step resolved once (:func:`plan_step`): the bound ``hc_*``
    ``handler`` it dispatches to, or None with the ``refusal``, and the
    ``locks`` the monitor plans for the handler."""

    step: Step
    handler: Optional[Callable]
    refusal: Optional[str]
    locks: Tuple[str, ...]


def apply_step(state, step) -> StepOutcome:
    """Apply one step to ``state`` (in place) and count it.

    Under the deterministic scheduler a script step is not applied in
    one go: the scheduler's driver plans it (:func:`plan_step`), parks
    at the step (``step`` is a branch kind, so the explorer may hand
    the CPU to another vCPU between any two steps of a workload),
    counts it, takes the plan's locks, and only then runs
    :func:`execute_step` with the plan.
    """
    state.step_count += 1
    return execute_step(state, plan_step(state, step))


def execute_step(state, plan: StepPlan) -> StepOutcome:
    """Apply one planned step to ``state`` (in place) without counting
    it."""
    step = plan.step
    if isinstance(step, LocalCompute):
        return _apply_local(state, step)
    if isinstance(step, MemLoad):
        return _apply_load(state, step)
    if isinstance(step, MemStore):
        return _apply_store(state, step)
    if isinstance(step, Hypercall):
        return _apply_hypercall(plan)
    raise SecurityError(f"unknown step {step!r}")


def plan_step(state, step) -> StepPlan:
    """Dispatch ``step`` and resolve the lock plan of its handler, once
    (see :class:`StepPlan`).

    The dispatch reads only the step and the running vCPU's active
    principal, which only that vCPU's own ``enter`` and ``exit``
    change, so a plan the scheduler's driver makes before it parks at
    the step still holds when the body runs."""
    if not isinstance(step, Hypercall):
        return StepPlan(step, None, None, ())
    handler, refusal = _dispatch(state, step)
    if handler is None:
        return StepPlan(step, None, refusal, ())
    return StepPlan(step, handler, None,
                    state.monitor.lock_plan(handler, step.args))


def _apply_local(state, step) -> StepOutcome:
    if state.active != step.principal:
        raise SecurityError("LocalCompute by an inactive principal")
    vcpu = state.monitor.vcpu
    if step.op is None:
        vcpu.write_reg(step.reg, step.value or 0)
    elif step.op == "copy":
        vcpu.write_reg(step.reg, vcpu.read_reg(step.src1))
    elif step.op == "add":
        vcpu.write_reg(step.reg, vcpu.read_reg(step.src1)
                       + vcpu.read_reg(step.src2))
    elif step.op == "xor":
        vcpu.write_reg(step.reg, vcpu.read_reg(step.src1)
                       ^ vcpu.read_reg(step.src2))
    else:
        raise SecurityError(f"unknown LocalCompute op {step.op!r}")
    return StepOutcome(step, True)


def _apply_load(state, step) -> StepOutcome:
    hpa = _resolve(state, step, write=False)
    if hpa is None:
        return StepOutcome(step, False, "translation fault")
    monitor = state.monitor
    if _mbuf_backing_hpa(monitor, hpa):
        # Sec. 5.4: reads from the marshalling buffer come from the
        # oracle.  Location-aware oracles (the echo oracle) get the
        # resolved physical address.
        if state.oracle is None:
            value = 0
        elif hasattr(state.oracle, "next_for"):
            value = state.oracle.next_for(state, hpa)
        else:
            value = state.oracle.next()
        monitor.vcpu.write_reg(step.reg, value)
        return StepOutcome(step, True, "mbuf load (oracle)", value)
    value = monitor.phys.read_word(hpa)
    monitor.vcpu.write_reg(step.reg, value)
    return StepOutcome(step, True, "load", value)


def _apply_store(state, step) -> StepOutcome:
    hpa = _resolve(state, step, write=True)
    if hpa is None:
        return StepOutcome(step, False, "translation fault")
    monitor = state.monitor
    value = monitor.vcpu.read_reg(step.reg)
    if _mbuf_backing_hpa(monitor, hpa):
        # Sec. 5.4: stores to the marshalling buffer are in effect ignored.
        return StepOutcome(step, True, "mbuf store (declassified)", value)
    monitor.phys.write_word(hpa, value)
    return StepOutcome(step, True, "store", value)


_HOST_HYPERCALLS = frozenset({"create", "add_page", "aug_page",
                              "remove_page", "trim_page", "init", "enter",
                              "destroy"})


def _dispatch(state, step):
    """``(handler, None)`` for the bound ``hc_*`` method a hypercall
    step dispatches to, or ``(None, refusal)``."""
    if step.name in _HOST_HYPERCALLS:
        if state.active != HOST_ID or step.principal != HOST_ID:
            return None, "lifecycle hypercalls need the active host"
    elif step.name == "exit":
        if state.active != step.principal or step.principal == HOST_ID:
            return None, "exit needs the active enclave"
    else:
        return None, f"unknown hypercall {step.name!r}"
    return getattr(state.monitor, f"hc_{step.name}"), None


def _apply_hypercall(plan) -> StepOutcome:
    step = plan.step
    if plan.handler is None:
        return StepOutcome(step, False, plan.refusal)
    try:
        result = plan.handler(*step.args)
    except (HypercallError, HypervisorError) as exc:
        return StepOutcome(step, False, f"rejected: {exc}")
    return StepOutcome(step, True, f"hc_{step.name}", result)


def apply_trace(state, steps):
    """Apply a sequence of steps; returns all outcomes."""
    return [apply_step(state, step) for step in steps]
