"""Noninterference: Theorem 5.1 and Lemmas 5.2-5.4 as trace checkers.

The paper proves, in Coq, that indistinguishability is preserved by
every transition.  The reproduction *checks* the same statements over
generated executions:

* :func:`check_lemma_integrity` (Lemma 5.2) — while ``p`` is inactive,
  moves by other principals never change V(p, σ).
* :func:`check_lemma_confidentiality` (Lemma 5.3) — from two active
  indistinguishable states, the same move by ``p`` keeps the states
  indistinguishable.
* :func:`check_lemma_activation` (Lemma 5.4) — from two inactive
  indistinguishable states, another principal's moves into ``p``-active
  states keep them indistinguishable.
* :func:`check_theorem_noninterference` (Theorem 5.1) — the composed
  statement over whole traces, driven through :class:`TwoWorlds`.

The two-world construction mirrors the paper's proof narrative: world A
and world B differ only in a secret belonging to some *other* principal
(41 vs 42 in the paper's example); if the observer can ever tell the
worlds apart, confidentiality is broken — and the checker returns the
exact step and observation component as a witness.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import NoninterferenceViolation
from repro.security.observation import observe
from repro.security.transitions import apply_step


def indistinguishable(state_a, state_b, principal) -> bool:
    """V(p, σ_a) == V(p, σ_b)."""
    return observe(state_a, principal) == observe(state_b, principal)


def observation_diff(state_a, state_b, principal) -> Tuple[str, ...]:
    return observe(state_a, principal).diff(observe(state_b, principal))


@dataclass
class NIViolation:
    """A distinguishing witness."""

    lemma: str
    step_index: int
    observer: int
    components: Tuple[str, ...]
    detail: str = ""

    def __str__(self):
        return (f"[{self.lemma}] step {self.step_index}: observer "
                f"{self.observer} distinguishes via {self.components} "
                f"{self.detail}")


class TwoWorlds:
    """Two executions in lockstep, differing only in chosen secrets."""

    def __init__(self, world_a, world_b):
        self.a = world_a
        self.b = world_b
        self.history: List[Tuple] = []

    def apply(self, step_a, step_b=None):
        """Apply a step to both worlds (``step_b`` defaults to
        ``step_a``; pass a different one only for secret-injection moves
        by principals the observer may not see)."""
        step_b = step_b if step_b is not None else step_a
        outcome_a = apply_step(self.a, step_a)
        outcome_b = apply_step(self.b, step_b)
        self.history.append((step_a, step_b))
        return outcome_a, outcome_b

    def indistinguishable_to(self, principal) -> bool:
        return indistinguishable(self.a, self.b, principal)

    def diff_for(self, principal) -> Tuple[str, ...]:
        return observation_diff(self.a, self.b, principal)


# ---------------------------------------------------------------------------
# Lemma 5.2 — integrity
# ---------------------------------------------------------------------------


def check_lemma_integrity(state, steps, observer) -> List[NIViolation]:
    """While ``observer`` stays inactive, each step by another principal
    must leave V(observer) unchanged.

    Steps that activate the observer (enter) end the checked window —
    they belong to Lemma 5.4.  Lifecycle calls *targeting* the observer
    (add_page into it before init) legitimately change its view and must
    not appear in the trace; the caller builds traces accordingly.
    """
    violations = []
    before = observe(state, observer)
    for index, step in enumerate(steps):
        if state.active == observer:
            break
        apply_step(state, step)
        if state.active == observer:
            break  # activation edge: Lemma 5.4 territory
        after = observe(state, observer)
        if after != before:
            violations.append(NIViolation(
                lemma="lemma-5.2-integrity", step_index=index,
                observer=observer, components=before.diff(after),
                detail=f"after {step!r}"))
        before = after
    return violations


# ---------------------------------------------------------------------------
# Lemma 5.3 — confidentiality
# ---------------------------------------------------------------------------


def check_lemma_confidentiality(worlds, steps, actor) -> List[NIViolation]:
    """From active indistinguishable states, ``actor``'s own moves keep
    the worlds indistinguishable to the actor."""
    violations = []
    if not worlds.indistinguishable_to(actor):
        violations.append(NIViolation(
            lemma="lemma-5.3-confidentiality", step_index=-1,
            observer=actor, components=worlds.diff_for(actor),
            detail="initial states already distinguishable"))
        return violations
    for index, step in enumerate(steps):
        worlds.apply(step)
        if not worlds.indistinguishable_to(actor):
            violations.append(NIViolation(
                lemma="lemma-5.3-confidentiality", step_index=index,
                observer=actor, components=worlds.diff_for(actor),
                detail=f"after {step!r}"))
    return violations


# ---------------------------------------------------------------------------
# Lemma 5.4 — activation
# ---------------------------------------------------------------------------


def check_lemma_activation(worlds, steps, observer) -> List[NIViolation]:
    """From inactive indistinguishable states, moves by others that end
    with ``observer`` active keep the worlds indistinguishable."""
    violations = []
    for index, step in enumerate(steps):
        worlds.apply(step)
        if not worlds.indistinguishable_to(observer):
            violations.append(NIViolation(
                lemma="lemma-5.4-activation", step_index=index,
                observer=observer, components=worlds.diff_for(observer),
                detail=f"after {step!r}"))
    return violations


# ---------------------------------------------------------------------------
# Theorem 5.1 — composed noninterference
# ---------------------------------------------------------------------------


def check_theorem_noninterference(worlds, trace, observers,
                                  stop_at_first=False) -> List[NIViolation]:
    """The composed theorem over a whole trace.

    ``trace`` items are either a shared :class:`Step` or an
    ``(step_a, step_b)`` pair for secret-dependent moves by principals
    outside every observer's view.  After every step, each observer's
    indistinguishability is re-checked.
    """
    violations = []
    for observer in observers:
        if not worlds.indistinguishable_to(observer):
            violations.append(NIViolation(
                lemma="theorem-5.1", step_index=-1, observer=observer,
                components=worlds.diff_for(observer),
                detail="initial states already distinguishable"))
    for index, item in enumerate(trace):
        if isinstance(item, tuple) and len(item) == 2:
            worlds.apply(item[0], item[1])
        else:
            worlds.apply(item)
        for observer in observers:
            if not worlds.indistinguishable_to(observer):
                violations.append(NIViolation(
                    lemma="theorem-5.1", step_index=index,
                    observer=observer,
                    components=worlds.diff_for(observer),
                    detail=f"after {item!r}"))
                if stop_at_first:
                    return violations
    return violations


def _default_final_diff(state_a, state_b, vid, observer):
    with state_a.monitor.on_cpu(vid), state_b.monitor.on_cpu(vid):
        return observation_diff(state_a, state_b, observer)


def check_schedule_noninterference_prepared(state_a, result_a, run_world,
                                            schedule, observers,
                                            diff=None) -> List[NIViolation]:
    """Two-world noninterference over one *interleaved* execution.

    ``(state_a, result_a)`` is ``schedule`` already executed in the
    secret-41 world (the interleaving campaign checks invariants on it
    first); ``run_world(secret, schedule)`` must build a fresh world
    whose victim enclave holds ``secret`` and execute ``schedule``
    under the deterministic scheduler, returning ``(state, RunResult)``
    — it runs the secret-42 world.  The two worlds (the paper's
    example pair) must first produce the *identical* scheduler trace —
    if the interleaving itself depends on the secret, that is already
    a scheduling side channel — and must then be indistinguishable to
    every observer on every vCPU's view of the final state.
    ``diff(state_a, state_b, vid, observer)`` overrides the final-state
    observation diff (campaigns memoise it by fingerprint).
    """
    final_diff = diff or _default_final_diff
    state_b, result_b = run_world(42, schedule)
    violations = []
    if result_a.trace != result_b.trace:
        violations.append(NIViolation(
            lemma="schedule-ni", step_index=-1, observer=-1,
            components=("scheduler-trace",),
            detail="the interleaving itself depends on the secret"))
        return violations
    for observer in observers:
        for vid in range(state_a.monitor.num_vcpus):
            found = final_diff(state_a, state_b, vid, observer)
            if found:
                violations.append(NIViolation(
                    lemma="schedule-ni", step_index=len(result_a.trace),
                    observer=observer, components=found,
                    detail=f"final state as seen from vcpu{vid}"))
    return violations


def assert_noninterference(worlds, trace, observers):
    """Raise :class:`NoninterferenceViolation` on the first witness."""
    violations = check_theorem_noninterference(worlds, trace, observers,
                                               stop_at_first=True)
    if violations:
        witness = violations[0]
        raise NoninterferenceViolation(witness.lemma, str(witness),
                                       witness=witness)
