"""The verification harness: MIRVerif's proofs, as checks.

Ties the pieces together the way the paper's Coq development does:

* **code proofs** (Sec. 4.3, code -> low spec):
  :mod:`repro.verification.code_proofs` co-simulates every stateful
  corpus function against its functional specification over the same
  abstract state;
* **pure-function proofs**: :mod:`repro.verification.pure_refs` pairs
  every pure corpus function with its Python reference, checked by
  exhaustive bounded symbolic equivalence and panic-freedom
  (:func:`repro.symbolic.check_equivalence` /
  :func:`repro.symbolic.verify_assertions`);
* **refinement proofs** (Sec. 4.1, low spec -> high spec): driven via
  :mod:`repro.spec.relation` by the tests and benches;
* :func:`repro.verification.code_proofs.verify_corpus` — the one-call
  "check everything" driver producing the per-layer report behind the
  Sec. 6 statistics;
* **hardened checking** (:mod:`repro.verification.harness`): every
  engine runs under a wall-clock/step budget and degrades gracefully
  (symbolic → exhaustive-bounded → property sampling) instead of
  hanging, with the taken path recorded in the
  :class:`~repro.ccal.refinement.CheckReport`.
"""

from repro.verification.pure_refs import (
    pure_reference,
    pure_function_names,
    default_domains,
)
from repro.verification.code_proofs import (
    bound_callees,
    cosim_checker,
    low_spec_for,
    stateful_function_names,
    sample_states,
    verify_stateful_function,
    verify_pure_function,
    verify_corpus,
    CorpusReport,
    FunctionVerdict,
)
from repro.verification.autospec import (
    SynthesizedSpec,
    synthesize_spec,
    check_synthesized_spec,
)
from repro.verification.harness import (
    ENGINE_EXHAUSTIVE,
    ENGINE_SAMPLING,
    ENGINE_SYMBOLIC,
    check_pure_hardened,
    check_stateful_hardened,
    split_budget,
)

__all__ = [
    "pure_reference", "pure_function_names", "default_domains",
    "bound_callees", "cosim_checker",
    "low_spec_for", "stateful_function_names", "sample_states",
    "verify_stateful_function", "verify_pure_function", "verify_corpus",
    "CorpusReport", "FunctionVerdict",
    "SynthesizedSpec", "synthesize_spec", "check_synthesized_spec",
    "ENGINE_EXHAUSTIVE", "ENGINE_SAMPLING", "ENGINE_SYMBOLIC",
    "check_pure_hardened", "check_stateful_hardened", "split_budget",
]
