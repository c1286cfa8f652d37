"""Sec. 4.4 — "Tuning Verification Coverage".

"We rely on the separation of layers to verify the system piecemeal ...
'Trusted' functions can later be pulled out and verified as more
resources become available."

Demonstrated mechanically: verify ``query`` while ``walk_terminal`` is
*trusted* (its spec registered as a primitive, its code skipped), then
pull the trust out and verify the same function against the real code —
both verdicts agree, and the trusted run demonstrably executes less
code.  The same knob in the other direction: trusting a *wrong* spec is
caught the moment the callee is pulled out and verified itself.
"""

import pytest

from repro.ccal.refinement import CoSimChecker, mir_impl
from repro.ccal.spec import Spec
from repro.errors import SpecPreconditionError
from repro.mir.value import mk_tuple, mk_u64
from repro.verification import low_spec_for, sample_states


def checker_for_query(model, extra_trusted=()):
    impl = mir_impl(model.program, "query",
                    trusted=list(model.trusted) + list(extra_trusted))
    return CoSimChecker("query", impl, low_spec_for(model, "query"))


class TestTrustKnob:
    def test_query_verifies_with_walk_trusted(self, model):
        """walk_terminal in the TCB: its spec answers, its code never
        runs — the 'limit the scope of verification' mode."""
        walk_spec = low_spec_for(model, "walk_terminal")
        report = checker_for_query(model,
                                   extra_trusted=[walk_spec]).check(
            sample_states(model, "query", seed=2, count=16))
        assert report.ok and report.checked > 0

    def test_query_verifies_with_walk_pulled_out(self, model):
        report = checker_for_query(model).check(
            sample_states(model, "query", seed=2, count=16))
        assert report.ok and report.checked > 0

    def test_trusted_mode_executes_less_code(self, model):
        """The point of trusting: the callee's loop never runs."""
        walk_spec = low_spec_for(model, "walk_terminal")
        samples = sample_states(model, "query", seed=3, count=1)
        (args, state), = samples

        trusted_interp = model.make_interpreter(absstate=state)
        trusted_interp.register_trusted(walk_spec.as_trusted_function())
        trusted_steps = trusted_interp.call("query", args).steps

        full_interp = model.make_interpreter(absstate=state)
        full_steps = full_interp.call("query", args).steps
        assert trusted_steps < full_steps

    def test_wrong_trusted_spec_caught_when_pulled_out(self, model):
        """Trusting hides bugs in the trusted spec from *this* proof —
        but pulling the function out exposes the lie immediately."""

        def lying_walk(args, state):
            return mk_tuple(mk_u64(0), mk_u64(0), mk_u64(1)), state

        lie = Spec("walk_terminal", lying_walk)
        # With the lie trusted, query's own proof can still pass or fail
        # depending on samples — the danger of a hole in the TCB.  Now
        # pull walk_terminal out and verify it against the lie-as-spec:
        impl = mir_impl(model.program, "walk_terminal",
                        trusted=model.trusted)
        checker = CoSimChecker("walk_terminal", impl, lie)
        report = checker.check(
            sample_states(model, "walk_terminal", seed=1, count=16))
        assert not report.ok  # the lie cannot survive verification

    def test_every_layer_can_be_cut_at(self, model):
        """The knob works at any boundary: trust each single callee of
        map_page in turn; map_page still verifies."""
        for boundary in ("get_or_create_next", "read_entry",
                         "write_entry"):
            spec = low_spec_for(model, boundary)
            impl = mir_impl(model.program, "map_page",
                            trusted=list(model.trusted) + [spec])
            checker = CoSimChecker(f"map_page/{boundary}", impl,
                                   low_spec_for(model, "map_page"))
            report = checker.check(
                sample_states(model, "map_page", seed=4, count=10))
            assert report.ok, (boundary, report.failures)
