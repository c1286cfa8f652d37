"""The code-proof harness: the corpus verifies, planted bugs do not."""

import copy
import dataclasses

import pytest

from repro.ccal.refinement import CoSimChecker
from repro.ccal.spec import Spec
from repro.errors import MirAssertError
from repro.hyperenclave.mir_model import build_model
from repro.hyperenclave.constants import ARCH_CONFIGS, TINY
from repro.mir.ast import BinOp
from repro.mir.parser import parse_program
from repro.mir.printer import print_function
from repro.mir.value import mk_u64
from repro.verification import (
    CorpusReport, bound_callees, default_domains, low_spec_for,
    pure_function_names, pure_reference, sample_states,
    stateful_function_names, verify_corpus, verify_pure_function,
    verify_stateful_function,
)
from repro.verification.code_proofs import _verify_as_new

PAGE = TINY.page_size

#: One planted bug per stateful function: an edit of its mirlight text
#: (``old`` must occur exactly once), arch-independent, and exposed by
#: the function's own samples at seed 0.  Most keep the return type: an
#: off-by-one, a wrong flag or field, a skipped write.
PLANTED = {
    "zero_frame": (  # writes a nonzero word
        "phys_write_word(copy addr, const 0_u64)",
        "phys_write_word(copy addr, const 1_u64)"),
    "alloc_frame": (  # returns the frame after the one it claimed
        "_0 = copy f;", "_0 = copy f + const 1_u64;"),
    "entry_paddr": (  # half the entry stride
        "copy index * const 8_u64", "copy index * const 4_u64"),
    "read_entry": (  # reads every entry with bit 0 (present/valid) set
        "bb2: {\n        return;",
        "bb2: {\n        _0 = copy _0 | const 1_u64;\n        return;"),
    "write_entry": (  # stores zero instead of the entry
        "phys_write_word(copy a, copy e)",
        "phys_write_word(copy a, const 0_u64)"),
    "walk_terminal": (  # reports an absent entry as found
        "_0 = tuple(const 0_u64, const 0_u64, copy level);",
        "_0 = tuple(const 1_u64, const 0_u64, copy level);"),
    "get_or_create_next": (  # links a new table without its flags
        "pte_new(copy nb, copy tf)", "pte_new(copy nb, const 0_u64)"),
    "map_page": (  # skips the leaf write
        "_d = const fn write_entry(copy frame, copy idx, copy ne) -> bb11;",
        "goto -> bb11;"),
    "unmap_page": (  # skips the clear
        "_d = const fn write_entry(copy frame, copy idx, const 0_u64) "
        "-> bb7;",
        "goto -> bb7;"),
    "query": (  # inverted found test
        "copy found != const 0_u64", "copy found == const 0_u64"),
    "translate_page": (  # inverted found test
        "copy found != const 0_u64", "copy found == const 0_u64"),
    "epcm_find_free": (  # starts the scan one entry late
        "i = const 0_u64;", "i = const 1_u64;"),
    "epcm_alloc_page": (  # swaps kind and owner
        "epcm_set(copy idx, copy kind, copy owner, copy va)",
        "epcm_set(copy idx, copy owner, copy kind, copy va)"),
    "epcm_release_page": (  # leaves the owner behind
        "epcm_set(copy idx, const 0_u64, const 0_u64, const 0_u64)",
        "epcm_set(copy idx, const 0_u64, copy owner, const 0_u64)"),
    "epcm_owner_of": (  # returns the va field
        "_0 = copy t.1;", "_0 = copy t.2;"),
    "add_epc_page": (  # returns the EPCM index instead of the frame
        "_0 = tuple(const 1_u64, copy epc_frame);",
        "_0 = tuple(const 1_u64, copy idx);"),
    "hc_add_page_checked": (  # inverted alignment check
        "[0 -> no, otherwise -> go]", "[0 -> go, otherwise -> no]"),
    "as_root": (  # off-by-one root
        "_0 = copy (*self_).0;",
        "_0 = copy (*self_).0;\n        _0 = copy _0 + const 1_u64;"),
    "as_map": (  # maps the va to itself
        "map_page(copy root, copy va, copy pa, copy flags)",
        "map_page(copy root, copy va, copy va, copy flags)"),
    "as_unmap": (  # unmaps page 0 (breaks unmap_page's precondition)
        "unmap_page(copy root, copy va)",
        "unmap_page(copy root, const 0_u64)"),
    "as_query": (  # calls the walk instead of the query
        "const fn query(copy root, copy va)",
        "const fn walk_terminal(copy root, copy va)"),
    "as_translate": (  # passes the va as the root (out of the pool)
        "translate_page(copy root, copy va)",
        "translate_page(copy va, copy va)"),
}


def with_function(model, function):
    """A copy of ``model`` with ``function`` in place of the corpus
    function of the same name; every other function is shared."""
    program = copy.copy(model.program)
    program.functions = dict(model.program.functions)
    program.functions[function.name] = function
    return dataclasses.replace(model, program=program)


def plant(model, name, old, new):
    """``model`` with ``old`` replaced by ``new`` in the mirlight text of
    ``name``."""
    source = print_function(model.program.functions[name])
    assert source.count(old) == 1, (name, old)
    return with_function(
        model, parse_program(source.replace(old, new)).functions[name])


def counting_writes(model):
    """``model`` with its trusted ``phys_write_word`` counted into the
    returned one-element list."""
    count = [0]
    trusted = []
    for spec in model.trusted:
        if spec.name == "phys_write_word":
            def counted(args, state, inner=spec.fn):
                count[0] += 1
                return inner(args, state)
            spec = dataclasses.replace(spec, fn=counted)
        trusted.append(spec)
    return dataclasses.replace(model, trusted=trusted), count


@pytest.fixture(scope="module", params=sorted(ARCH_CONFIGS))
def arch_model(request):
    return build_model(ARCH_CONFIGS[request.param])


class TestCorpusVerifies:
    def test_full_corpus_green(self, model):
        report = verify_corpus(model, cosim_samples=8)
        assert report.ok, report.summary()
        assert len(report.verdicts) == 49

    def test_per_layer_grouping(self, model):
        report = verify_corpus(model, cosim_samples=4)
        by_layer = report.by_layer()
        assert len(by_layer) == 14  # every layer except TrustedLayer
        assert "TrustedLayer" not in by_layer

    def test_function_counts_match_paper_scale(self, model):
        """49 verified functions in 15 layers (Sec. 6)."""
        assert len(model.program.functions) == 49
        assert len(model.stack) == 15


class TestPureProofs:
    @pytest.mark.parametrize("name", [
        "pte_new", "pte_addr", "pte_is_huge", "entry_index",
        "align_page_up", "elrange_contains", "ranges_overlap",
        "pa_in_epc",
    ])
    def test_selected_functions(self, model, name):
        verdict = verify_pure_function(model, name)
        assert verdict.ok, verdict.failures
        assert verdict.checked > 0

    def test_pure_name_list_complete(self, model):
        names = pure_function_names(model.config, model.layout)
        assert len(names) == 26
        assert set(names) & set(stateful_function_names()) == set()

    def test_planted_pure_bug_caught(self, model):
        """Flip one mask bit in pte_addr and the checker must notice."""
        from repro.mir.builder import ProgramBuilder
        pb = ProgramBuilder()
        fb = pb.function("pte_addr", ["e"], layer="PteOps")
        fb.binop("_0", BinOp.BITAND, "e",
                 model.config.addr_mask() | 1)  # PRESENT bit leaks in
        fb.ret()
        fb.finish()
        from repro.symbolic import check_equivalence
        reference = pure_reference("pte_addr", model.config, model.layout)
        mismatches, _ = check_equivalence(
            pb.build(), "pte_addr", reference,
            default_domains("pte_addr", model.config))
        assert mismatches


class TestStatefulProofs:
    @pytest.mark.parametrize("name", [
        "alloc_frame", "read_entry", "write_entry", "walk_terminal",
        "map_page", "unmap_page", "query", "translate_page",
        "epcm_alloc_page", "add_epc_page", "hc_add_page_checked",
        "as_map", "as_query",
    ])
    def test_selected_functions(self, model, name):
        verdict = verify_stateful_function(model, name, seed=1, count=12)
        assert verdict.ok, verdict.failures

    def test_samples_are_deterministic(self, model):
        a = sample_states(model, "map_page", seed=3, count=4)
        b = sample_states(model, "map_page", seed=3, count=4)
        assert [args for args, _ in a] == [args for args, _ in b]

    def test_panics_match_spec_preconditions(self, model):
        """Inputs outside the spec's precondition are exactly the panic
        cases of the MIR code: double-map panics."""
        from repro.mir.value import mk_u64
        interp = model.make_interpreter()
        root = interp.call("alloc_frame").value
        args = [root, mk_u64(16 * PAGE), mk_u64(2 * PAGE), mk_u64(7)]
        interp.call("map_page", args)
        with pytest.raises(MirAssertError, match="already mapped"):
            interp.call("map_page", args)

    def test_unaligned_map_panics(self, model):
        interp = model.make_interpreter()
        root = interp.call("alloc_frame").value
        with pytest.raises(MirAssertError, match="unaligned"):
            interp.call("map_page", [root, mk_u64(5), mk_u64(0),
                                     mk_u64(7)])

    def test_unmap_missing_panics(self, model):
        interp = model.make_interpreter()
        root = interp.call("alloc_frame").value
        with pytest.raises(MirAssertError, match="not mapped"):
            interp.call("unmap_page", [root, mk_u64(0)])


class TestLayerModularConviction:
    """The per-layer gate: each planted bug fails its own verdict, in its
    own layer, and no other verdict but the whole-stack check."""

    def test_every_stateful_function_has_a_planted_bug(self):
        assert set(PLANTED) == set(stateful_function_names())

    @pytest.mark.parametrize("name", sorted(PLANTED))
    def test_planted_stateful_bug_caught(self, arch_model, name):
        broken = plant(arch_model, name, *PLANTED[name])
        own = verify_stateful_function(broken, name)
        assert own.checked and own.failures, own
        assert own.layer == broken.program.functions[name].layer
        assert all(f.startswith(f"{name}: ") for f in own.failures)
        # Callers run the buggy body only in the whole-stack check.
        others = [verify_stateful_function(broken, other)
                  for other in stateful_function_names()
                  if other not in (name, "hc_add_page_checked")]
        others.append(_verify_as_new(broken))
        assert [str(v) for v in others if not v.ok] == []

    def test_whole_stack_check_inlines_every_body(self, arch_model):
        """A zero_frame that writes a nonzero word reaches the hypercall
        through map_page, get_or_create_next and alloc_frame."""
        broken = plant(arch_model, "zero_frame", *PLANTED["zero_frame"])
        assert bound_callees(broken, "hc_add_page_checked") == ()
        assert not verify_stateful_function(broken,
                                            "hc_add_page_checked").ok

    def test_alloc_frame_check_runs_no_zeroing_loop(self, arch_model):
        counted, writes = counting_writes(arch_model)
        assert bound_callees(counted, "alloc_frame") == ("zero_frame",)
        verdict = verify_stateful_function(counted, "alloc_frame")
        assert verdict.ok and verdict.checked == 24
        assert writes[0] == 0
        verify_stateful_function(counted, "zero_frame", count=1)
        assert writes[0] == arch_model.config.words_per_page

    def test_callees_bound_by_kind(self, model):
        """Stateful callees answer by their low spec, pure ones by their
        reference, whatever their layer; the primitives stay trusted."""
        assert bound_callees(model, "map_page") == (
            "entry_index", "get_or_create_next", "is_page_aligned",
            "pte_is_present", "pte_new", "read_entry", "write_entry")
        assert bound_callees(model, "read_entry") == ("entry_paddr",)
        assert bound_callees(model, "zero_frame") == ()
        assert bound_callees(model, "as_new") == ("alloc_frame",)


class TestCodeSideRaisesIsADivergence:
    """When the spec accepts a sample and the code raises, the sample is
    a recorded failure naming the function and the exception."""

    def test_broken_primitive_precondition(self, model):
        broken = plant(model, "write_entry",
                       "phys_write_word(copy a, copy e)",
                       "phys_write_word(const 0_u64, copy e)")
        verdict = verify_stateful_function(broken, "write_entry")
        assert verdict.checked == 24
        assert len(verdict.failures) == 24
        assert verdict.failures[0].startswith(
            "write_entry: code raised SpecPreconditionError")

    def test_failing_assert(self, model):
        broken = plant(model, "epcm_release_page",
                       "assert(copy busy == true",
                       "assert(copy busy == false")
        verdict = verify_stateful_function(broken, "epcm_release_page")
        assert verdict.checked and \
            len(verdict.failures) == verdict.checked
        assert all("code raised MirAssertError" in f
                   for f in verdict.failures)

    def test_empty_alloc_frame_gives_fail_verdicts(self, model):
        from repro.mir.builder import ProgramBuilder
        from repro.mir.types import U64
        fb = ProgramBuilder().function("alloc_frame", [], U64,
                                       layer="FrameAlloc")
        fb.ret()
        broken = with_function(model, fb.finish())
        report = verify_corpus(broken, cosim_samples=8)
        failing = {v.name: v.failures for v in report.verdicts if not v.ok}
        assert sorted(failing) == ["alloc_frame", "hc_add_page_checked"]
        assert "return values diverge" in failing["alloc_frame"][0]
        assert any("code raised MirTypeError" in f
                   for f in failing["hc_add_page_checked"])

    def test_caller_breaking_callee_precondition(self, model):
        """map_page hands get_or_create_next a frame outside the pool:
        the callee's spec refuses it inside map_page's own check."""
        outside = model.pool_base + model.pool_size
        broken = plant(model, "map_page",
                       "get_or_create_next(copy frame,",
                       f"get_or_create_next(const {outside}_u64,")
        verdict = verify_stateful_function(broken, "map_page")
        assert verdict.checked and \
            len(verdict.failures) == verdict.checked
        assert all("code raised SpecPreconditionError" in f
                   and "escapes the frame area" in f
                   for f in verdict.failures)

    def test_caller_leaving_pure_callee_domain(self, model):
        """A level the pure reference rejects (where entry_index's MIR
        body panics) is the caller's broken precondition, not a crash."""
        broken = plant(model, "walk_terminal",
                       "entry_index(copy va, copy level)",
                       "entry_index(copy va, const 0_u64)")
        verdict = verify_stateful_function(broken, "walk_terminal")
        assert verdict.checked == 24
        assert len(verdict.failures) == 24
        assert "entry_index: level 0 out of range" in verdict.failures[0]

    def test_other_exceptions_still_raise(self):
        def impl(args, state):
            raise ZeroDivisionError("not a divergence")

        checker = CoSimChecker("boom", impl,
                               Spec("boom", lambda args, state: (0, state)))
        with pytest.raises(ZeroDivisionError):
            checker.check([((), None)])


class TestEndToEndMirCorpus:
    def test_mir_map_agrees_with_python_implementation(self, model):
        """Three-way agreement: MIR corpus == flat spec == the executable
        PageTable implementation, on a shared scenario."""
        from repro.hyperenclave.frames import BitmapFrameAllocator
        from repro.hyperenclave.hardware import PhysMemory
        from repro.hyperenclave.paging import PageTable
        from repro.hyperenclave import pte as pteops

        interp = model.make_interpreter()
        root_value = interp.call("alloc_frame").value

        phys = PhysMemory(TINY)
        allocator = BitmapFrameAllocator(
            range(model.pool_base, model.pool_base + model.pool_size))
        table = PageTable(TINY, phys, allocator)
        assert table.root_frame == root_value.value

        scenario = [(0, 3), (1, 4), (17, 5), (63, 6)]
        for page_no, frame in scenario:
            va, pa = page_no * PAGE, frame * PAGE
            interp.call("map_page",
                        [root_value, mk_u64(va), mk_u64(pa), mk_u64(7)])
            table.map_page(va, pa, 7)
        # Identical backing memory word-for-word:
        from repro.hyperenclave.constants import WORD_BYTES
        for frame in range(model.pool_base,
                           model.pool_base + model.pool_size):
            impl_words = phys.frame_words(frame)
            mir_words = tuple(
                interp.absstate.get("pt_words").get(
                    TINY.frame_base(frame) // WORD_BYTES + offset)
                for offset in range(TINY.words_per_page))
            assert impl_words == mir_words, f"frame {frame} differs"

    def test_as_new_verdict(self, model):
        from repro.verification.code_proofs import _verify_as_new
        verdict = _verify_as_new(model)
        assert verdict.ok
