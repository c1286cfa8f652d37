"""The compiled dispatch loop must be invisible (PR 4).

:mod:`repro.mir.compile` precompiles each CFG into per-block closure
lists so the hot interpreter loop skips per-step AST dispatch.  The
contract is byte-identical behaviour with :meth:`Interpreter.step`:
same values, same step accounting (fuel exhaustion at the same step,
with the same message), same error types and messages.  These tests
run the same programs through both modes and compare everything
observable.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import fastpath
from repro.errors import MirAssertError, MirRuntimeError, OutOfFuel
from repro.mir import ast, compile as compile_module
from repro.mir.ast import BinOp, CastKind
from repro.mir.builder import ProgramBuilder
from repro.mir.compile import block_plan, compiled_blocks
from repro.mir.interp import Interpreter
from repro.mir.path import Path
from repro.mir.types import U8, U64
from repro.mir.value import Value, mk_bool, mk_tuple, mk_u64

from tests.mir.test_random_programs import random_programs


def both_modes(program, name="f", args=(), fuel=None, prepare=None):
    """Run ``name`` naively and compiled; return the two outcomes.

    An outcome is ``("ok", value, steps)`` or
    ``("err", type_name, message, steps)`` — everything the two modes
    must agree on.  ``prepare(interp)`` runs on each fresh interpreter
    before the call.
    """
    outcomes = []
    for context in (fastpath.disabled, fastpath.forced):
        with context():
            interp = Interpreter(program)
            if fuel is not None:
                interp.fuel = fuel
            if prepare is not None:
                prepare(interp)
            try:
                result = interp.call(name, args)
            except Exception as exc:  # noqa: BLE001 - parity capture
                outcomes.append(("err", type(exc).__name__, str(exc),
                                 interp.steps))
            else:
                outcomes.append(("ok", result.value, interp.steps))
    return outcomes


@settings(max_examples=40, deadline=None)
@given(program=random_programs(),
       a=st.integers(0, 2 ** 64 - 1), b=st.integers(0, 2 ** 64 - 1))
def test_random_programs_agree(program, a, b):
    naive, compiled = both_modes(program, args=[mk_u64(a), mk_u64(b)])
    assert compiled == naive


@settings(max_examples=25, deadline=None)
@given(program=random_programs(),
       a=st.integers(0, 2 ** 64 - 1), b=st.integers(0, 2 ** 64 - 1),
       fuel=st.integers(1, 12))
def test_fuel_exhaustion_parity(program, a, b, fuel):
    # Tight fuel makes most runs die mid-function; both modes must die
    # at the same step with the same OutOfFuel message.
    naive, compiled = both_modes(program, args=[mk_u64(a), mk_u64(b)],
                                 fuel=fuel)
    assert compiled == naive


class TestErrorParity:
    def test_divide_by_zero(self):
        def build(pb):
            fb = pb.function("f", ["a"], U64)
            fb.binop("_0", BinOp.DIV, "a", 0)
            fb.ret()
            fb.finish()
        pb = ProgramBuilder()
        build(pb)
        naive, compiled = both_modes(pb.build(), args=[mk_u64(7)])
        assert naive[0] == "err" and naive[1] == "MirAssertError"
        assert compiled == naive

    def test_uninitialised_temp_read(self):
        pb = ProgramBuilder()
        fb = pb.function("f", [], U64)
        fb.assign("_0", "never_written")
        fb.ret()
        fb.finish()
        naive, compiled = both_modes(pb.build())
        assert naive[0] == "err" and naive[1] == "MirRuntimeError"
        assert "never_written" in naive[2]
        assert compiled == naive

    def test_assert_failure_message(self):
        pb = ProgramBuilder()
        fb = pb.function("f", ["a"], U64)
        fb.binop("cond", BinOp.LT, "a", 10)
        fb.assert_("cond", "a must stay below 10")
        fb.ret("a")
        fb.finish()
        naive, compiled = both_modes(pb.build(), args=[mk_u64(99)])
        assert naive[0] == "err" and naive[1] == "MirAssertError"
        assert "a must stay below 10" in naive[2]
        assert compiled == naive


class TestCallsAndControlFlow:
    def _call_program(self):
        pb = ProgramBuilder()
        fb = pb.function("callee", ["x"], U64)
        fb.binop("_0", BinOp.ADD, "x", 1)
        fb.ret()
        fb.finish()
        fb = pb.function("f", ["a"], U64)
        fb.call("_0", "callee", ["a"])
        fb.ret()
        fb.finish()
        return pb.build()

    def test_call_agrees_with_naive(self):
        naive, compiled = both_modes(self._call_program(),
                                     args=[mk_u64(41)])
        assert naive[0] == "ok" and naive[1].value == 42
        assert compiled == naive

    def test_switch_multiway(self):
        pb = ProgramBuilder()
        fb = pb.function("f", ["a"], U64)
        fb.switch("a", [(0, "zero"), (1, "one")], "other")
        fb.label("zero")
        fb.ret(100)
        fb.label("one")
        fb.ret(200)
        fb.label("other")
        fb.ret(300)
        fb.finish()
        program = pb.build()
        for value, expected in ((0, 100), (1, 200), (7, 300)):
            naive, compiled = both_modes(program, args=[mk_u64(value)])
            assert naive == ("ok", naive[1], naive[2])
            assert naive[1].value == expected
            assert compiled == naive


def _single_op_program(emit):
    """``f(a, b)`` whose body is ``emit(fb)`` then ``return _0``."""
    pb = ProgramBuilder()
    fb = pb.function("f", ["a", "b"], U64)
    emit(fb)
    fb.ret()
    fb.finish()
    return pb.build()


def _emit_switch(fb):
    fb.switch("a", [(0, "zero")], "other")
    fb.label("zero")
    fb.assign("_0", 100)
    fb.goto("done")
    fb.label("other")
    fb.assign("_0", 200)
    fb.goto("done")
    fb.label("done")


_ONE = mk_u64(1)
_PAIR = mk_tuple(mk_u64(1), mk_u64(2))
_TRUE = mk_bool(True)
_FALSE = mk_bool(False)

#: (emitter, a, b, None for success or the expected error text).
_OFF_FAST_PATH = [
    pytest.param(lambda fb: fb.binop("_0", BinOp.ADD, "a", "b"),
                 _TRUE, _ONE,
                 "binop +: expected integer, got BoolValue(value=True)",
                 id="arith-bool-lhs"),
    pytest.param(lambda fb: fb.binop("_0", BinOp.BITAND, "a", "b"),
                 _ONE, _PAIR, "binop &: expected integer, got Aggregate(",
                 id="arith-aggregate-rhs"),
    pytest.param(lambda fb: fb.binop("_0", BinOp.LT, "a", "b"),
                 _TRUE, _ONE,
                 "compare <: expected integer, got BoolValue(value=True)",
                 id="compare-bool-int"),
    pytest.param(lambda fb: fb.binop("_0", BinOp.EQ, "a", "b"),
                 _ONE, _PAIR, "compare ==: expected integer, got Aggregate(",
                 id="compare-aggregate-rhs"),
    pytest.param(lambda fb: fb.binop("_0", BinOp.NE, "a", "b"),
                 _TRUE, _FALSE, None, id="compare-bools"),
    pytest.param(_emit_switch, _PAIR, _ONE,
                 "switchInt/assert on non-integer Aggregate(",
                 id="switch-aggregate"),
    pytest.param(_emit_switch, _TRUE, _ONE, None, id="switch-bool"),
    pytest.param(lambda fb: fb.cast("_0", "a", U8), _FALSE, _ONE,
                 "cast: expected integer, got BoolValue(value=False)",
                 id="cast-bool-to-int-kind"),
    pytest.param(lambda fb: fb.cast("_0", "a", U8, CastKind.BOOL_TO_INT),
                 _ONE, _ONE, "cast: expected bool, got IntValue(",
                 id="cast-int-to-bool-kind"),
    pytest.param(lambda fb: fb.cast("_0", "a", U8, CastKind.BOOL_TO_INT),
                 _TRUE, _ONE, None, id="cast-bool"),
]


class TestExactTypeFastPaths:
    """Compiled binop, compare, switch and cast closures test ``type(v)
    is IntValue`` first.  Any other operand must fall through to the
    same checks, and the same errors, as the naive interpreter."""

    @pytest.mark.parametrize("emit,a,b,error", _OFF_FAST_PATH)
    def test_non_integer_operands_agree_with_naive(self, emit, a, b,
                                                   error):
        naive, compiled = both_modes(_single_op_program(emit),
                                     args=[a, b])
        assert compiled == naive
        if error is None:
            assert naive[0] == "ok"
        else:
            assert naive[:2] == ("err", "MirTypeError")
            assert error in naive[2]

    def test_integer_operands_skip_the_generic_checks(self, monkeypatch):
        """Integer operands never reach ``expect_int``/``expect_bool``
        or the switch helper on the compiled path (the naive path still
        calls them)."""
        pb = ProgramBuilder()
        fb = pb.function("f", ["a", "b"], U64)
        fb.binop("sum", BinOp.ADD, "a", "b")
        fb.binop("small", BinOp.LT, "sum", 100)
        fb.cast("narrow", "sum", U8)
        fb.cast("flag", "small", U8, CastKind.BOOL_TO_INT)
        fb.switch("narrow", [(7, "seven")], "other")
        fb.label("seven")
        fb.ret("flag")
        fb.label("other")
        fb.ret(0)
        fb.finish()
        program = pb.build()
        calls = []

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Value, "expect_int",
                            counting("expect_int", Value.expect_int))
        monkeypatch.setattr(Value, "expect_bool",
                            counting("expect_bool", Value.expect_bool))
        monkeypatch.setattr(
            compile_module, "_as_switch_int",
            counting("switch", compile_module._as_switch_int))
        args = [mk_u64(3), mk_u64(4)]
        with fastpath.forced():
            assert Interpreter(program).call("f", args).value.value == 1
        assert calls == []
        with fastpath.disabled():
            assert Interpreter(program).call("f", args).value.value == 1
        assert "expect_int" in calls and "expect_bool" in calls


class TestBareTempAssign:
    """``var = rvalue`` to a bare temporary binds straight into the
    ``TempEnv`` dict; when ``var`` is unbound and names a global or a
    memory base, it must still write memory through ``_write_place``,
    as the naive path does."""

    @staticmethod
    def _program(global_init=None):
        pb = ProgramBuilder()
        if global_init is not None:
            pb.global_("G", global_init)
        fb = pb.function("peek", [], U64)
        fb.assign("_0", "G")
        fb.ret()
        fb.finish()
        fb = pb.function("f", ["a"], U64)
        fb.assign("G", "a")
        fb.call("_0", "peek", [])
        fb.ret()
        fb.finish()
        return pb.build()

    @staticmethod
    def _globals_after(interps):
        return [interp.memory.read(Path.global_("G")) for interp in interps]

    def test_program_global_is_written_in_memory(self):
        interps = []
        naive, compiled = both_modes(self._program(global_init=mk_u64(1)),
                                     args=[mk_u64(9)],
                                     prepare=interps.append)
        assert naive[0] == "ok" and naive[1] == mk_u64(9)
        assert compiled == naive
        assert self._globals_after(interps) == [mk_u64(9)] * 2

    def test_runtime_memory_base_is_written_in_memory(self):
        interps = []

        def allocate(interp):
            interp.memory.allocate(Path.global_("G").base, mk_u64(1))
            interps.append(interp)

        naive, compiled = both_modes(self._program(), args=[mk_u64(9)],
                                     prepare=allocate)
        assert naive[0] == "ok" and naive[1] == mk_u64(9)
        assert compiled == naive
        assert self._globals_after(interps) == [mk_u64(9)] * 2

    def test_non_value_binding_rejected_alike(self):
        pb = ProgramBuilder()
        fb = pb.function("f", [], U64)
        fb.assign("_0", ast.Use(ast.Constant(7)))
        fb.ret()
        fb.finish()
        naive, compiled = both_modes(pb.build())
        assert naive[:2] == ("err", "MirRuntimeError")
        assert "cannot bind non-Value 7" in naive[2]
        assert compiled == naive


class TestCaching:
    def test_compiled_blocks_cached_per_program(self):
        pb = ProgramBuilder()
        fb = pb.function("f", [], U64)
        fb.assign("_0", 1)
        fb.ret()
        fb.finish()
        program = pb.build()
        function = program.functions["f"]
        first = compiled_blocks(function, program)
        assert compiled_blocks(function, program) is first

    def test_block_plan_cached(self):
        pb = ProgramBuilder()
        fb = pb.function("f", [], U64)
        fb.assign("_0", 1)
        fb.ret()
        fb.finish()
        function = pb.build().functions["f"]
        assert block_plan(function) is block_plan(function)
