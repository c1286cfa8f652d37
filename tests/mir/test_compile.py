"""The compiled dispatch loop must be invisible.

:mod:`repro.mir.compile` turns each basic block into one generated
Python function so the hot interpreter loop skips per-step AST
dispatch.  The contract is byte-identical behaviour with
:meth:`Interpreter.step`: same values, same step accounting (fuel
exhaustion at the same step, with the same message), same error types
and messages, and every frame left at the same position.  These tests
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
from repro.mir.compile import block_plan, block_source, compiled_blocks
from repro.mir.interp import Interpreter, TrustedFunction
from repro.mir.path import Path
from repro.mir.types import U8, U64
from repro.mir.value import (BoolValue, FnValue, Value, mk_bool, mk_tuple,
                             mk_u64)

from tests.mir.test_random_programs import random_programs


def both_modes(program, name="f", args=(), fuel=None, prepare=None):
    """Run ``name`` naively and compiled; return the two outcomes.

    An outcome is ``("ok", value, steps)`` or
    ``("err", type_name, message, steps, positions)``, where
    ``positions`` is ``(function, block, stmt_index)`` of every frame
    left on the stack, the top frame last — everything the two modes
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
                positions = tuple((f.function.name, f.block, f.stmt_index)
                                  for f in interp._frames)
                outcomes.append(("err", type(exc).__name__, str(exc),
                                 interp.steps, positions))
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


def _long_block_program():
    """``f(a)``: a 12-statement entry block (arithmetic, compares,
    copies, constants and no-ops) ending in ``goto``, then ``return``."""
    pb = ProgramBuilder()
    fb = pb.function("f", ["a"], U64)
    fb._emit(ast.StorageLive("x"))
    fb.binop("x", BinOp.ADD, "a", 1)
    fb.binop("y", BinOp.MUL, "x", 3)
    fb._emit(ast.Nop())
    fb.binop("small", BinOp.LT, "y", 100)
    fb.assign("z", "y")
    fb.binop("z", BinOp.BITXOR, "z", "x")
    fb.cast("w", "z", U8)
    fb.binop("z", BinOp.SHL, "z", 2)
    fb._emit(ast.StorageDead("x"))
    fb.assign("k", 7)
    fb.binop("_0", BinOp.SUB, "z", "k")
    fb.goto("tail")
    fb.label("tail")
    fb.ret()
    fb.finish()
    return pb.build()


_LONG_BLOCK_STATEMENTS = 12


class TestGeneratedBlocks:
    """A generated block takes one fuel unit per statement and per
    terminator, and leaves ``steps`` and the frame's position where
    :meth:`Interpreter.step` does when it stops mid-block."""

    @pytest.mark.parametrize("fuel", range(_LONG_BLOCK_STATEMENTS + 3))
    def test_fuel_runs_out_at_every_position(self, fuel):
        naive, compiled = both_modes(_long_block_program(),
                                     args=[mk_u64(5)], fuel=fuel)
        assert compiled == naive
        if fuel <= _LONG_BLOCK_STATEMENTS:
            # at statement ``fuel`` of the entry block, or its goto
            assert naive == ("err", "OutOfFuel",
                             f"exceeded fuel of {fuel} steps", fuel,
                             (("f", "bb0", fuel),))
        elif fuel == _LONG_BLOCK_STATEMENTS + 1:
            assert naive[:2] == ("err", "OutOfFuel")
            assert naive[4] == (("f", "tail", 0),)
        else:
            assert naive[0] == "ok" and naive[2] == fuel

    @pytest.mark.parametrize("at", [0, 3, 5])
    def test_statement_raising_mid_block(self, at):
        pb = ProgramBuilder()
        fb = pb.function("f", ["a"], U64)
        for index in range(6):
            if index == at:
                fb.binop(f"t{index}", BinOp.DIV, "a", 0)
            else:
                fb.binop(f"t{index}", BinOp.ADD, "a", index)
        fb.ret("t5")
        fb.finish()
        naive, compiled = both_modes(pb.build(), args=[mk_u64(9)])
        assert compiled == naive
        assert naive == ("err", "MirAssertError",
                         "assertion failed: attempt to divide by zero",
                         at + 1, (("f", "bb0", at),))

    def test_operands_are_read_before_either_is_checked(self):
        """``bool + unbound`` fails on the unbound read, as in step()."""
        pb = ProgramBuilder()
        fb = pb.function("f", ["a"], U64)
        fb.binop("_0", BinOp.ADD, "a", "never_written")
        fb.ret()
        fb.finish()
        naive, compiled = both_modes(pb.build(), args=[mk_bool(True)])
        assert compiled == naive
        assert naive[:2] == ("err", "MirRuntimeError")
        assert "never_written" in naive[2]

    @pytest.mark.parametrize("target,error", [
        (ast.place("t").field(0).downcast(1).field(1), None),
        (ast.place("t").field(1), None),
        (ast.place("t").field(0).downcast(0).field(1),
         "downcast to variant 0 but live discriminant is 1"),
        (ast.place("t").field(3), "field index 3 out of range"),
        (ast.place("t").field(1).field(0),
         "temp projection: expected aggregate"),
    ], ids=["downcast-field", "field", "wrong-variant", "out-of-range",
            "through-integer"])
    def test_temp_projection_chains(self, target, error):
        """Projected reads of a temporary take the generic resolver."""
        pb = ProgramBuilder()
        fb = pb.function("f", ["a"], U64)
        fb.variant("e", 1, 4, "a")
        fb.tuple_("t", "e", "a")
        fb.assign("_0", target)
        fb.ret()
        fb.finish()
        naive, compiled = both_modes(pb.build(), args=[mk_u64(6)])
        assert compiled == naive
        if error is None:
            assert naive[:2] == ("ok", mk_u64(6))
        else:
            assert naive[0] == "err" and error in naive[2]
            assert naive[4] == (("f", "bb0", 2),)

    @staticmethod
    def _mixed_calls_program():
        pb = ProgramBuilder()
        fb = pb.function("double", ["v"], U64)
        fb.binop("_0", BinOp.MUL, "v", 2)
        fb.ret()
        fb.finish()
        fb = pb.function("f", ["a"], U64)
        fb.call("x", "bump", ["a"])
        fb.binop("w", BinOp.ADD, "x", 1)
        fb.call("y", "double", ["w"])
        fb.assign("y2", "y")
        fb.call("z", "bump", ["y2"])
        fb.binop("_0", BinOp.ADD, "y", "z")
        fb.ret()
        fb.finish()
        return pb.build()

    @staticmethod
    def _register_bump(limit):
        """``bump(v)``: ``v + state``, and the state counts calls; it
        refuses arguments from ``limit`` up."""
        def bump(args, state):
            (value,) = args
            if value.value >= limit:
                raise MirRuntimeError(f"bump refuses {value.value}")
            return mk_u64(value.value + state), state + 1

        def prepare(interp):
            interp.absstate = 10
            interp.register_trusted(TrustedFunction("bump", bump))
        return prepare

    def test_trusted_and_mir_callees_in_one_sequence(self):
        naive, compiled = both_modes(self._mixed_calls_program(),
                                     args=[mk_u64(1)],
                                     prepare=self._register_bump(1000))
        assert compiled == naive
        # x = 1 + 10, y = 2 * 12, z = 24 + 11
        assert naive[0] == "ok" and naive[1] == mk_u64(59)

    def test_trusted_callee_raising_leaves_caller_at_its_terminator(self):
        naive, compiled = both_modes(self._mixed_calls_program(),
                                     args=[mk_u64(1)],
                                     prepare=self._register_bump(20))
        assert compiled == naive
        assert naive[:3] == ("err", "MirRuntimeError", "bump refuses 24")
        assert naive[4] == (("f", "bb2", 1),)

    def test_mir_callee_failing_leaves_caller_at_its_terminator(self):
        naive, compiled = both_modes(self._mixed_calls_program(),
                                     args=[mk_u64(1)], fuel=4,
                                     prepare=self._register_bump(1000))
        assert compiled == naive
        assert naive[:2] == ("err", "OutOfFuel")
        assert naive[4] == (("f", "bb1", 1), ("double", "bb0", 1))

    @pytest.mark.parametrize("flag", [True, False])
    def test_switch_on_a_bool_that_is_not_the_singleton(self, flag):
        fresh = BoolValue(flag)
        assert fresh is not mk_bool(flag)
        pb = ProgramBuilder()
        fb = pb.function("f", ["a"], U64)
        fb.assert_("a", "a must hold", expected=flag)
        fb.branch("a", "yes", "no")
        fb.label("yes")
        fb.ret(1)
        fb.label("no")
        fb.ret(2)
        fb.finish()
        naive, compiled = both_modes(pb.build(), args=[fresh])
        assert compiled == naive
        assert naive[:2] == ("ok", mk_u64(1 if flag else 2))
        naive, compiled = both_modes(pb.build(), args=[BoolValue(not flag)])
        assert compiled == naive
        assert naive[:3] == ("err", "MirAssertError",
                             "assertion failed in f (block bb0): a must hold")

    @pytest.mark.parametrize("callee", [ast.ConstFn("double"),
                                        ast.Constant(mk_u64(3))],
                             ids=["fn-value", "not-a-function"])
    def test_call_through_a_temporary_and_drop(self, callee):
        """Terminators the generator leaves to ``_exec_terminator``."""
        pb = ProgramBuilder()
        fb = pb.function("double", ["v"], U64)
        fb.binop("_0", BinOp.MUL, "v", 2)
        fb.ret()
        fb.finish()
        fb = pb.function("f", ["a"], U64)
        fb.assign("g", callee)
        fb._terminate(ast.Drop(ast.place("g"), "call"))
        fb.label("call")
        fb.binop("b", BinOp.ADD, "a", 1)
        fb._terminate(ast.Call(ast.Copy(ast.place("g")),
                               (ast.Copy(ast.place("b")),),
                               ast.place("_0"), "done"))
        fb.label("done")
        fb.ret()
        fb.finish()
        naive, compiled = both_modes(pb.build(), args=[mk_u64(4)])
        assert compiled == naive
        if isinstance(callee.value, FnValue):
            assert naive[:2] == ("ok", mk_u64(10))
        else:
            assert naive[:2] == ("err", "MirTypeError")
            assert naive[4] == (("f", "call", 1),)


#: Labels, temporaries and a callee name that would break out of a
#: string literal (or a comment) if they reached the source verbatim.
_HOSTILE = ("it's", 'say "hi"', "back\\slash\\", "new\nline",
            "'); raise SystemExit('injected'); ('",
            "\\'\n__import__('os').system('false')\n#")


class TestProgramTextInSource:
    """Program text reaches generated source only as ``repr()`` of a
    ``str`` or an ``int``."""

    @staticmethod
    def _program():
        pb = ProgramBuilder()
        callee = _HOSTILE[4]
        fb = pb.function(callee, ["v"], U64)
        fb.binop("_0", BinOp.ADD, "v", 1)
        fb.ret()
        fb.finish()
        fb = pb.function("f", ["a"], U64)
        temps = _HOSTILE[:4]
        fb.assign(temps[0], "a")
        for prev, temp in zip(temps, temps[1:]):
            fb.binop(temp, BinOp.ADD, prev, 1)
        fb.binop(_HOSTILE[5], BinOp.LT, temps[-1], 100)
        fb.branch(_HOSTILE[5], _HOSTILE[0], _HOSTILE[1])
        fb.label(_HOSTILE[0])
        fb.call("_0", callee, [temps[-1]], target=_HOSTILE[2])
        fb.label(_HOSTILE[1])
        fb.assert_(_HOSTILE[5], _HOSTILE[3], target=_HOSTILE[2])
        fb.label(_HOSTILE[2])
        fb.ret()
        fb.finish()
        return pb.build()

    @pytest.mark.parametrize("a", [1, 500])
    def test_hostile_names_run_alike(self, a):
        naive, compiled = both_modes(self._program(), args=[mk_u64(a)])
        assert compiled == naive
        if a == 1:
            assert naive[:2] == ("ok", mk_u64(5))
        else:
            assert naive[:2] == ("err", "MirAssertError")
            assert naive[2].endswith(f"(block {_HOSTILE[1]}): {_HOSTILE[3]}")

    def test_names_appear_only_as_repr(self):
        program = self._program()
        source, _namespace, labels = block_source(
            program.functions["f"], program)
        assert labels == tuple(program.functions["f"].blocks)
        for text in _HOSTILE:
            assert repr(text) in source
            assert source.replace(repr(text), "").count(text) == 0


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
