"""Per-CFG precompilation of mirlight functions.

The naive interpreter (:mod:`repro.mir.interp`) re-discovers the shape
of every statement on every step: an ``isinstance`` ladder for the
statement kind, another for the rvalue, one per operand, one per
projection, and a fresh :class:`~repro.mir.path.Path` for every global
base it touches.  For the checking workloads (co-simulation sweeps run
the same 49 functions tens of thousands of times) that discovery work
dominates the runtime even though its outcome is identical on every
execution.

This module walks each function **once** and compiles every statement
and terminator into a closure ``op(interp, frame)`` with the discovery
pre-resolved:

* statement/rvalue/operand kinds become direct closure calls,
* arithmetic dispatches through per-op lambdas instead of an if-ladder,
* binop, compare, switch and cast closures test ``type(v) is
  IntValue`` before anything else; any other operand falls through to
  the generic ``expect_int``/``isinstance`` checks, so errors are
  unchanged,
* global base paths are constructed once per function, not per access,
* bare temporary reads/writes go straight at the ``TempEnv`` dict
  (the write keeps ``TempEnv.write``'s Value check inline),
* the common ``temp.field...`` projection chains are unrolled.

The artifact is cached on ``function.__dict__['_compiled']`` keyed by
the owning program (functions are rebuilt with their program; a function
shared across programs with different globals recompiles).  Compilation
assumes the CFG is not mutated afterwards — true for every corpus
builder, which constructs fresh ``Function`` objects per program.

**Semantic contract.**  Every closure reproduces the naive path's
observable behaviour exactly: same values, same abstract-state
transitions, same exception types and messages, and — load-bearing for
the checking harness — the same *step accounting* (the driver loop in
:meth:`~repro.mir.interp.Interpreter.call` still charges one fuel unit
per statement including no-ops, exactly like :meth:`step`).  The
symbolic bench asserts byte-identical verdicts over the whole corpus
with this layer on and off.

The cheap structural pieces are shared with the symbolic executor via
:func:`block_plan` — both engines iterate ``(statements, terminator,
n_statements)`` tuples resolved once per block instead of re-reading
the AST maps each step.
"""

import operator

from repro.errors import (
    MirAssertError,
    MirRuntimeError,
    MirTypeError,
)
from repro.mir import ast
from repro.mir.ast import BinOp, CastKind, UnOp
from repro.mir.path import Path
from repro.mir.value import (
    Aggregate,
    BoolValue,
    FnValue,
    IntValue,
    Value,
    mk_bool,
    mk_int,
    mk_tuple,
    unit,
)

_MISSING = object()
_TRUE = mk_bool(True)
_FALSE = mk_bool(False)


# ---------------------------------------------------------------------------
# Raw arithmetic, one lambda per operator (mirrors interp._arith_raw)
# ---------------------------------------------------------------------------


def _raw_div(lhs, rhs):
    a, b = lhs.value, rhs.value
    if b == 0:
        raise MirAssertError("attempt to divide by zero")
    return int(a / b) if (a < 0) != (b < 0) else a // b


def _raw_rem(lhs, rhs):
    a, b = lhs.value, rhs.value
    if b == 0:
        raise MirAssertError(
            "attempt to calculate remainder with divisor zero")
    return a - b * (int(a / b) if (a < 0) != (b < 0) else a // b)


_RAW_ARITH = {
    BinOp.ADD: lambda lhs, rhs: lhs.value + rhs.value,
    BinOp.SUB: lambda lhs, rhs: lhs.value - rhs.value,
    BinOp.MUL: lambda lhs, rhs: lhs.value * rhs.value,
    BinOp.DIV: _raw_div,
    BinOp.REM: _raw_rem,
    BinOp.BITAND: lambda lhs, rhs: lhs.as_unsigned & rhs.as_unsigned,
    BinOp.BITOR: lambda lhs, rhs: lhs.as_unsigned | rhs.as_unsigned,
    BinOp.BITXOR: lambda lhs, rhs: lhs.as_unsigned ^ rhs.as_unsigned,
    BinOp.SHL: lambda lhs, rhs: lhs.as_unsigned << (
        rhs.as_unsigned % lhs.ty.width),
    BinOp.SHR: lambda lhs, rhs: lhs.as_unsigned >> (
        rhs.as_unsigned % lhs.ty.width),
}

_RAW_CMP = {
    BinOp.EQ: operator.eq,
    BinOp.NE: operator.ne,
    BinOp.LT: operator.lt,
    BinOp.LE: operator.le,
    BinOp.GT: operator.gt,
    BinOp.GE: operator.ge,
}


def _as_switch_int(value):
    if isinstance(value, BoolValue):
        return 1 if value.value else 0
    try:
        return value.as_unsigned
    except AttributeError:
        raise MirTypeError(f"switchInt/assert on non-integer {value!r}")


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------
#
# A compiled place is a (reader, writer) pair of closures.  Three tiers:
# bare temporaries hit the TempEnv dict directly; temp-rooted chains of
# static field projections (and downcasts) are unrolled; everything else
# (locals, derefs, dynamic indices) falls back to the interpreter's
# generic resolver, which stays the single source of truth for the
# exotic cases.

_PROJ_FIELD = 0
_PROJ_DOWNCAST = 1


def _simple_steps(place):
    """The unrolled (kind, payload) steps for a temp-friendly projection
    chain, or None if the chain needs the generic resolver."""
    steps = []
    for proj in place.projections:
        if isinstance(proj, (ast.FieldProj, ast.ConstantIndex)):
            steps.append((_PROJ_FIELD, proj.index))
        elif isinstance(proj, ast.Downcast):
            steps.append((_PROJ_DOWNCAST, proj.variant))
        else:
            return None
    return tuple(steps)


def _compile_place(place, function, program):
    var = place.var
    if function.is_local_var(var):
        # Locals live in object memory pinned to the frame — rare in the
        # corpus (the pure fragment has none); generic path.
        return (lambda interp, frame: interp._read_place(frame, place),
                lambda interp, frame, value:
                    interp._write_place(frame, place, value))
    is_global = var in program.globals_
    gbase = Path.global_(var).base
    steps = _simple_steps(place)

    def read(interp, frame):
        root = frame.env._values.get(var, _MISSING)
        if root is _MISSING:
            if is_global or interp.memory.has_base(gbase):
                return interp._read_place(frame, place)
            raise MirRuntimeError(f"read of uninitialised temporary {var!r}")
        for kind, payload in steps:
            if kind == _PROJ_FIELD:
                root = root.expect_aggregate("temp projection").field(payload)
            else:
                live = root.expect_aggregate("downcast")
                if live.discriminant != payload:
                    raise MirRuntimeError(
                        f"downcast to variant {payload} but live "
                        f"discriminant is {live.discriminant}")
        return root

    if steps is None:
        read = (lambda interp, frame: interp._read_place(frame, place))

    if place.is_bare:
        def write(interp, frame, value):
            values = frame.env._values
            if var not in values and (
                    is_global or interp.memory.has_base(gbase)):
                interp._write_place(frame, place, value)
            elif isinstance(value, Value):
                values[var] = value
            else:
                frame.env.write(var, value)  # raises TempEnv's error
    else:
        def write(interp, frame, value):
            interp._write_place(frame, place, value)

    return read, write


def _compile_operand(operand, function, program):
    if isinstance(operand, (ast.Copy, ast.Move)):
        return _compile_place(operand.place, function, program)[0]
    if isinstance(operand, ast.Constant):
        value = operand.value
        return lambda interp, frame: value
    def unknown(interp, frame):
        raise MirRuntimeError(f"unknown operand {operand!r}")
    return unknown


# ---------------------------------------------------------------------------
# Rvalues
# ---------------------------------------------------------------------------


def _compile_rvalue(rvalue, function, program):
    if isinstance(rvalue, ast.Use):
        return _compile_operand(rvalue.operand, function, program)
    if isinstance(rvalue, (ast.Ref, ast.AddressOf)):
        place = rvalue.place
        return lambda interp, frame: interp._eval_ref(frame, place)
    if isinstance(rvalue, ast.BinaryOp):
        return _compile_binop(rvalue, function, program)
    if isinstance(rvalue, ast.CheckedBinaryOp):
        return _compile_checked_binop(rvalue, function, program)
    if isinstance(rvalue, ast.UnaryOp):
        operand = _compile_operand(rvalue.operand, function, program)
        if rvalue.op is UnOp.NOT:
            def unop_not(interp, frame):
                value = operand(interp, frame)
                if isinstance(value, BoolValue):
                    return mk_bool(not value.value)
                as_int = value.expect_int("unop !")
                return mk_int(~as_int.as_unsigned, as_int.ty)
            return unop_not
        if rvalue.op is UnOp.NEG:
            def unop_neg(interp, frame):
                as_int = operand(interp, frame).expect_int("unop -")
                return mk_int(-as_int.value, as_int.ty)
            return unop_neg
        def unop_unknown(interp, frame):
            raise MirRuntimeError(f"unknown unary op {rvalue.op!r}")
        return unop_unknown
    if isinstance(rvalue, ast.Cast):
        operand = _compile_operand(rvalue.operand, function, program)
        cast = rvalue
        if cast.kind is CastKind.INT_TO_INT:
            ty = cast.ty
            def cast_int(interp, frame):
                value = operand(interp, frame)
                if type(value) is not IntValue:
                    value = value.expect_int("cast")
                return mk_int(value.value, ty)
            return cast_int
        if cast.kind is CastKind.BOOL_TO_INT:
            ty = cast.ty
            def cast_bool(interp, frame):
                value = operand(interp, frame)
                if type(value) is not BoolValue:
                    value = value.expect_bool("cast")
                return mk_int(1 if value.value else 0, ty)
            return cast_bool
        def cast_other(interp, frame):
            return interp._eval_cast(cast, operand(interp, frame))
        return cast_other
    if isinstance(rvalue, ast.AggregateRv):
        operands = tuple(_compile_operand(o, function, program)
                         for o in rvalue.operands)
        discriminant = (rvalue.variant
                        if rvalue.kind is ast.AggregateKind.VARIANT else 0)
        return lambda interp, frame: Aggregate(
            discriminant, tuple(o(interp, frame) for o in operands))
    if isinstance(rvalue, ast.Repeat):
        operand = _compile_operand(rvalue.operand, function, program)
        count = rvalue.count
        return lambda interp, frame: Aggregate(
            0, (operand(interp, frame),) * count)
    if isinstance(rvalue, ast.Len):
        read = _compile_place(rvalue.place, function, program)[0]
        return lambda interp, frame: mk_int(
            len(read(interp, frame).expect_aggregate("Len")))
    if isinstance(rvalue, ast.Discriminant):
        read = _compile_place(rvalue.place, function, program)[0]
        return lambda interp, frame: mk_int(
            read(interp, frame).expect_aggregate("Discriminant").discriminant)
    if isinstance(rvalue, ast.CopyForDeref):
        return _compile_place(rvalue.place, function, program)[0]
    def generic(interp, frame):
        return interp._eval_rvalue(frame, rvalue)
    return generic


def _compile_binop(rvalue, function, program):
    left = _compile_operand(rvalue.left, function, program)
    right = _compile_operand(rvalue.right, function, program)
    op = rvalue.op
    raw_cmp = _RAW_CMP.get(op)
    if raw_cmp is not None:
        message = f"compare {op.value}"
        def binop_cmp(interp, frame):
            lv = left(interp, frame)
            rv = right(interp, frame)
            if type(lv) is IntValue and type(rv) is IntValue:
                return _TRUE if raw_cmp(lv.value, rv.value) else _FALSE
            if isinstance(lv, BoolValue) and isinstance(rv, BoolValue):
                return mk_bool(raw_cmp(lv.value, rv.value))
            return mk_bool(raw_cmp(lv.expect_int(message).value,
                                   rv.expect_int(message).value))
        return binop_cmp
    raw = _RAW_ARITH.get(op)
    if raw is None:
        def binop_unknown(interp, frame):
            raise MirRuntimeError(f"unknown arithmetic op {op!r}")
        return binop_unknown
    message = f"binop {op.value}"
    def binop_arith(interp, frame):
        lhs = left(interp, frame)
        if type(lhs) is not IntValue:
            lhs = lhs.expect_int(message)
        rhs = right(interp, frame)
        if type(rhs) is not IntValue:
            rhs = rhs.expect_int(message)
        return mk_int(raw(lhs, rhs), lhs.ty)
    return binop_arith


def _compile_checked_binop(rvalue, function, program):
    left = _compile_operand(rvalue.left, function, program)
    right = _compile_operand(rvalue.right, function, program)
    op = rvalue.op
    raw = _RAW_ARITH.get(op)
    message = f"checked {op.value}"
    def checked(interp, frame):
        lhs = left(interp, frame).expect_int(message)
        rhs = right(interp, frame).expect_int(message)
        if raw is None:
            raise MirRuntimeError(f"unknown arithmetic op {op!r}")
        value = raw(lhs, rhs)
        return mk_tuple(mk_int(value, lhs.ty),
                        mk_bool(not lhs.ty.contains(value)))
    return checked


# ---------------------------------------------------------------------------
# Statements and terminators
# ---------------------------------------------------------------------------


def _noop(interp, frame):
    pass


def _compile_statement(stmt, function, program):
    if isinstance(stmt, ast.Assign):
        rvalue = _compile_rvalue(stmt.rvalue, function, program)
        write = _compile_place(stmt.place, function, program)[1]
        return lambda interp, frame: write(
            interp, frame, rvalue(interp, frame))
    if isinstance(stmt, ast.SetDiscriminant):
        read, write = _compile_place(stmt.place, function, program)
        variant = stmt.variant
        def set_discriminant(interp, frame):
            agg = read(interp, frame).expect_aggregate("SetDiscriminant")
            write(interp, frame, agg.with_discriminant(variant))
        return set_discriminant
    if isinstance(stmt, (ast.StorageLive, ast.StorageDead, ast.Nop)):
        return _noop
    def unknown(interp, frame):
        raise MirRuntimeError(f"unknown statement {stmt!r}")
    return unknown


def _compile_terminator(term, function, program):
    if isinstance(term, (ast.Goto, ast.Drop)):
        target = term.target
        return lambda interp, frame: frame.jump(target)
    if isinstance(term, ast.SwitchInt):
        operand = _compile_operand(term.operand, function, program)
        # First matching target wins, like the naive linear scan.
        table = {}
        for value, label in term.targets:
            table.setdefault(value, label)
        otherwise = term.otherwise
        def switch(interp, frame):
            value = operand(interp, frame)
            if type(value) is IntValue:
                scrutinee = value.as_unsigned
            else:
                scrutinee = _as_switch_int(value)
            frame.jump(table.get(scrutinee, otherwise))
        return switch
    if isinstance(term, ast.Return):
        return lambda interp, frame: interp._exec_return(frame)
    if isinstance(term, ast.Assert):
        operand = _compile_operand(term.cond, function, program)
        expected, message, target = term.expected, term.msg, term.target
        def assert_(interp, frame):
            truth = _as_switch_int(operand(interp, frame)) != 0
            if truth != expected:
                raise MirAssertError(message, frame.function.name,
                                     frame.block)
            frame.jump(target)
        return assert_
    if isinstance(term, ast.Call):
        func = _compile_operand(term.func, function, program)
        args = tuple(_compile_operand(a, function, program)
                     for a in term.args)
        write_dest = _compile_place(term.dest, function, program)[1]
        dest, target = term.dest, term.target
        def call(interp, frame):
            fn_value = func(interp, frame)
            if not isinstance(fn_value, FnValue):
                raise MirTypeError(
                    f"call through non-function value {fn_value!r}")
            values = tuple([a(interp, frame) for a in args])
            trusted = interp._trusted.get(fn_value.name)
            if trusted is not None:
                ret, interp.absstate = trusted.spec(values, interp.absstate)
                write_dest(interp, frame,
                           ret if ret is not None else unit())
                frame.jump(target)
                return
            interp._push_frame(fn_value.name, values,
                               dest=dest, return_to=target)
        return call
    def unknown(interp, frame):
        raise MirRuntimeError(f"unknown terminator {term!r}")
    return unknown


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def compiled_blocks(function, program):
    """The compiled artifact for ``function``: a dict mapping block
    label to ``(statement_closures, terminator_closure, n_statements)``.

    Cached on the function object, keyed by the owning program.
    """
    cached = function.__dict__.get("_compiled")
    if cached is not None and cached[0] is program:
        return cached[1]
    artifact = {}
    for label, block in function.blocks.items():
        closures = tuple(_compile_statement(s, function, program)
                         for s in block.statements)
        terminator = _compile_terminator(block.terminator, function, program)
        artifact[label] = (closures, terminator, len(closures))
    function.__dict__["_compiled"] = (program, artifact)
    return artifact


def block_plan(function):
    """The structural per-block plan shared with the symbolic executor:
    label -> ``(statements, terminator, n_statements)``.

    Pure AST restructuring (no program-dependent resolution), so it is
    cached unconditionally on the function.
    """
    cached = function.__dict__.get("_block_plan")
    if cached is not None:
        return cached
    plan = {
        label: (block.statements, block.terminator, len(block.statements))
        for label, block in function.blocks.items()
    }
    function.__dict__["_block_plan"] = plan
    return plan
