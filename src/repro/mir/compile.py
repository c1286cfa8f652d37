"""Mirlight basic blocks as generated Python functions.

The naive interpreter (:meth:`~repro.mir.interp.Interpreter.step`)
re-discovers the shape of every statement on every step: an
``isinstance`` ladder for the statement kind, another for the rvalue,
one per operand and one per projection.  The co-simulation sweeps run
the same few dozen functions tens of thousands of times, so that
discovery dominates their runtime although its outcome never changes.

This module writes each basic block of a function as the source text of
one Python function ``block(interp, frame)``, compiles the function's
blocks together the first time the function is called under a program,
and caches them on the function (:func:`compiled_blocks`).  A block
function runs its statements and its terminator inline:

* bare temporaries are read and written straight on the frame's
  ``TempEnv`` dict (a value that is not a ``Value`` goes to
  ``_write_place``, which raises the naive path's error);
* integer arithmetic (not division), compares and casts run behind a
  ``type(v) is IntValue`` (``BoolValue`` for bool casts) test, with
  ``IntValue`` constants as literals; any other operand goes to the
  interpreter's own ``_eval_binop``/``_eval_cast``, so errors are the
  naive path's;
* ``switchInt`` tests the ``mk_bool`` singletons and ``IntValue``
  first, and any other value goes through :func:`_as_switch_int`;
* ``goto``, ``drop``, ``assert`` and ``switchInt`` store the next label
  in ``frame.block``;
* a call to a registered trusted function goes through
  ``interp._trusted`` and stays in the block function; any other call
  pushes a frame with ``interp._push_frame`` and returns ``True``, as a
  return does, to tell :meth:`~repro.mir.interp.Interpreter.call`'s
  driver that the stack changed.

Everything else falls back to the interpreter's generic
``_read_place``/``_write_place`` (projections, locals in object memory,
derefs, dynamic indices, a temporary that is unbound and names a global
or a memory base), ``_eval_rvalue`` (aggregates, references, ``Len``,
division, unary and checked ops, ...), ``_exec_statement`` and
``_exec_terminator``: the single source of truth for the rare shapes.

**Semantic contract.**  A block function behaves exactly like the
``step()`` calls it replaces: same values, abstract-state transitions,
error types and messages, and one fuel unit per statement (no-ops
included) and per terminator, checked before each step.  The block
charges its whole cost on entry when the fuel covers it; when it does
not, the block runs with the reference :meth:`step` (:func:`_fuel_edge`),
which stops at exactly the step and position the naive interpreter
stops at.  Each statement stores its index in the local ``at`` before
it runs, and one handler around the body hands back the steps not
taken and leaves ``frame.stmt_index`` at ``at`` when a statement or the
terminator raises.  A call that pushes a frame leaves the caller at its
terminator, as ``step()`` does.

**What the source may contain.**  Program text reaches the generated
source only as the ``repr()`` of a ``str`` or an ``int``
(:meth:`_Writer.lit`): labels, temporary names, function names, assert
messages and the integers of ``IntValue`` constants.  Every other
object (values, places, types, rvalues, helpers) is bound in the
namespace the source runs in, under a name the generator makes up.  The
builder takes any label or name, and assert messages parsed from text
by :mod:`repro.mir.parser` hold any character, so this is what keeps
program text from being read as code.

The artifact is cached on ``function.__dict__['_compiled']`` keyed by
the owning program: a function shared across programs with different
globals is generated again.  Generation assumes the CFG is not mutated
afterwards, true for every corpus builder.

The cheap structural pieces are shared with the symbolic executor via
:func:`block_plan`.
"""

from repro.errors import MirAssertError, MirTypeError
from repro.mir import ast
from repro.mir.ast import BinOp, CastKind
from repro.mir.path import Path
from repro.mir.value import (
    BoolValue,
    FnValue,
    IntValue,
    Value,
    mk_bool,
    mk_int,
    unit,
)


def _as_switch_int(value):
    if isinstance(value, BoolValue):
        return 1 if value.value else 0
    try:
        return value.as_unsigned
    except AttributeError:
        raise MirTypeError(f"switchInt/assert on non-integer {value!r}")


def _fuel_edge(interp):
    """The fuel runs out inside the current block: take its steps with
    the reference :meth:`step`, which raises ``OutOfFuel`` (or the
    failing statement's own error) with ``steps`` and the frame's
    position where the naive interpreter leaves them."""
    while True:
        interp.step()


#: What every generated block may name besides its own bindings.
_HELPERS = {
    "_IntValue": IntValue,
    "_BoolValue": BoolValue,
    "_Value": Value,
    "_mk_int": mk_int,
    "_TRUE": mk_bool(True),
    "_FALSE": mk_bool(False),
    "_UNIT": unit(),
    "_MirAssertError": MirAssertError,
    "_as_switch_int": _as_switch_int,
    "_fuel_edge": _fuel_edge,
}

# Raw integer operators: on the ``.value`` of both sides, on their
# two's-complement bits, and the shifts (count modulo the lhs width).
_VALUE_OPS = {BinOp.ADD: "+", BinOp.SUB: "-", BinOp.MUL: "*"}
_BIT_OPS = {BinOp.BITAND: "&", BinOp.BITOR: "|", BinOp.BITXOR: "^"}
_SHIFT_OPS = {BinOp.SHL: "<<", BinOp.SHR: ">>"}
_CMP_OPS = {BinOp.EQ: "==", BinOp.NE: "!=", BinOp.LT: "<", BinOp.LE: "<=",
            BinOp.GT: ">", BinOp.GE: ">="}
_INLINE_BINOPS = frozenset().union(_VALUE_OPS, _BIT_OPS, _SHIFT_OPS,
                                   _CMP_OPS)


class _Writer:
    """The source text of one function's block functions and the
    namespace binding every object that text names."""

    def __init__(self, function, program):
        self.function = function
        self.program = program
        self.namespace = dict(_HELPERS)
        self.lines = []
        self.indent = 0
        self._names = 0

    # -- text ---------------------------------------------------------------

    def emit(self, line):
        self.lines.append("    " * self.indent + line)

    def bind(self, obj):
        """A fresh namespace name for ``obj``."""
        name = f"_k{self._names}"
        self._names += 1
        self.namespace[name] = obj
        return name

    def lit(self, value):
        """``value`` as a literal if it is a ``str`` or an ``int``,
        else the name it is bound to."""
        if type(value) in (str, int):
            return repr(value)
        return self.bind(value)

    def jump(self, label):
        if label in self.function.blocks:
            self.emit(f"frame.block = {self.lit(label)}")
        else:
            self.emit(f"frame.jump({self.lit(label)})")  # raises

    # -- blocks -------------------------------------------------------------

    def block(self, index, label, block):
        """Emit block ``label`` as function ``_b<index>``."""
        count = len(block.statements)
        self.emit(f"def _b{index}(interp, frame):  # {self.lit(label)}")
        self.indent += 1
        self.emit(f"if interp.fuel - interp.steps <= {count}:")
        self.emit("    _fuel_edge(interp)")
        self.emit(f"interp.steps += {count + 1}")
        self.emit("env = frame.env._values")
        self.emit("try:")
        self.indent += 1
        for at, stmt in enumerate(block.statements):
            self.statement(at, stmt)
        self.emit(f"at = {count}")
        self.terminator(block.terminator, count)
        self.indent -= 1
        self.emit("except BaseException:")
        self.emit(f"    interp.steps -= {count} - at")
        self.emit("    frame.stmt_index = at")
        self.emit("    raise")
        self.indent -= 1

    def statement(self, at, stmt):
        """Emit statement ``at`` of the block (no-ops emit nothing)."""
        if isinstance(stmt, (ast.StorageLive, ast.StorageDead, ast.Nop)):
            return  # Sec. 3.2: allocation is lazy, deallocation a no-op
        self.emit(f"at = {at}")
        if isinstance(stmt, ast.Assign):
            self.rvalue(stmt.rvalue, "x")
            self.write(stmt.place, "x")
        else:
            self.emit(f"interp._exec_statement(frame, {self.bind(stmt)})")

    # -- places -------------------------------------------------------------

    def _is_temp(self, place):
        return place.is_bare and not self.function.is_local_var(place.var)

    def read(self, place, target):
        """Emit ``target = <value of place>``."""
        generic = f"interp._read_place(frame, {self.bind(place)})"
        if not self._is_temp(place):
            self.emit(f"{target} = {generic}")
            return
        var = self.lit(place.var)
        self.emit(f"{target} = env[{var}] if {var} in env else {generic}")

    def write(self, place, value):
        """Emit the write of local ``value`` to ``place``: a ``Value``
        binds on the dict unless the name is an unbound global or memory
        base; anything else, including the error, is ``_write_place``'s."""
        generic = f"interp._write_place(frame, {self.bind(place)}, {value})"
        if not self._is_temp(place):
            self.emit(generic)
            return
        var = self.lit(place.var)
        if place.var in self.program.globals_:
            bound = f"{var} in env"
        else:
            base = self.bind(Path.global_(place.var).base)
            bound = f"({var} in env or not interp.memory.has_base({base}))"
        self.emit(f"if isinstance({value}, _Value) and {bound}:")
        self.emit(f"    env[{var}] = {value}")
        self.emit("else:")
        self.emit(f"    {generic}")

    # -- operands and rvalues -----------------------------------------------

    def operand(self, operand, target):
        """Emit the read of ``operand``; returns ``(expr, const)``: an
        expression for its value, and the value itself when it is an
        ``IntValue`` constant (else None)."""
        if isinstance(operand, (ast.Copy, ast.Move)):
            self.read(operand.place, target)
            return target, None
        if isinstance(operand, ast.Constant):
            value = operand.value
            return self.bind(value), (value if type(value) is IntValue
                                      else None)
        self.emit(f"{target} = interp._eval_operand(frame, "
                  f"{self.bind(operand)})")  # raises
        return target, None

    def rvalue(self, rvalue, target):
        """Emit ``target = <rvalue>``."""
        if isinstance(rvalue, ast.Use):
            expr, _const = self.operand(rvalue.operand, target)
            if expr != target:
                self.emit(f"{target} = {expr}")
        elif isinstance(rvalue, ast.BinaryOp) and rvalue.op in _INLINE_BINOPS:
            self.binop(rvalue, target)
        elif isinstance(rvalue, ast.Cast) and rvalue.kind in (
                CastKind.INT_TO_INT, CastKind.BOOL_TO_INT):
            self.cast(rvalue, target)
        else:
            self.emit(f"{target} = interp._eval_rvalue(frame, "
                      f"{self.bind(rvalue)})")

    def binop(self, rvalue, target):
        """Emit ``target = <integer binop or compare>``."""
        op = rvalue.op
        left, lconst = self.operand(rvalue.left, "l")
        right, rconst = self.operand(rvalue.right, "r")

        def signed(expr, const):
            return repr(const.value) if const is not None else f"{expr}.value"

        def bits(expr, const):
            if const is not None:
                return repr(const.as_unsigned)
            return f"({expr}.value % {expr}.ty.modulus)"

        if op in _CMP_OPS:
            fast = (f"_TRUE if {signed(left, lconst)} {_CMP_OPS[op]} "
                    f"{signed(right, rconst)} else _FALSE")
        else:
            ty = self.bind(lconst.ty) if lconst is not None else f"{left}.ty"
            if op in _VALUE_OPS:
                raw = (f"{signed(left, lconst)} {_VALUE_OPS[op]} "
                       f"{signed(right, rconst)}")
            elif op in _BIT_OPS:
                raw = (f"{bits(left, lconst)} {_BIT_OPS[op]} "
                       f"{bits(right, rconst)}")
            else:
                width = (repr(lconst.ty.width) if lconst is not None
                         else f"{left}.ty.width")
                raw = (f"{bits(left, lconst)} {_SHIFT_OPS[op]} "
                       f"({bits(right, rconst)} % {width})")
            fast = f"_mk_int({raw}, {ty})"
        tests = [f"type({expr}) is _IntValue"
                 for expr, const in ((left, lconst), (right, rconst))
                 if const is None]
        if not tests:
            self.emit(f"{target} = {fast}")
            return
        self.emit(f"if {' and '.join(tests)}:")
        self.emit(f"    {target} = {fast}")
        self.emit("else:")
        self.emit(f"    {target} = interp._eval_binop({self.bind(op)}, "
                  f"{left}, {right})")

    def cast(self, cast, target):
        """Emit ``target = <int-to-int or bool-to-int cast>``."""
        value, _const = self.operand(cast.operand, "l")
        ty = self.bind(cast.ty)
        if cast.kind is CastKind.INT_TO_INT:
            self.emit(f"if type({value}) is _IntValue:")
            self.emit(f"    {target} = _mk_int({value}.value, {ty})")
        else:
            self.emit(f"if type({value}) is _BoolValue:")
            self.emit(f"    {target} = _mk_int(1 if {value}.value else 0, "
                      f"{ty})")
        self.emit("else:")
        self.emit(f"    {target} = interp._eval_cast({self.bind(cast)}, "
                  f"{value})")

    def switch_int(self, operand):
        """Emit ``s = <operand as switchInt reads it>``."""
        value, _const = self.operand(operand, "s")
        self.emit(f"if {value} is _TRUE:")
        self.emit("    s = 1")
        self.emit(f"elif {value} is _FALSE:")
        self.emit("    s = 0")
        self.emit(f"elif type({value}) is _IntValue:")
        self.emit(f"    s = {value}.value % {value}.ty.modulus")
        self.emit("else:")
        self.emit(f"    s = _as_switch_int({value})")

    # -- terminators ----------------------------------------------------------

    def terminator(self, term, count):
        if isinstance(term, (ast.Goto, ast.Drop)):
            self.jump(term.target)
        elif isinstance(term, ast.SwitchInt):
            self.switch_int(term.operand)
            seen = set()
            keyword = "if"
            for value, label in term.targets:
                if value in seen:
                    continue  # first matching target wins
                seen.add(value)
                self.emit(f"{keyword} s == {self.lit(value)}:")
                self.indent += 1
                self.jump(label)
                self.indent -= 1
                keyword = "elif"
            if seen:
                self.emit("else:")
                self.indent += 1
            self.jump(term.otherwise)
            if seen:
                self.indent -= 1
        elif isinstance(term, ast.Assert):
            self.switch_int(term.cond)
            self.emit(f"if (s != 0) != {self.bind(term.expected)}:")
            self.emit(f"    raise _MirAssertError({self.lit(term.msg)}, "
                      f"frame.function.name, frame.block)")
            self.jump(term.target)
        elif isinstance(term, ast.Return):
            self.emit("interp._exec_return(frame)")
            self.emit("return True")
        elif isinstance(term, ast.Call) and isinstance(
                term.func, ast.Constant) and isinstance(
                term.func.value, FnValue):
            self.call(term, count)
        else:
            self.emit(f"frame.stmt_index = {count}")
            self.emit(f"interp._exec_terminator(frame, {self.bind(term)})")
            self.emit("return True")

    def call(self, term, count):
        """Emit a call terminator to a named function: its trusted spec
        inline, else a pushed frame."""
        args = []
        for index, arg in enumerate(term.args):
            args.append(self.operand(arg, f"a{index}")[0])
        values = f"({', '.join(args)}{',' if len(args) == 1 else ''})"
        name = self.lit(term.func.value.name)
        self.emit(f"t = interp._trusted.get({name})")
        self.emit("if t is None:")
        self.emit(f"    frame.stmt_index = {count}")
        self.emit(f"    interp._push_frame({name}, {values}, "
                  f"{self.bind(term.dest)}, {self.lit(term.target)})")
        self.emit("    return True")
        self.emit(f"x, interp.absstate = t.spec({values}, interp.absstate)")
        self.emit("if x is None:")
        self.emit("    x = _UNIT")
        self.write(term.dest, "x")
        self.jump(term.target)


def block_source(function, program):
    """The generated source of ``function``'s blocks under ``program``
    and the namespace it runs in: ``(source, namespace, labels)``, where
    block ``labels[i]`` is the function ``_b<i>``."""
    writer = _Writer(function, program)
    labels = tuple(function.blocks)
    for index, label in enumerate(labels):
        writer.block(index, label, function.blocks[label])
    return "\n".join(writer.lines) + "\n", writer.namespace, labels


def compiled_blocks(function, program):
    """Label -> block function for ``function`` under ``program``.

    Generated and compiled on first use, then cached on the function
    object, keyed by the owning program.
    """
    cached = function.__dict__.get("_compiled")
    if cached is not None and cached[0] is program:
        return cached[1]
    source, namespace, labels = block_source(function, program)
    exec(compile(source, f"<mirlight {function.name!r}>", "exec"),
         namespace)
    artifact = {label: namespace[f"_b{index}"]
                for index, label in enumerate(labels)}
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
