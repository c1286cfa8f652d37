"""Small-step operational semantics for mirlight.

The interpreter follows the CompCert style used by the paper (Sec. 3.1):
a configuration is a stack of activation frames over an object memory and
an abstract state, and :meth:`Interpreter.step` fires exactly one
statement or terminator rule.  :meth:`Interpreter.call` drives steps to
completion under a fuel bound.

Three design points carried over from the paper:

* **Temporaries vs locals** (Sec. 3.2): variables whose address is taken
  live in object memory under a frame-pinned base; everything else lives
  in the frame's temporary environment, so most functions never write
  memory.
* **Trusted functions** (Sec. 4.2): calls to registered trusted names
  dispatch to a specification ``(args, absstate) -> (ret, absstate)``
  instead of MIR code — the bottom layer of the CCAL stack.
* **Pointer kinds** (Sec. 3.4): dereferencing dispatches on the runtime
  pointer value — concrete paths read/write object memory, trusted
  pointers call their getter/setter against the abstract state, RData
  pointers refuse access outside their owner layer.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro import fastpath
from repro.errors import (
    EncapsulationViolation,
    MirAssertError,
    MirRuntimeError,
    MirTypeError,
    OutOfFuel,
)
from repro.mir import ast
from repro.mir.ast import BinOp, CastKind, UnOp
from repro.mir.compile import compiled_blocks
from repro.mir.env import Frame, TempEnv
from repro.mir.memory import ObjectMemory
from repro.mir.path import Path
from repro.mir.value import (
    Aggregate,
    BoolValue,
    FnValue,
    IntValue,
    PathPtr,
    RDataPtr,
    StrValue,
    TrustedPtr,
    UnitValue,
    Value,
    mk_bool,
    mk_int,
    mk_tuple,
    unit,
)

DEFAULT_FUEL = 1_000_000


@dataclass(frozen=True)
class TrustedFunction:
    """A function whose meaning is a specification, not MIR code.

    ``spec(args, absstate) -> (ret_value, new_absstate)`` — the CCAL
    specification shape.  ``layer`` names the layer exporting it.
    """

    name: str
    spec: Callable
    layer: str = "trusted"
    doc: str = ""


@dataclass
class ExecResult:
    """Outcome of a completed call."""

    value: Value
    absstate: object
    steps: int
    memory: ObjectMemory


# -- slots: resolved locations ------------------------------------------------


@dataclass(frozen=True)
class _TempSlot:
    frame: Frame
    var: str
    projections: Tuple[int, ...]


@dataclass(frozen=True)
class _MemSlot:
    path: Path


@dataclass(frozen=True)
class _TrustedSlot:
    ptr: TrustedPtr


class Interpreter:
    """Executes mirlight programs against an object memory and an
    abstract state."""

    def __init__(self, program, absstate=None, fuel=DEFAULT_FUEL):
        self.program = program
        self.memory = ObjectMemory()
        self.absstate = absstate
        self.fuel = fuel
        self.steps = 0
        self._trusted: Dict[str, TrustedFunction] = {}
        self._rdata_resolvers: Dict[str, Callable] = {}
        self._frames = []
        self._next_frame_id = 0
        self._result: Optional[Value] = None
        # Snapshot the fast-path switch once: this interpreter either
        # drives the compiled per-CFG dispatch (repro.mir.compile) or
        # the naive isinstance ladder for its whole lifetime.  Both
        # produce identical results, steps, and errors.
        self._fast = fastpath.enabled()
        for name, value in program.globals_.items():
            self.memory.allocate(Path.global_(name).base, value)

    # -- registration -------------------------------------------------------

    def register_trusted(self, trusted):
        """Register a :class:`TrustedFunction`; calls to its name dispatch
        to the specification."""
        self._trusted[trusted.name] = trusted
        return trusted

    def register_trusted_many(self, trusted_functions):
        for tf in trusted_functions:
            self.register_trusted(tf)

    def register_rdata_resolver(self, owner_layer, resolver):
        """Install ``resolver(RDataPtr) -> Path`` for ``owner_layer``.

        Only code whose function is tagged with that layer may follow the
        handle; everyone else gets :class:`EncapsulationViolation` —
        the Sec. 3.4 encapsulation guarantee, enforced at runtime.
        """
        self._rdata_resolvers[owner_layer] = resolver

    @property
    def trusted_names(self):
        return frozenset(self._trusted)

    # -- public driver --------------------------------------------------------

    def call(self, name, args=(), fuel=None):
        """Run ``name(*args)`` to completion and return an ExecResult.

        Trusted names are dispatched directly to their spec; otherwise a
        frame is pushed and stepped until the outer frame returns.
        """
        if fuel is not None:
            self.fuel = fuel
        if name in self._trusted:
            ret, self.absstate = self._trusted[name].spec(tuple(args), self.absstate)
            return ExecResult(ret if ret is not None else unit(),
                              self.absstate, 0, self.memory)
        self._push_frame(name, tuple(args), dest=None, return_to=None)
        base_depth = len(self._frames) - 1
        if self._fast:
            self._run_compiled(base_depth)
        else:
            while len(self._frames) > base_depth:
                self.step()
        result = self._result if self._result is not None else unit()
        self._result = None
        return ExecResult(result, self.absstate, self.steps, self.memory)

    # -- small-step machine ---------------------------------------------------

    def _run_compiled(self, base_depth):
        """Run generated block functions until the outer frame returns.

        Each block function (:mod:`repro.mir.compile`) takes its own
        steps, exactly as repeated :meth:`step` calls would, and returns
        True when it pushed or popped a frame; until then the loop stays
        in the same frame.
        """
        frames = self._frames
        while len(frames) > base_depth:
            frame = frames[-1]
            code = frame.code
            while not code[frame.block](self, frame):
                pass

    def step(self):
        """Fire one statement or terminator rule."""
        if self.steps >= self.fuel:
            raise OutOfFuel(f"exceeded fuel of {self.fuel} steps")
        self.steps += 1
        frame = self._frames[-1]
        if frame.at_terminator():
            self._exec_terminator(frame, frame.current_block().terminator)
        else:
            self._exec_statement(frame, frame.current_statement())
            frame.stmt_index += 1

    def _push_frame(self, name, args, dest, return_to):
        try:
            function = self.program.functions[name]
        except KeyError:
            raise MirRuntimeError(f"call to unknown function {name!r}")
        if len(args) != len(function.params):
            raise MirRuntimeError(
                f"{name}: expected {len(function.params)} args, got {len(args)}"
            )
        frame = Frame(function=function, frame_id=self._next_frame_id,
                      dest=dest, return_to=return_to)
        if self._fast:
            frame.code = compiled_blocks(function, self.program)
        self._next_frame_id += 1
        for param, value in zip(function.params, args):
            self._bind_var(frame, param, value)
        self._frames.append(frame)
        return frame

    def _bind_var(self, frame, var, value):
        if frame.function.is_local_var(var):
            base = Path.local(frame.frame_id, var).base
            if self.memory.has_base(base):
                self.memory.write(Path(base), value)
            else:
                self.memory.allocate(base, value)
        else:
            frame.env.write(var, value)

    # -- statements ------------------------------------------------------------

    def _exec_statement(self, frame, stmt):
        if isinstance(stmt, ast.Assign):
            value = self._eval_rvalue(frame, stmt.rvalue)
            self._write_place(frame, stmt.place, value)
        elif isinstance(stmt, ast.SetDiscriminant):
            current = self._read_place(frame, stmt.place)
            agg = current.expect_aggregate("SetDiscriminant")
            self._write_place(frame, stmt.place,
                              agg.with_discriminant(stmt.variant))
        elif isinstance(stmt, (ast.StorageLive, ast.StorageDead, ast.Nop)):
            pass  # Sec. 3.2: allocation is lazy, deallocation is a no-op.
        else:
            raise MirRuntimeError(f"unknown statement {stmt!r}")

    # -- terminators -------------------------------------------------------------

    def _exec_terminator(self, frame, term):
        if isinstance(term, ast.Goto):
            frame.jump(term.target)
        elif isinstance(term, ast.SwitchInt):
            self._exec_switch(frame, term)
        elif isinstance(term, ast.Return):
            self._exec_return(frame)
        elif isinstance(term, ast.Call):
            self._exec_call(frame, term)
        elif isinstance(term, ast.Drop):
            frame.jump(term.target)  # no interesting Drop impls in corpus
        elif isinstance(term, ast.Assert):
            cond = self._eval_operand(frame, term.cond)
            truth = self._as_switch_int(cond) != 0
            if truth != term.expected:
                raise MirAssertError(term.msg, frame.function.name, frame.block)
            frame.jump(term.target)
        else:
            raise MirRuntimeError(f"unknown terminator {term!r}")

    def _exec_switch(self, frame, term):
        scrutinee = self._as_switch_int(self._eval_operand(frame, term.operand))
        for value, label in term.targets:
            if scrutinee == value:
                frame.jump(label)
                return
        frame.jump(term.otherwise)

    @staticmethod
    def _as_switch_int(value):
        if isinstance(value, BoolValue):
            return 1 if value.value else 0
        if isinstance(value, IntValue):
            return value.as_unsigned
        raise MirTypeError(f"switchInt/assert on non-integer {value!r}")

    def _exec_return(self, frame):
        ret_var = frame.function.RETURN_VAR
        if frame.function.is_local_var(ret_var):
            path = Path.local(frame.frame_id, ret_var)
            value = self.memory.read(path) if self.memory.has_base(path.base) else unit()
        elif frame.env.is_bound(ret_var):
            value = frame.env.read(ret_var)
        else:
            value = unit()
        self._frames.pop()
        if frame.dest is None:
            self._result = value
        else:
            caller = self._frames[-1]
            self._write_place(caller, frame.dest, value)
            caller.jump(frame.return_to)

    def _exec_call(self, frame, term):
        fn_value = self._eval_operand(frame, term.func)
        if not isinstance(fn_value, FnValue):
            raise MirTypeError(f"call through non-function value {fn_value!r}")
        args = tuple(self._eval_operand(frame, a) for a in term.args)
        if fn_value.name in self._trusted:
            ret, self.absstate = self._trusted[fn_value.name].spec(args, self.absstate)
            self._write_place(frame, term.dest,
                              ret if ret is not None else unit())
            frame.jump(term.target)
            return
        self._push_frame(fn_value.name, args,
                         dest=term.dest, return_to=term.target)

    # -- place resolution ----------------------------------------------------------

    def _base_slot(self, frame, var):
        if frame.function.is_local_var(var):
            return _MemSlot(Path.local(frame.frame_id, var))
        if var in self.program.globals_ or self.memory.has_base(
                Path.global_(var).base):
            if not frame.env.is_bound(var):
                return _MemSlot(Path.global_(var))
        return _TempSlot(frame, var, ())

    def _resolve_place(self, frame, place):
        slot = self._base_slot(frame, place.var)
        for proj in place.projections:
            slot = self._apply_projection(frame, slot, proj)
        return slot

    def _apply_projection(self, frame, slot, proj):
        if isinstance(proj, ast.Deref):
            pointer = self._read_slot(slot)
            return self._slot_for_pointer(frame, pointer)
        if isinstance(proj, ast.FieldProj):
            return self._project_index(slot, proj.index)
        if isinstance(proj, ast.ConstantIndex):
            return self._project_index(slot, proj.index)
        if isinstance(proj, ast.IndexProj):
            idx_value = self._read_var(frame, proj.var).expect_int("index")
            return self._project_index(slot, idx_value.as_unsigned)
        if isinstance(proj, ast.Downcast):
            live = self._read_slot(slot).expect_aggregate("downcast")
            if live.discriminant != proj.variant:
                raise MirRuntimeError(
                    f"downcast to variant {proj.variant} but live "
                    f"discriminant is {live.discriminant}"
                )
            return slot  # fields of the active variant project directly
        raise MirRuntimeError(f"unknown projection {proj!r}")

    def _project_index(self, slot, index):
        if isinstance(slot, _MemSlot):
            return _MemSlot(slot.path.field(index))
        if isinstance(slot, _TempSlot):
            return _TempSlot(slot.frame, slot.var, slot.projections + (index,))
        raise MirTypeError(
            "cannot project a field out of a trusted-pointer target"
        )

    def _slot_for_pointer(self, frame, pointer):
        if isinstance(pointer, PathPtr):
            return _MemSlot(pointer.path)
        if isinstance(pointer, TrustedPtr):
            return _TrustedSlot(pointer)
        if isinstance(pointer, RDataPtr):
            return self._resolve_rdata(frame, pointer)
        if isinstance(pointer, IntValue):
            raise EncapsulationViolation(
                "pointer forged from integer — only trusted-layer "
                "specifications may do this (Sec. 3.2)"
            )
        raise MirTypeError(f"dereference of non-pointer {pointer!r}")

    def _resolve_rdata(self, frame, pointer):
        current_layer = frame.function.layer
        if current_layer != pointer.owner_layer:
            raise EncapsulationViolation(
                f"layer {current_layer!r} dereferenced RData pointer owned "
                f"by layer {pointer.owner_layer!r}: {pointer}"
            )
        resolver = self._rdata_resolvers.get(pointer.owner_layer)
        if resolver is None:
            raise EncapsulationViolation(
                f"no resolver registered for RData owner layer "
                f"{pointer.owner_layer!r}"
            )
        return _MemSlot(resolver(pointer))

    # -- slot read/write ---------------------------------------------------------------

    def _read_slot(self, slot):
        if isinstance(slot, _MemSlot):
            return self.memory.read(slot.path)
        if isinstance(slot, _TempSlot):
            value = slot.frame.env.read(slot.var)
            for index in slot.projections:
                value = value.expect_aggregate("temp projection").field(index)
            return value
        if isinstance(slot, _TrustedSlot):
            return slot.ptr.getter(self.absstate)
        raise MirRuntimeError(f"unreadable slot {slot!r}")

    def _write_slot(self, slot, value):
        if isinstance(slot, _MemSlot):
            self.memory.write_or_allocate(slot.path, value)
            return
        if isinstance(slot, _TempSlot):
            if not slot.projections:
                slot.frame.env.write(slot.var, value)
                return
            root = slot.frame.env.read(slot.var)
            slot.frame.env.write(
                slot.var, _functional_update(root, slot.projections, value))
            return
        if isinstance(slot, _TrustedSlot):
            self.absstate = slot.ptr.setter(self.absstate, value)
            return
        raise MirRuntimeError(f"unwritable slot {slot!r}")

    def _read_var(self, frame, var):
        return self._read_slot(self._base_slot(frame, var))

    def _read_place(self, frame, place):
        return self._read_slot(self._resolve_place(frame, place))

    def _write_place(self, frame, place, value):
        self._write_slot(self._resolve_place(frame, place), value)

    # -- operand / rvalue evaluation ------------------------------------------------------

    def _eval_operand(self, frame, operand):
        if isinstance(operand, (ast.Copy, ast.Move)):
            return self._read_place(frame, operand.place)
        if isinstance(operand, ast.Constant):
            return operand.value
        raise MirRuntimeError(f"unknown operand {operand!r}")

    def _eval_rvalue(self, frame, rvalue):
        if isinstance(rvalue, ast.Use):
            return self._eval_operand(frame, rvalue.operand)
        if isinstance(rvalue, (ast.Ref, ast.AddressOf)):
            return self._eval_ref(frame, rvalue.place)
        if isinstance(rvalue, ast.BinaryOp):
            return self._eval_binop(
                rvalue.op,
                self._eval_operand(frame, rvalue.left),
                self._eval_operand(frame, rvalue.right),
            )
        if isinstance(rvalue, ast.CheckedBinaryOp):
            return self._eval_checked_binop(
                rvalue.op,
                self._eval_operand(frame, rvalue.left),
                self._eval_operand(frame, rvalue.right),
            )
        if isinstance(rvalue, ast.UnaryOp):
            return self._eval_unop(rvalue.op,
                                   self._eval_operand(frame, rvalue.operand))
        if isinstance(rvalue, ast.Cast):
            return self._eval_cast(rvalue,
                                   self._eval_operand(frame, rvalue.operand))
        if isinstance(rvalue, ast.AggregateRv):
            fields = tuple(self._eval_operand(frame, o)
                           for o in rvalue.operands)
            discriminant = (rvalue.variant
                            if rvalue.kind is ast.AggregateKind.VARIANT else 0)
            return Aggregate(discriminant, fields)
        if isinstance(rvalue, ast.Repeat):
            element = self._eval_operand(frame, rvalue.operand)
            return Aggregate(0, (element,) * rvalue.count)
        if isinstance(rvalue, ast.Len):
            target = self._read_place(frame, rvalue.place)
            return mk_int(len(target.expect_aggregate("Len")))
        if isinstance(rvalue, ast.Discriminant):
            target = self._read_place(frame, rvalue.place)
            return mk_int(target.expect_aggregate("Discriminant").discriminant)
        if isinstance(rvalue, ast.CopyForDeref):
            return self._read_place(frame, rvalue.place)
        if isinstance(rvalue, ast.NullaryOp):
            raise MirRuntimeError(
                "SizeOf/AlignOf have no meaning in the object-view memory; "
                "they must stay inside trusted-layer specifications"
            )
        raise MirRuntimeError(f"unknown rvalue {rvalue!r}")

    def _eval_ref(self, frame, place):
        slot = self._resolve_place(frame, place)
        if isinstance(slot, _MemSlot):
            return PathPtr(slot.path)
        if isinstance(slot, _TrustedSlot):
            return slot.ptr  # re-borrowing a trusted target yields the same handle
        raise MirRuntimeError(
            f"cannot take the address of temporary place {place} — the "
            f"lifting pass should have classified {place.var!r} as local"
        )

    # -- primitive operations ---------------------------------------------------------------

    @staticmethod
    def _eval_binop(op, left, right):
        if op in _COMPARISONS:
            return _eval_comparison(op, left, right)
        lhs = left.expect_int(f"binop {op.value}")
        rhs = right.expect_int(f"binop {op.value}")
        raw = _arith_raw(op, lhs, rhs)
        return mk_int(raw, lhs.ty)

    @staticmethod
    def _eval_checked_binop(op, left, right):
        lhs = left.expect_int(f"checked {op.value}")
        rhs = right.expect_int(f"checked {op.value}")
        raw = _arith_raw(op, lhs, rhs)
        wrapped = mk_int(raw, lhs.ty)
        overflowed = not lhs.ty.contains(raw)
        return mk_tuple(wrapped, mk_bool(overflowed))

    @staticmethod
    def _eval_unop(op, operand):
        if op is UnOp.NOT:
            if isinstance(operand, BoolValue):
                return mk_bool(not operand.value)
            as_int = operand.expect_int("unop !")
            return mk_int(~as_int.as_unsigned, as_int.ty)
        if op is UnOp.NEG:
            as_int = operand.expect_int("unop -")
            return mk_int(-as_int.value, as_int.ty)
        raise MirRuntimeError(f"unknown unary op {op!r}")

    @staticmethod
    def _eval_cast(cast, operand):
        if cast.kind is CastKind.INT_TO_INT:
            return mk_int(operand.expect_int("cast").value, cast.ty)
        if cast.kind is CastKind.BOOL_TO_INT:
            flag = operand.expect_bool("cast")
            return mk_int(1 if flag.value else 0, cast.ty)
        if cast.kind in (CastKind.PTR_TO_INT, CastKind.INT_TO_PTR):
            raise EncapsulationViolation(
                f"{cast.kind.value} casts expose memory layout; they are "
                "confined to trusted-layer specifications (Sec. 3.2)"
            )
        raise MirRuntimeError(f"unknown cast kind {cast.kind!r}")


_COMPARISONS = frozenset(
    {BinOp.EQ, BinOp.NE, BinOp.LT, BinOp.LE, BinOp.GT, BinOp.GE}
)


def _eval_comparison(op, left, right):
    if isinstance(left, BoolValue) and isinstance(right, BoolValue):
        lhs, rhs = left.value, right.value
    else:
        lhs = left.expect_int(f"compare {op.value}").value
        rhs = right.expect_int(f"compare {op.value}").value
    table = {
        BinOp.EQ: lhs == rhs,
        BinOp.NE: lhs != rhs,
        BinOp.LT: lhs < rhs,
        BinOp.LE: lhs <= rhs,
        BinOp.GT: lhs > rhs,
        BinOp.GE: lhs >= rhs,
    }
    return mk_bool(table[op])


def _arith_raw(op, lhs, rhs):
    a, b = lhs.value, rhs.value
    if op is BinOp.ADD:
        return a + b
    if op is BinOp.SUB:
        return a - b
    if op is BinOp.MUL:
        return a * b
    if op is BinOp.DIV:
        if b == 0:
            raise MirAssertError("attempt to divide by zero")
        return int(a / b) if (a < 0) != (b < 0) else a // b
    if op is BinOp.REM:
        if b == 0:
            raise MirAssertError("attempt to calculate remainder with divisor zero")
        return a - b * (int(a / b) if (a < 0) != (b < 0) else a // b)
    if op is BinOp.BITAND:
        return lhs.as_unsigned & rhs.as_unsigned
    if op is BinOp.BITOR:
        return lhs.as_unsigned | rhs.as_unsigned
    if op is BinOp.BITXOR:
        return lhs.as_unsigned ^ rhs.as_unsigned
    if op is BinOp.SHL:
        return lhs.as_unsigned << (rhs.as_unsigned % lhs.ty.width)
    if op is BinOp.SHR:
        return lhs.as_unsigned >> (rhs.as_unsigned % lhs.ty.width)
    raise MirRuntimeError(f"unknown arithmetic op {op!r}")


def _functional_update(value, indices, new_value, depth=0):
    if depth == len(indices):
        return new_value
    agg = value.expect_aggregate("temp update")
    index = indices[depth]
    child = _functional_update(agg.field(index), indices, new_value, depth + 1)
    return agg.with_field(index, child)
