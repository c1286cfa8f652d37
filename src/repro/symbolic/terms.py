"""The symbolic term language.

Terms represent mirlight integer and boolean computations symbolically.
Integer terms carry their :class:`~repro.mir.types.IntTy` so evaluation
wraps exactly like the concrete semantics; boolean terms carry ``None``.

The surface is deliberately small: variables, constants, and applications
of a fixed operator vocabulary.  :func:`simplify` constant-folds during
construction, so fully-concrete executions never accumulate symbolic
structure — the executor degrades gracefully into an interpreter.

**Hash-consing (PR 4).**  Term construction is *interned*: while the
fast path (:mod:`repro.fastpath`) is enabled, structurally-equal terms
are pointer-equal — ``SymVar("x") is SymVar("x")`` — because every
constructor routes through a global intern table keyed on the term's
structure.  Three things fall out:

* equality is an identity check first (with a structural fallback so
  terms built while the fast path was off still compare correctly),
* ``__hash__`` is computed once per term and cached, so terms are O(1)
  dict keys no matter how deep they are,
* per-term caches become sound: :func:`simplify` is memoised on the
  (interned) argument structure, :func:`term_fingerprint` and
  :func:`compile_evaluator` cache their result *on* the term.

Interning is semantically invisible — the symbolic bench asserts
byte-identical verdicts with the table on and off.  :func:`intern_stats`
exposes hit rates; :func:`clear_term_caches` empties every table (used
by the bench to measure cold-cache rounds).
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro import fastpath
from repro.errors import MirTypeError
from repro.mir.types import IntTy, U64

# Operator vocabulary.  Arithmetic/bitwise wrap at the result type;
# comparisons and connectives yield booleans.
ARITH_OPS = frozenset({
    "add", "sub", "mul", "div", "rem",
    "band", "bor", "bxor", "shl", "shr", "neg", "bnot",
})
CMP_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})
BOOL_OPS = frozenset({"not", "and", "or", "implies"})
ITE_OP = "ite"


# ---------------------------------------------------------------------------
# The intern table
# ---------------------------------------------------------------------------

_INTERN = {}
_INTERN_STATS = {"hits": 0, "misses": 0}
_SIMPLIFY_MEMO = {}
_SIMPLIFY_STATS = {"hits": 0, "misses": 0}
_MEMO_MAX = 1 << 20  # safety valve for the simplify memo


def intern_stats():
    """Intern-table and simplify-memo counters (for reports/benches)."""
    return {
        "terms_interned": len(_INTERN),
        "intern_hits": _INTERN_STATS["hits"],
        "intern_misses": _INTERN_STATS["misses"],
        "simplify_hits": _SIMPLIFY_STATS["hits"],
        "simplify_misses": _SIMPLIFY_STATS["misses"],
    }


def clear_term_caches():
    """Empty the intern table, the simplify memo, and their counters."""
    _INTERN.clear()
    _SIMPLIFY_MEMO.clear()
    for stats in (_INTERN_STATS, _SIMPLIFY_STATS):
        stats["hits"] = stats["misses"] = 0


class Term:
    """Base class of symbolic terms.  ``ty`` is an IntTy or None (bool).

    Subclasses cache their structural hash on first use and compare by
    identity first; interning makes the identity check hit for all
    fast-path-constructed terms.
    """

    ty: Optional[IntTy]


@dataclass(frozen=True, eq=False, repr=True)
class SymVar(Term):
    """A symbolic variable."""
    name: str
    ty: Optional[IntTy] = U64

    def __new__(cls, name, ty=U64):
        if fastpath._ENABLED:
            key = ("v", name, ty)
            canon = _INTERN.get(key)
            if canon is not None:
                _INTERN_STATS["hits"] += 1
                return canon
            _INTERN_STATS["misses"] += 1
            self = object.__new__(cls)
            _INTERN[key] = self
            return self
        return object.__new__(cls)

    def __reduce__(self):
        return (SymVar, (self.name, self.ty))

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            h = hash(("v", self.name, self.ty))
            object.__setattr__(self, "_h", h)
            return h

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not SymVar:
            return NotImplemented
        return self.name == other.name and self.ty == other.ty

    def __str__(self):
        return self.name


@dataclass(frozen=True, eq=False, repr=True)
class Const(Term):
    """A literal integer or boolean term."""
    value: object  # int (for IntTy) or bool (for ty=None)
    ty: Optional[IntTy] = U64

    def __new__(cls, value, ty=U64):
        if fastpath._ENABLED:
            # bool is an int subtype: key on the concrete type too so
            # Const(True, ...) and Const(1, ...) never alias.
            key = ("c", value.__class__, value, ty)
            canon = _INTERN.get(key)
            if canon is not None:
                _INTERN_STATS["hits"] += 1
                return canon
            _INTERN_STATS["misses"] += 1
            self = object.__new__(cls)
            _INTERN[key] = self
            return self
        return object.__new__(cls)

    def __reduce__(self):
        return (Const, (self.value, self.ty))

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            h = hash(("c", self.value.__class__, self.value, self.ty))
            object.__setattr__(self, "_h", h)
            return h

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Const:
            return NotImplemented
        return (self.value.__class__ is other.value.__class__
                and self.value == other.value and self.ty == other.ty)

    def __str__(self):
        return str(self.value).lower() if self.ty is None else f"{self.value}"


@dataclass(frozen=True, eq=False, repr=True)
class App(Term):
    """An operator application over sub-terms."""
    op: str
    args: Tuple[Term, ...]
    ty: Optional[IntTy] = U64

    def __new__(cls, op, args, ty=U64):
        if fastpath._ENABLED:
            key = ("a", op, args, ty)
            canon = _INTERN.get(key)
            if canon is not None:
                _INTERN_STATS["hits"] += 1
                return canon
            _INTERN_STATS["misses"] += 1
            self = object.__new__(cls)
            _INTERN[key] = self
            return self
        return object.__new__(cls)

    def __reduce__(self):
        return (App, (self.op, self.args, self.ty))

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            h = hash(("a", self.op, self.args, self.ty))
            object.__setattr__(self, "_h", h)
            return h

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not App:
            return NotImplemented
        return (self.op == other.op and self.args == other.args
                and self.ty == other.ty)

    def __str__(self):
        inner = ", ".join(str(a) for a in self.args)
        return f"{self.op}({inner})"


def bv(value, ty=U64):
    """An integer constant term, wrapped into range."""
    return Const(ty.wrap(value), ty)


def boolean(value):
    """A boolean constant term."""
    return Const(bool(value), None)


TRUE = boolean(True)
FALSE = boolean(False)


# ---------------------------------------------------------------------------
# Construction with constant folding
# ---------------------------------------------------------------------------


def simplify(op, args, ty):
    """Build ``App(op, args, ty)``, folding when all args are constant
    and applying a few cheap identities.

    Memoised on the (interned) argument structure while the fast path
    is enabled; folding that raises (division by zero) is never cached
    and re-raises on every call, exactly like the naive build.
    """
    if fastpath._ENABLED:
        key = (op, args, ty)
        cached = _SIMPLIFY_MEMO.get(key)
        if cached is not None:
            _SIMPLIFY_STATS["hits"] += 1
            return cached
        _SIMPLIFY_STATS["misses"] += 1
        result = _simplify_build(op, args, ty)
        if len(_SIMPLIFY_MEMO) >= _MEMO_MAX:
            _SIMPLIFY_MEMO.clear()
        _SIMPLIFY_MEMO[key] = result
        return result
    return _simplify_build(op, args, ty)


def _simplify_build(op, args, ty):
    if all(isinstance(a, Const) for a in args):
        values = tuple(a.value for a in args)
        return _fold(op, values, args, ty)
    if op == "and":
        if any(a == FALSE for a in args):
            return FALSE
        remaining = tuple(a for a in args if a != TRUE)
        if not remaining:
            return TRUE
        if len(remaining) == 1:
            return remaining[0]
        return App("and", remaining, None)
    if op == "or":
        if any(a == TRUE for a in args):
            return TRUE
        remaining = tuple(a for a in args if a != FALSE)
        if not remaining:
            return FALSE
        if len(remaining) == 1:
            return remaining[0]
        return App("or", remaining, None)
    if op == "not" and isinstance(args[0], App) and args[0].op == "not":
        return args[0].args[0]
    if op == "ite" and isinstance(args[0], Const):
        return args[1] if args[0].value else args[2]
    return App(op, args, ty)


def _fold(op, values, args, ty):
    if op in CMP_OPS:
        a, b = values
        result = {
            "eq": a == b, "ne": a != b, "lt": a < b,
            "le": a <= b, "gt": a > b, "ge": a >= b,
        }[op]
        return boolean(result)
    if op in BOOL_OPS:
        if op == "not":
            return boolean(not values[0])
        if op == "and":
            return boolean(all(values))
        if op == "or":
            return boolean(any(values))
        if op == "implies":
            return boolean((not values[0]) or values[1])
    if op == ITE_OP:
        chosen = args[1] if values[0] else args[2]
        return chosen
    if op in ARITH_OPS:
        return bv(_arith(op, values, ty), ty)
    raise MirTypeError(f"cannot fold operator {op!r}")


def _div_toward_zero(a, b):
    if b == 0:
        raise ZeroDivisionError("symbolic fold: divide by zero")
    return int(a / b) if (a < 0) != (b < 0) else a // b


def _rem_toward_zero(a, b):
    if b == 0:
        raise ZeroDivisionError("symbolic fold: remainder by zero")
    quotient = int(a / b) if (a < 0) != (b < 0) else a // b
    return a - b * quotient


def _arith(op, values, ty):
    if op == "neg":
        return -values[0]
    if op == "bnot":
        return ~(values[0] % ty.modulus)
    a, b = values
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return _div_toward_zero(a, b)
    if op == "rem":
        return _rem_toward_zero(a, b)
    ua, ub = a % ty.modulus, b % ty.modulus
    if op == "band":
        return ua & ub
    if op == "bor":
        return ua | ub
    if op == "bxor":
        return ua ^ ub
    if op == "shl":
        return ua << (ub % ty.width)
    if op == "shr":
        return ua >> (ub % ty.width)
    raise MirTypeError(f"unknown arithmetic operator {op!r}")


# ---------------------------------------------------------------------------
# Evaluation and traversal
# ---------------------------------------------------------------------------


def evaluate(term, model):
    """Evaluate ``term`` under ``model`` (name -> int/bool)."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, SymVar):
        try:
            return model[term.name]
        except KeyError:
            raise MirTypeError(f"model does not bind {term.name!r}")
    if isinstance(term, App):
        if term.op == ITE_OP:
            cond = evaluate(term.args[0], model)
            return evaluate(term.args[1 if cond else 2], model)
        values = tuple(evaluate(a, model) for a in term.args)
        folded = _fold(term.op, values,
                       tuple(Const(v, None) for v in values), term.ty)
        return folded.value
    raise MirTypeError(f"cannot evaluate {term!r}")


def term_vars(term, into=None):
    """The set of variable names occurring in ``term``."""
    names = set() if into is None else into
    if isinstance(term, SymVar):
        names.add(term.name)
    elif isinstance(term, App):
        for arg in term.args:
            term_vars(arg, names)
    return names


# ---------------------------------------------------------------------------
# Canonical fingerprints (solver-verdict memo keys)
# ---------------------------------------------------------------------------


def term_fingerprint(term) -> int:
    """A canonical blake2b-64 fingerprint of the term's structure.

    Built bottom-up from child fingerprints and cached on the term, so
    amortised cost is one digest per distinct (interned) term.  Stable
    across processes — unlike ``hash``/``id`` — which is what lets the
    solver memo live in :mod:`repro.engine.fingerprint` land.
    """
    try:
        return term._fpid
    except AttributeError:
        pass
    from repro.engine.fingerprint import content_fingerprint
    if isinstance(term, SymVar):
        fp = content_fingerprint("v", term.name, str(term.ty))
    elif isinstance(term, Const):
        fp = content_fingerprint("c", term.value.__class__.__name__,
                                 term.value, str(term.ty))
    elif isinstance(term, App):
        fp = content_fingerprint(
            "a", term.op, str(term.ty),
            tuple(term_fingerprint(a) for a in term.args))
    else:
        raise MirTypeError(f"cannot fingerprint {term!r}")
    object.__setattr__(term, "_fpid", fp)
    return fp


# ---------------------------------------------------------------------------
# Compiled evaluators
# ---------------------------------------------------------------------------
#
# ``evaluate`` walks the term tree with an isinstance dispatch per node
# for every model — the inner loop of exhaustive model enumeration.
# ``compile_evaluator`` walks the tree *once*, emitting a Python
# expression that is byte-compiled into a single ``lambda m: ...``; each
# subsequent model costs one native frame.  Semantics are pinned to
# ``evaluate`` exactly: every argument sub-expression is evaluated (no
# new short-circuiting — ``and``/``or`` go through tuple-building
# ``all``/``any``), ``ite`` short-circuits just like ``evaluate`` does,
# division raises the same ``ZeroDivisionError``, and a model miss
# raises the same ``MirTypeError``.  Terms containing operators outside
# the vocabulary compile to ``None`` and the caller falls back to
# ``evaluate``.

_PY_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
           "gt": ">", "ge": ">="}
_MAX_SOURCE = 200_000


def _implies(a, b):
    return (not a) or b


def _emit(term, env):
    if isinstance(term, Const):
        return repr(term.value)
    if isinstance(term, SymVar):
        return f"m[{term.name!r}]"
    if not isinstance(term, App):
        raise _Uncompilable
    op = term.op
    parts = [_emit(a, env) for a in term.args]
    if op in _PY_CMP:
        return f"(({parts[0]}) {_PY_CMP[op]} ({parts[1]}))"
    if op == "not":
        return f"(not ({parts[0]}))"
    if op == "and":
        return f"all(({', '.join(parts)},))"
    if op == "or":
        return f"any(({', '.join(parts)},))"
    if op == "implies":
        return f"_implies({parts[0]}, {parts[1]})"
    if op == ITE_OP:
        return f"(({parts[1]}) if ({parts[0]}) else ({parts[2]}))"
    if op in ARITH_OPS:
        return _emit_arith(term, parts, env)
    raise _Uncompilable


def _emit_arith(term, parts, env):
    ty = term.ty
    mod, width = ty.modulus, ty.width
    if ty.signed:
        # Two's-complement wrap needs the full IntTy.wrap; capture it.
        wrap_name = f"_w{width}s"
        env[wrap_name] = ty.wrap
        wrap = lambda e: f"{wrap_name}({e})"
    else:
        wrap = lambda e: f"(({e}) & {mod - 1})"
    op = term.op
    if op == "neg":
        return wrap(f"-({parts[0]})")
    if op == "bnot":
        return wrap(f"~(({parts[0]}) % {mod})")
    a, b = parts
    if op == "add":
        return wrap(f"({a}) + ({b})")
    if op == "sub":
        return wrap(f"({a}) - ({b})")
    if op == "mul":
        return wrap(f"({a}) * ({b})")
    if op == "div":
        return wrap(f"_div(({a}), ({b}))")
    if op == "rem":
        return wrap(f"_rem(({a}), ({b}))")
    ua, ub = f"(({a}) % {mod})", f"(({b}) % {mod})"
    if op == "band":
        return wrap(f"{ua} & {ub}")
    if op == "bor":
        return wrap(f"{ua} | {ub}")
    if op == "bxor":
        return wrap(f"{ua} ^ {ub}")
    if op == "shl":
        return wrap(f"{ua} << ({ub} % {width})")
    if op == "shr":
        return wrap(f"{ua} >> ({ub} % {width})")
    raise _Uncompilable


class _Uncompilable(Exception):
    """The term uses an operator outside the compiled vocabulary."""


def compile_evaluator(term) -> Optional[Callable]:
    """A compiled ``fn(model) -> value`` equivalent to
    ``evaluate(term, model)``, or None if the term is uncompilable.

    The compiled function is cached on the term, so interning makes the
    compilation cost amortise across every structurally-equal use site.
    """
    try:
        return term._ceval
    except AttributeError:
        pass
    env = {"_implies": _implies, "_div": _div_toward_zero,
           "_rem": _rem_toward_zero, "__builtins__": {
               "all": all, "any": any}}
    try:
        expression = _emit(term, env)
    except (_Uncompilable, RecursionError):
        fn = None
    else:
        source = f"lambda m: {expression}"
        if len(source) > _MAX_SOURCE:
            fn = None
        else:
            raw = eval(source, env)  # noqa: S307 — generated from our own AST

            def fn(model, _raw=raw):
                try:
                    return _raw(model)
                except KeyError as exc:
                    raise MirTypeError(
                        f"model does not bind {exc.args[0]!r}")
    object.__setattr__(term, "_ceval", fn)
    return fn


def fast_evaluate(term, model):
    """``evaluate`` through the compiled path when possible."""
    fn = compile_evaluator(term)
    if fn is None:
        return evaluate(term, model)
    return fn(model)
