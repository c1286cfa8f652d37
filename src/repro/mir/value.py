"""The mirlight value domain.

The paper's object-view domain (Sec. 3.2)::

    value := int                  Integer values
             ...                  Other atomic values
             (int, list value)    Structs and Enums

plus the three pointer kinds of Sec. 3.4:

* :class:`PathPtr` — a concrete pointer into object memory (case 1:
  pointers passed down to lower layers),
* :class:`TrustedPtr` — a pointer whose payload is a getter/setter pair
  over the abstract state (case 2: pointers produced by the bottom,
  trusted layer, e.g. into physical page-table memory),
* :class:`RDataPtr` — an opaque handle consisting of an identifier and a
  list of numerical indices (case 3: pointers returned by a middle layer;
  the semantics provide no way to read or write through them).

Values are immutable.  Updating a field of an aggregate produces a new
aggregate (see :meth:`Aggregate.with_field`); the memory module composes
these functional updates along a path so that "assignment ... only
changes at the assigned location" (the paper's axiomatisation).
"""

from dataclasses import dataclass, field
from typing import Callable, Tuple

from repro.errors import MirTypeError
from repro.mir.types import IntTy, U64, USIZE


class Value:
    """Base class of all runtime values."""

    def expect_int(self, context="value"):
        """This value as an IntValue, or a type error."""
        if not isinstance(self, IntValue):
            raise MirTypeError(f"{context}: expected integer, got {self!r}")
        return self

    def expect_bool(self, context="value"):
        """This value as a BoolValue, or a type error."""
        if not isinstance(self, BoolValue):
            raise MirTypeError(f"{context}: expected bool, got {self!r}")
        return self

    def expect_aggregate(self, context="value"):
        """This value as an Aggregate, or a type error."""
        if not isinstance(self, Aggregate):
            raise MirTypeError(f"{context}: expected aggregate, got {self!r}")
        return self


@dataclass(frozen=True)
class IntValue(Value):
    """A machine integer carrying its type for wrap-around arithmetic."""

    value: int
    ty: IntTy = U64

    def __post_init__(self):
        if not self.ty.contains(self.value):
            raise MirTypeError(
                f"integer {self.value} out of range for {self.ty}"
            )

    @property
    def as_unsigned(self):
        """The two's-complement bit pattern as a nonnegative int."""
        return self.value % self.ty.modulus

    def __str__(self):
        return f"{self.value}{self.ty}"


@dataclass(frozen=True)
class BoolValue(Value):
    """A boolean runtime value."""
    value: bool

    def __str__(self):
        return "true" if self.value else "false"


@dataclass(frozen=True)
class UnitValue(Value):
    """The unit runtime value."""
    def __str__(self):
        return "()"


@dataclass(frozen=True)
class CharValue(Value):
    """A character runtime value."""
    value: str

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class StrValue(Value):
    """String constants; in the corpus these only feed panic messages."""

    value: str

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class FnValue(Value):
    """A function item (MIR models fn items as zero-sized constants)."""

    name: str

    def __str__(self):
        return f"fn {self.name}"


@dataclass(frozen=True)
class Aggregate(Value):
    """A struct, enum, tuple, or array: ``(discriminant, fields)``.

    Structs/tuples/arrays use discriminant 0; enum variants use their
    variant index.  This uniform shape is what lets the evaluation rules
    project fields directly "rather than resorting to complicated field
    offset logic" (Sec. 3.2).
    """

    discriminant: int
    fields: Tuple[Value, ...]

    def field(self, index):
        """Project out field ``index``."""
        if not 0 <= index < len(self.fields):
            raise MirTypeError(
                f"field index {index} out of range for aggregate with "
                f"{len(self.fields)} fields"
            )
        return self.fields[index]

    def with_field(self, index, new_value):
        """Functional field update: a new aggregate differing at ``index``."""
        if not 0 <= index < len(self.fields):
            raise MirTypeError(
                f"field index {index} out of range for aggregate with "
                f"{len(self.fields)} fields"
            )
        fields = self.fields[:index] + (new_value,) + self.fields[index + 1:]
        return Aggregate(self.discriminant, fields)

    def with_discriminant(self, discriminant):
        return Aggregate(discriminant, self.fields)

    def __len__(self):
        return len(self.fields)

    def __str__(self):
        inner = ", ".join(str(f) for f in self.fields)
        return f"#{self.discriminant}({inner})"


# ---------------------------------------------------------------------------
# Pointer values (Sec. 3.4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathPtr(Value):
    """Case 1: a concrete pointer — a path into object memory.

    Used when a caller allocates an object and passes its address down to
    a lower layer; the caller owns the object so proofs about it may see
    the concrete representation.
    """

    path: "repro.mir.path.Path"  # noqa: F821 — documented forward ref

    def __str__(self):
        return f"&{self.path}"


@dataclass(frozen=True)
class TrustedPtr(Value):
    """Case 2: a trusted pointer from the bottom layer.

    "Instead of containing a memory path, trusted pointer values contain
    getter/setter functions that can access the abstract state, and the
    semantics of a pointer write is to call the setter function and update
    the state accordingly." (Sec. 3.4)

    ``getter(absstate) -> Value`` and ``setter(absstate, Value) ->
    absstate``.  ``origin`` names the trusted primitive that forged the
    pointer, for diagnostics and the pointer-classification bench.
    """

    origin: str
    getter: Callable = field(compare=False)
    setter: Callable = field(compare=False)

    def __str__(self):
        return f"<trusted:{self.origin}>"


@dataclass(frozen=True)
class RDataPtr(Value):
    """Case 3: an opaque handle to data owned by a (non-bottom) lower layer.

    "the payload inside the pointer value is just an identifier and a list
    of numerical indices. Our MIR semantics do not provide any way to
    read/write through an RData pointer." (Sec. 3.4)

    The interpreter raises :class:`~repro.errors.EncapsulationViolation`
    on any dereference unless the executing function belongs to
    ``owner_layer`` — which is precisely the refinement boundary: inside
    the owner layer, code is verified against the concrete memory model;
    outside, the handle is inert.
    """

    owner_layer: str
    ident: str
    indices: Tuple[int, ...] = ()

    def __str__(self):
        idx = "".join(f"[{i}]" for i in self.indices)
        return f"<rdata:{self.owner_layer}:{self.ident}{idx}>"


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

_UNIT = UnitValue()
_TRUE = BoolValue(True)
_FALSE = BoolValue(False)


def unit():
    return _UNIT


_new_object = object.__new__


def mk_int(value, ty=U64):
    """Make an integer value, wrapping into the type's range.

    The wrapped int is in range by construction, so the value is built
    without re-running :class:`IntValue`'s range check (the
    interpreter's hottest allocation).  Direct ``IntValue(...)``
    construction still validates.
    """
    result = _new_object(IntValue)
    fields = result.__dict__  # filled in __init__'s order: same pickle
    fields["value"] = ty.wrap(value)
    fields["ty"] = ty
    return result


def mk_usize(value):
    return mk_int(value, USIZE)


def mk_u64(value):
    return mk_int(value, U64)


def mk_bool(value):
    return _TRUE if value else _FALSE


def mk_tuple(*values):
    return Aggregate(0, tuple(values))


def mk_struct(*fields):
    return Aggregate(0, tuple(fields))


def mk_variant(discriminant, *fields):
    return Aggregate(discriminant, tuple(fields))


def mk_array(values):
    return Aggregate(0, tuple(values))


# Rust's Option/Result encoded the way rustc lays them out in MIR:
# discriminant 0 = None/Ok's position per std (None=0, Some=1; Ok=0, Err=1).
OPTION_NONE = 0
OPTION_SOME = 1
RESULT_OK = 0
RESULT_ERR = 1


def mk_none():
    return Aggregate(OPTION_NONE, ())


def mk_some(value):
    return Aggregate(OPTION_SOME, (value,))


def mk_ok(value=None):
    return Aggregate(RESULT_OK, (value if value is not None else _UNIT,))


def mk_err(value=None):
    return Aggregate(RESULT_ERR, (value if value is not None else _UNIT,))


def is_none(value):
    return isinstance(value, Aggregate) and value.discriminant == OPTION_NONE


def is_some(value):
    return isinstance(value, Aggregate) and value.discriminant == OPTION_SOME
