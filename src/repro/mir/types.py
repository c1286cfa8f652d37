"""The mirlight type grammar.

MIR is type-erased for execution purposes ("the compiler has type-checked
the program ... the operational semantics are determined by the terms of
the program and we do not need to model the type system", Sec. 3.1), so
these types exist for three practical reasons:

* the builder and parser use them to declare variables and check arity,
* integer widths drive wrap-around arithmetic and casts, and
* the symbolic executor uses widths to bound enumeration domains.

Types are immutable and hashable so they can key caches.
"""

from dataclasses import dataclass, field
from typing import Tuple


class MirTy:
    """Base class of all mirlight types."""

    def is_integer(self):
        return isinstance(self, IntTy)

    def is_pointer(self):
        return isinstance(self, (RefTy, RawPtrTy))


@dataclass(frozen=True)
class IntTy(MirTy):
    """A sized machine integer, e.g. ``u64`` or ``i32``.

    ``width`` is in bits; ``signed`` selects two's-complement
    interpretation.  Arithmetic wraps modulo ``2**width`` exactly like
    release-mode Rust (checked operations are modelled separately by the
    ``CheckedBinaryOp`` rvalue).
    """

    width: int
    signed: bool

    def __post_init__(self):
        if self.width not in (8, 16, 32, 64, 128):
            raise ValueError(f"unsupported integer width: {self.width}")
        # ``modulus``, ``min_value`` and ``max_value`` sit on every
        # integer step of the interpreter, so they are computed once
        # here.  They are plain attributes, not dataclass fields:
        # equality, hash and repr still see only (width, signed).
        half = 1 << (self.width - 1)
        object.__setattr__(self, "modulus", 1 << self.width)
        object.__setattr__(self, "min_value", -half if self.signed else 0)
        object.__setattr__(self, "max_value",
                           half - 1 if self.signed else self.modulus - 1)

    def wrap(self, raw):
        """Reduce an unbounded Python int into this type's value range."""
        wrapped = raw % self.modulus
        if self.signed and wrapped > self.max_value:
            wrapped -= self.modulus
        return wrapped

    def contains(self, raw):
        return self.min_value <= raw <= self.max_value

    def __str__(self):
        prefix = "i" if self.signed else "u"
        return f"{prefix}{self.width}"


@dataclass(frozen=True)
class BoolTy(MirTy):
    """The boolean type."""
    def __str__(self):
        return "bool"


@dataclass(frozen=True)
class UnitTy(MirTy):
    """The unit type ``()``."""
    def __str__(self):
        return "()"


@dataclass(frozen=True)
class CharTy(MirTy):
    """The character type."""
    def __str__(self):
        return "char"


@dataclass(frozen=True)
class StrTy(MirTy):
    """String slices; only used for panic messages in the corpus."""

    def __str__(self):
        return "str"


@dataclass(frozen=True)
class TupleTy(MirTy):
    """A tuple of element types."""
    elems: Tuple[MirTy, ...]

    def __str__(self):
        inner = ", ".join(str(e) for e in self.elems)
        return f"({inner})"


@dataclass(frozen=True)
class StructTy(MirTy):
    """A nominal struct.  Field types are recorded for documentation and
    arity checks; the semantics treat the value as ``(0, fields)``."""

    name: str
    fields: Tuple[MirTy, ...] = field(default=())

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class EnumTy(MirTy):
    """A nominal enum; ``variants`` maps positionally to discriminants."""

    name: str
    variants: Tuple[str, ...] = field(default=())

    def discriminant_of(self, variant_name):
        return self.variants.index(variant_name)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class ArrayTy(MirTy):
    """A fixed-length array type."""
    elem: MirTy
    length: int

    def __str__(self):
        return f"[{self.elem}; {self.length}]"


@dataclass(frozen=True)
class RefTy(MirTy):
    """A Rust reference (``&T`` / ``&mut T``).  At MIR level references
    have been turned into pointers (Sec. 3.1); the distinction from
    :class:`RawPtrTy` is kept only for the unsafe-block audit."""

    pointee: MirTy
    mutable: bool = False

    def __str__(self):
        mut = "mut " if self.mutable else ""
        return f"&{mut}{self.pointee}"


@dataclass(frozen=True)
class RawPtrTy(MirTy):
    """A raw pointer type (audited separately from references)."""
    pointee: MirTy
    mutable: bool = False

    def __str__(self):
        mut = "mut" if self.mutable else "const"
        return f"*{mut} {self.pointee}"


@dataclass(frozen=True)
class FnTy(MirTy):
    """A function type."""
    params: Tuple[MirTy, ...]
    ret: MirTy

    def __str__(self):
        inner = ", ".join(str(p) for p in self.params)
        return f"fn({inner}) -> {self.ret}"


# Canonical instances — mirlight programs overwhelmingly use these.
I8 = IntTy(8, True)
I16 = IntTy(16, True)
I32 = IntTy(32, True)
I64 = IntTy(64, True)
ISIZE = IntTy(64, True)
U8 = IntTy(8, False)
U16 = IntTy(16, False)
U32 = IntTy(32, False)
U64 = IntTy(64, False)
USIZE = IntTy(64, False)
BOOL = BoolTy()
UNIT = UnitTy()

_NAMED_TYPES = {
    "i8": I8, "i16": I16, "i32": I32, "i64": I64, "isize": ISIZE,
    "u8": U8, "u16": U16, "u32": U32, "u64": U64, "usize": USIZE,
    "bool": BOOL, "()": UNIT, "unit": UNIT, "char": CharTy(), "str": StrTy(),
}


def type_from_name(name):
    """Resolve a primitive type name used by the textual parser.

    Unknown names resolve to an opaque :class:`StructTy`, matching how the
    semantics treat nominal types: purely by shape, never by name.
    """
    stripped = name.strip()
    if stripped in _NAMED_TYPES:
        return _NAMED_TYPES[stripped]
    return StructTy(stripped)
