"""Unit tests for the mirlight type grammar."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.mir.types import (
    ArrayTy, BOOL, EnumTy, FnTy, I8, I32, I64, IntTy, RawPtrTy, RefTy,
    StructTy, TupleTy, U8, U16, U32, U64, UNIT, type_from_name,
)


class TestIntTy:
    def test_unsigned_bounds(self):
        assert U8.min_value == 0
        assert U8.max_value == 255
        assert U64.max_value == 2 ** 64 - 1

    def test_signed_bounds(self):
        assert I8.min_value == -128
        assert I8.max_value == 127
        assert I64.min_value == -(2 ** 63)

    @pytest.mark.parametrize("ty,raw,expected", [
        (U8, 256, 0),
        (U8, 257, 1),
        (U8, -1, 255),
        (I8, 128, -128),
        (I8, -129, 127),
        (U64, 2 ** 64 + 5, 5),
        (I32, 2 ** 31, -(2 ** 31)),
    ])
    def test_wrap(self, ty, raw, expected):
        assert ty.wrap(raw) == expected

    @given(st.integers())
    def test_wrap_always_in_range(self, raw):
        for ty in (U8, U16, U32, U64, I8, I32, I64):
            assert ty.contains(ty.wrap(raw))

    @given(st.integers())
    def test_wrap_idempotent(self, raw):
        for ty in (U8, I8, U64, I64):
            assert ty.wrap(ty.wrap(raw)) == ty.wrap(raw)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            IntTy(7, False)

    def test_str(self):
        assert str(U64) == "u64"
        assert str(I32) == "i32"

    def test_hashable_and_canonical(self):
        assert IntTy(64, False) == U64
        assert hash(IntTy(64, False)) == hash(U64)

    @given(st.sampled_from((8, 16, 32, 64, 128)), st.booleans())
    def test_cached_bounds_equal_their_formulas(self, width, signed):
        ty = IntTy(width, signed)
        assert ty.modulus == 2 ** width
        if signed:
            assert ty.min_value == -(2 ** (width - 1))
            assert ty.max_value == 2 ** (width - 1) - 1
        else:
            assert ty.min_value == 0
            assert ty.max_value == 2 ** width - 1
        assert ty.contains(ty.min_value) and ty.contains(ty.max_value)
        assert not ty.contains(ty.min_value - 1)
        assert not ty.contains(ty.max_value + 1)

    def test_cached_bounds_are_not_fields(self):
        """Equality, hash and repr still see only (width, signed)."""
        assert [f.name for f in dataclasses.fields(IntTy)] == \
            ["width", "signed"]
        assert repr(U64) == "IntTy(width=64, signed=False)"
        assert hash(U64) == hash((64, False))
        assert dataclasses.replace(U64, signed=True) == I64
        assert dataclasses.replace(U64, signed=True).max_value == \
            2 ** 63 - 1


class TestCompositeTypes:
    def test_tuple_str(self):
        assert str(TupleTy((U64, BOOL))) == "(u64, bool)"

    def test_array_str(self):
        assert str(ArrayTy(U64, 4)) == "[u64; 4]"

    def test_ref_str(self):
        assert str(RefTy(U64, mutable=True)) == "&mut u64"
        assert str(RefTy(U64, mutable=False)) == "&u64"

    def test_raw_ptr_str(self):
        assert str(RawPtrTy(U64, mutable=True)) == "*mut u64"

    def test_fn_str(self):
        assert str(FnTy((U64,), BOOL)) == "fn(u64) -> bool"

    def test_enum_discriminants(self):
        option = EnumTy("Option", ("None", "Some"))
        assert option.discriminant_of("None") == 0
        assert option.discriminant_of("Some") == 1

    def test_pointer_predicates(self):
        assert RefTy(U64).is_pointer()
        assert RawPtrTy(U64).is_pointer()
        assert not U64.is_pointer()
        assert U64.is_integer()


class TestTypeFromName:
    @pytest.mark.parametrize("name,expected", [
        ("u64", U64), ("i8", I8), ("bool", BOOL), ("()", UNIT),
        ("usize", U64), ("isize", I64),
    ])
    def test_primitives(self, name, expected):
        assert type_from_name(name) == expected

    def test_unknown_is_opaque_struct(self):
        ty = type_from_name("AddrSpace")
        assert isinstance(ty, StructTy)
        assert ty.name == "AddrSpace"
