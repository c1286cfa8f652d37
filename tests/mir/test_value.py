"""Unit and property tests for the value domain."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.errors import MirTypeError
from repro.mir.types import I8, IntTy, U8, U64
from repro.mir.value import (
    Aggregate, BoolValue, IntValue, PathPtr, RDataPtr, StrValue,
    TrustedPtr, UnitValue, is_none, is_some, mk_array, mk_bool, mk_err,
    mk_int, mk_none, mk_ok, mk_some, mk_struct, mk_tuple, mk_u64, unit,
)
from repro.mir.path import Path


class TestIntValue:
    def test_out_of_range_rejected(self):
        with pytest.raises(MirTypeError, match="out of range for u8"):
            IntValue(256, U8)
        with pytest.raises(MirTypeError):
            IntValue(-1, U8)
        with pytest.raises(MirTypeError, match="out of range for i8"):
            IntValue(-129, I8)

    def test_mk_int_wraps(self):
        assert mk_int(256, U8).value == 0
        assert mk_int(-1, U8).value == 255

    def test_as_unsigned_of_negative(self):
        assert mk_int(-1, I8).as_unsigned == 255

    @given(st.integers())
    def test_mk_int_always_valid(self, raw):
        value = mk_int(raw, U8)
        assert 0 <= value.value <= 255

    @given(st.sampled_from([IntTy(width, signed)
                            for width in (8, 16, 32, 64, 128)
                            for signed in (False, True)]),
           st.integers(-(2 ** 200), 2 ** 200))
    def test_mk_int_equals_validated_construction(self, ty, raw):
        """mk_int skips IntValue's range check; what it builds must be
        indistinguishable from the checked constructor's value."""
        built = mk_int(raw, ty)
        checked = IntValue(ty.wrap(raw), ty)
        assert type(built) is IntValue
        assert (built.value, built.ty) == (checked.value, checked.ty)
        assert built == checked and hash(built) == hash(checked)
        assert repr(built) == repr(checked)
        assert pickle.dumps(built) == pickle.dumps(checked)
        assert pickle.loads(pickle.dumps(built)) == checked

    def test_mk_int_skips_the_range_check(self, monkeypatch):
        calls = []
        original = IntValue.__post_init__

        def counting(self):
            calls.append(self.value)
            original(self)

        monkeypatch.setattr(IntValue, "__post_init__", counting)
        mk_int(-1, U8)
        mk_int(2 ** 70, I8)
        assert calls == []
        IntValue(3, U8)
        assert calls == [3]

    def test_expect_int(self):
        assert mk_u64(3).expect_int().value == 3
        with pytest.raises(MirTypeError):
            mk_bool(True).expect_int()


class TestAggregate:
    def test_field_access(self):
        agg = mk_tuple(mk_u64(1), mk_u64(2))
        assert agg.field(0).value == 1
        assert agg.field(1).value == 2

    def test_field_out_of_range(self):
        with pytest.raises(MirTypeError):
            mk_tuple(mk_u64(1)).field(1)

    def test_with_field_is_functional(self):
        original = mk_tuple(mk_u64(1), mk_u64(2))
        updated = original.with_field(0, mk_u64(9))
        assert original.field(0).value == 1
        assert updated.field(0).value == 9
        assert updated.field(1) is original.field(1)

    def test_with_discriminant(self):
        assert mk_struct(unit()).with_discriminant(3).discriminant == 3

    def test_nested_immutability(self):
        inner = mk_tuple(mk_u64(5))
        outer = mk_tuple(inner, mk_u64(7))
        changed = outer.with_field(0, inner.with_field(0, mk_u64(6)))
        assert outer.field(0).field(0).value == 5
        assert changed.field(0).field(0).value == 6

    @given(st.integers(0, 3), st.integers(0, 100))
    def test_with_field_roundtrip(self, index, raw):
        agg = mk_tuple(*[mk_u64(i) for i in range(4)])
        updated = agg.with_field(index, mk_u64(raw))
        assert updated.field(index).value == raw
        for other in range(4):
            if other != index:
                assert updated.field(other) == agg.field(other)


class TestOptionResult:
    def test_option_discriminants_match_rustc(self):
        assert mk_none().discriminant == 0
        assert mk_some(mk_u64(1)).discriminant == 1
        assert is_none(mk_none())
        assert is_some(mk_some(unit()))

    def test_result(self):
        assert mk_ok(mk_u64(1)).discriminant == 0
        assert mk_err(mk_u64(1)).discriminant == 1


class TestPointers:
    def test_path_ptr_str(self):
        assert str(PathPtr(Path.global_("x"))) == "&x"

    def test_rdata_ptr_is_opaque_payload(self):
        ptr = RDataPtr("AddrSpace", "as", (1, 2))
        assert ptr.indices == (1, 2)
        assert "AddrSpace" in str(ptr)

    def test_trusted_ptr_compares_by_origin(self):
        a = TrustedPtr("o", getter=lambda s: s, setter=lambda s, v: s)
        b = TrustedPtr("o", getter=lambda s: None, setter=lambda s, v: None)
        assert a == b  # functions excluded from comparison

    def test_unit_singleton(self):
        assert unit() is unit()
        assert unit() == UnitValue()


class TestExpectHelpers:
    def test_expect_aggregate(self):
        with pytest.raises(MirTypeError):
            mk_u64(1).expect_aggregate()
        assert mk_tuple().expect_aggregate() == mk_tuple()

    def test_expect_bool(self):
        assert mk_bool(True).expect_bool().value is True
        with pytest.raises(MirTypeError):
            mk_u64(1).expect_bool()
