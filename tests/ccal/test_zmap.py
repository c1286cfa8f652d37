"""ZMap: total, persistent, value-comparable."""

import pickle
import time

import pytest
from hypothesis import given, strategies as st

from repro.ccal.zmap import ZMap


class TestBasics:
    def test_default_for_absent_keys(self):
        assert ZMap(default=0).get(12345) == 0
        assert ZMap(default=None).get(0) is None

    def test_set_is_functional(self):
        empty = ZMap(default=0)
        one = empty.set(3, 7)
        assert empty.get(3) == 0
        assert one.get(3) == 7

    def test_unset_restores_default(self):
        m = ZMap(default=0).set(1, 5).unset(1)
        assert m.get(1) == 0
        assert len(m) == 0

    def test_setting_default_normalises(self):
        """Binding a key to the default must not break equality."""
        assert ZMap(default=0).set(1, 0) == ZMap(default=0)
        assert ZMap(default=0, entries={1: 0}) == ZMap(default=0)

    def test_keys_sorted(self):
        m = ZMap(default=0).set(5, 1).set(2, 1).set(9, 1)
        assert m.keys() == [2, 5, 9]

    def test_contains_and_is_default(self):
        m = ZMap(default=0).set(1, 2)
        assert 1 in m and 2 not in m
        assert m.is_default(2) and not m.is_default(1)

    def test_hashable(self):
        assert hash(ZMap(default=0).set(1, 2)) == \
            hash(ZMap(default=0).set(1, 2))

    def test_nested_zmaps(self):
        inner = ZMap(default=0).set(1, 5)
        outer = ZMap(default=None).set(0, inner)
        assert outer.get(0).get(1) == 5


@given(st.dictionaries(st.integers(0, 20), st.integers(-5, 5)),
       st.integers(0, 20), st.integers(-5, 5))
def test_set_then_get(mapping, key, value):
    m = ZMap(default=0, entries=mapping)
    assert m.set(key, value).get(key) == value


@given(st.dictionaries(st.integers(0, 20), st.integers(1, 5)),
       st.integers(0, 20), st.integers(1, 5), st.integers(0, 20))
def test_set_preserves_other_keys(mapping, key, value, probe):
    m = ZMap(default=0, entries=mapping)
    updated = m.set(key, value)
    if probe != key:
        assert updated.get(probe) == m.get(probe)


@given(st.dictionaries(st.integers(0, 10), st.integers(1, 5)))
def test_equality_is_extensional(mapping):
    a = ZMap(default=0, entries=mapping)
    b = ZMap(default=0)
    for key, value in sorted(mapping.items(), reverse=True):
        b = b.set(key, value)
    assert a == b and hash(a) == hash(b)


@given(st.dictionaries(st.integers(0, 20), st.integers(-5, 5)),
       st.integers(-2, 22), st.integers(-2, 22))
def test_unset_range_is_unset_per_key(mapping, start, stop):
    """One copy for a whole range equals one ``unset`` per key, down to
    the pickled bytes (entry order included)."""
    m = ZMap(default=0, entries=mapping)
    expected = m
    for key in range(start, stop):
        expected = expected.unset(key)
    cleared = m.unset_range(start, stop)
    assert cleared == expected and hash(cleared) == hash(expected)
    assert cleared.items() == expected.items()
    assert pickle.dumps(cleared) == pickle.dumps(expected)
    assert m == ZMap(default=0, entries=mapping)


def test_unset_range_long_range_visits_entries_not_keys():
    """Clearing 10**8 keys from an 8-entry map costs 8 visits; one pop
    per key of the range would take seconds."""
    m = ZMap(default=0, entries={key: 1 for key in range(0, 16, 2)})
    started = time.perf_counter()
    cleared = m.unset_range(4, 10 ** 8)
    assert time.perf_counter() - started < 1.0
    assert cleared.items() == [(0, 1), (2, 1)]
