"""Abstract states: functional updates and ownership enforcement."""

import pytest

from repro.ccal.absstate import AbsState
from repro.errors import LayerError


def make():
    return (AbsState()
            .with_field("pt_words", (0, 0), owner="TrustedLayer")
            .with_field("scratch", 5))


class TestFields:
    def test_get_set(self):
        state = make()
        assert state.get("scratch") == 5
        assert state.set("scratch", 6).get("scratch") == 6

    def test_set_is_functional(self):
        state = make()
        state.set("scratch", 6)
        assert state.get("scratch") == 5

    def test_unknown_field_rejected(self):
        with pytest.raises(LayerError):
            make().get("nope")
        with pytest.raises(LayerError):
            make().set("nope", 1)

    def test_duplicate_field_rejected(self):
        with pytest.raises(LayerError):
            make().with_field("scratch", 1)

    def test_update_many(self):
        state = make().update(scratch=9, pt_words=(1, 1))
        assert state.get("scratch") == 9
        assert state.get("pt_words") == (1, 1)

    def test_fields_sorted(self):
        assert make().fields() == ["pt_words", "scratch"]


class TestOwnership:
    def test_owner_recorded(self):
        assert make().owner_of("pt_words") == "TrustedLayer"
        assert make().owner_of("scratch") is None

    def test_owner_may_write(self):
        state = make().set("pt_words", (1, 0),
                           _writer_layer="TrustedLayer")
        assert state.get("pt_words") == (1, 0)

    def test_other_layer_write_rejected(self):
        with pytest.raises(LayerError, match="owned by"):
            make().set("pt_words", (1, 0), _writer_layer="PtMap")

    def test_anonymous_write_allowed(self):
        # Writes without a layer tag (harness plumbing) bypass the check.
        make().set("pt_words", (1, 0))


class TestNoOpWrites:
    def test_same_object_returns_same_state(self):
        state = make()
        words = state.get("pt_words")
        before = repr(state)
        assert state.set("pt_words", words,
                         _writer_layer="TrustedLayer") is state
        assert state.set("scratch", state.get("scratch")) is state
        assert state == make() and repr(state) == before

    def test_equal_but_distinct_object_is_a_write(self):
        state = make()
        updated = state.set("pt_words", tuple(state.get("pt_words")[:1])
                            + (0,))
        assert updated is not state and updated == state

    def test_non_owner_no_op_still_rejected(self):
        state = make()
        with pytest.raises(LayerError, match="owned by"):
            state.set("pt_words", state.get("pt_words"),
                      _writer_layer="PtMap")


class TestComparison:
    def test_equality_structural(self):
        assert make() == make()
        assert make().set("scratch", 6) != make()

    def test_equal_on_subset(self):
        a = make()
        b = make().set("scratch", 7)
        assert a.equal_on(b, ["pt_words"])
        assert not a.equal_on(b, ["scratch"])
        assert a.equal_on(b, [])
