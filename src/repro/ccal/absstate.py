"""Immutable abstract states.

"[CCAL] extended the C semantics to add a user-defined abstract state of
the system undergoing verification, and views function executions as
relations between abstract states."  (Sec. 3.4)

An :class:`AbsState` is an immutable record of named fields.  Updates are
functional (:meth:`set` returns a new state), equality is structural, and
a state remembers which *layer* owns each field so the layer machinery
can check encapsulation: only specifications of the owning layer may
update a field.

Field values should themselves be immutable (ints, tuples, frozen
dataclasses, :class:`~repro.ccal.zmap.ZMap`); the class does not deep-copy.
"""

from repro.errors import LayerError


class AbsState:
    """An immutable record of named abstract-state fields."""

    __slots__ = ("_fields", "_owners")

    def __init__(self, fields=None, owners=None):
        object.__setattr__(self, "_fields", dict(fields) if fields else {})
        object.__setattr__(self, "_owners", dict(owners) if owners else {})

    # -- reads ----------------------------------------------------------------

    def get(self, name):
        try:
            return self._fields[name]
        except KeyError:
            raise LayerError(f"abstract state has no field {name!r}")

    __getitem__ = get

    def has(self, name):
        return name in self._fields

    def fields(self):
        return sorted(self._fields)

    def owner_of(self, name):
        return self._owners.get(name)

    # -- functional updates ------------------------------------------------------

    def set(self, name, value, _writer_layer=None):
        """Return a new state with ``name`` bound to ``value``.

        If an owner is declared for the field and ``_writer_layer`` is
        given, the write is permitted only from the owning layer — the
        data-encapsulation rule of layered proofs.  A permitted write of
        the very object the field already holds returns ``self``.
        """
        if name not in self._fields:
            raise LayerError(
                f"abstract state has no field {name!r}; declare it with "
                f"with_field() first"
            )
        owner = self._owners.get(name)
        if owner is not None and _writer_layer is not None \
                and _writer_layer != owner:
            raise LayerError(
                f"layer {_writer_layer!r} wrote field {name!r} owned by "
                f"layer {owner!r}"
            )
        if self._fields[name] is value:
            return self
        fields = dict(self._fields)
        fields[name] = value
        new = AbsState.__new__(AbsState)
        object.__setattr__(new, "_fields", fields)
        object.__setattr__(new, "_owners", self._owners)
        return new

    def update(self, **updates):
        """Functional multi-field update (no ownership check; test sugar)."""
        state = self
        for name, value in updates.items():
            state = state.set(name, value)
        return state

    def with_field(self, name, value, owner=None):
        """Return a new state with an additional field (layer assembly)."""
        if name in self._fields:
            raise LayerError(f"abstract-state field {name!r} already exists")
        fields = dict(self._fields)
        fields[name] = value
        owners = dict(self._owners)
        if owner is not None:
            owners[name] = owner
        new = AbsState.__new__(AbsState)
        object.__setattr__(new, "_fields", fields)
        object.__setattr__(new, "_owners", owners)
        return new

    # -- comparison ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AbsState):
            return NotImplemented
        return self._fields == other._fields

    def equal_on(self, other, names):
        """Structural equality restricted to ``names`` — the building
        block of observation functions and refinement relations."""
        return all(self._fields.get(n) == other._fields.get(n) for n in names)

    def __repr__(self):
        inner = ", ".join(f"{k}={self._fields[k]!r}" for k in self.fields())
        return f"AbsState({inner})"
