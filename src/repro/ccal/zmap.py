"""ZMap — a persistent total map with a default value.

The paper's tree-shaped page-table specification stores child tables in
Coq's ``ZMap`` ("as page tables are just map from indices to entries,
content will simply be a ZMap", Sec. 4.1).  This is the Python analog: an
immutable integer-keyed map that is *total* — reading an absent key
yields the default — and functionally updatable, so abstract states built
from it compare by value.
"""


class ZMap:
    """Immutable total map ``int -> value`` with a default."""

    __slots__ = ("_default", "_entries")

    def __init__(self, default=None, entries=None):
        self._default = default
        self._entries = dict(entries) if entries else {}
        # Normalise: storing the default explicitly would break equality.
        for key in [k for k, v in self._entries.items() if v == default]:
            del self._entries[key]

    @property
    def default(self):
        return self._default

    def get(self, key):
        return self._entries.get(key, self._default)

    __getitem__ = get

    def set(self, key, value):
        """Return a new ZMap with ``key`` bound to ``value``."""
        entries = dict(self._entries)
        if value == self._default:
            entries.pop(key, None)
        else:
            entries[key] = value
        new = ZMap.__new__(ZMap)
        new._default = self._default
        new._entries = entries
        return new

    def unset(self, key):
        """Return a new ZMap with ``key`` back at the default."""
        return self.set(key, self._default)

    def unset_range(self, start, stop):
        """Return a new ZMap with every key in ``range(start, stop)``
        back at the default (one copy, not one per key).

        Filters the entries against the range, so it costs one visit
        per entry however long the range is.
        """
        span = range(start, stop)
        entries = {key: value for key, value in self._entries.items()
                   if key not in span}
        new = ZMap.__new__(ZMap)
        new._default = self._default
        new._entries = entries
        return new

    def keys(self):
        """Keys bound to non-default values, sorted for determinism."""
        return sorted(self._entries)

    def items(self):
        return [(k, self._entries[k]) for k in self.keys()]

    def is_default(self, key):
        return key not in self._entries

    def __iter__(self):
        return iter(self.keys())

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def __eq__(self, other):
        if not isinstance(other, ZMap):
            return NotImplemented
        return (self._default == other._default
                and self._entries == other._entries)

    def __hash__(self):
        return hash((self._default,
                     frozenset(self._entries.items())))

    def __repr__(self):
        inner = ", ".join(f"{k}: {v!r}" for k, v in self.items())
        return f"ZMap(default={self._default!r}, {{{inner}}})"
