"""Data oracles for marshalling-buffer declassification (Sec. 5.4).

"Each execution is parameterized by an oracle (a stream of values) and
we modify the semantics for memory load and memory store to treat the
marshalling buffer separately. In particular, stores to the marshalling
buffer are in effect ignored ... Reads from the marshalling buffer are
taken from the oracle. Because the theorem is proved for all possible
oracles, including the one which returns the same values that were
written by other guests, it still covers all possible code paths."

A :class:`DataOracle` is that stream.  The noninterference drivers hand
*the same oracle values* to both worlds, so mbuf data can never be the
source of a distinguishing observation — which is precisely what
"declassified" means.
"""

from repro.errors import SecurityError


class DataOracle:
    """A deterministic stream of 64-bit values."""

    def __init__(self, values=(), cycle=True):
        self._values = tuple(v & ((1 << 64) - 1) for v in values)
        self._cursor = 0
        self._cycle = cycle

    @staticmethod
    def constant(value=0):
        return DataOracle([value])

    @staticmethod
    def seeded(seed, length=64):
        """A pseudorandom oracle — 'all possible oracles' sampled."""
        import random
        rng = random.Random(seed)
        return DataOracle([rng.getrandbits(64) for _ in range(length)])

    def next(self) -> int:
        """The next declassified value."""
        if not self._values:
            return 0
        if self._cursor >= len(self._values):
            if not self._cycle:
                raise SecurityError("data oracle exhausted")
            self._cursor = 0
        value = self._values[self._cursor]
        self._cursor += 1
        return value

    @property
    def position(self):
        return self._cursor

    def fork(self):
        """A copy at the same position (for cloned worlds), sharing the
        masked values, which are an immutable tuple."""
        clone = object.__new__(DataOracle)
        vars(clone).update(vars(self))
        return clone


class MemoryEchoOracle:
    """The distinguished oracle of Sec. 5.4: "the one which returns the
    same values that were written by other guests".

    Instead of a pre-chosen stream, a marshalling-buffer read yields the
    *actual current contents* of the accessed physical word.  Theorem
    5.1 is quantified over all oracles, so it must hold for this one
    too — which it does, because the model ignores mbuf *stores*: both
    worlds' buffer contents evolve identically under identical traces,
    so the echoed values can never distinguish them.
    """

    def next_for(self, state, hpa) -> int:
        return state.monitor.phys.read_word(hpa)

    def next(self) -> int:  # stream-protocol fallback (no location)
        return 0

    def fork(self):
        """The oracle for a cloned world: itself (it keeps no state)."""
        return self
