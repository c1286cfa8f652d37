"""The global fast-path switch.

PR 4 adds three performance layers that are *semantically invisible*:
hash-consed term interning (:mod:`repro.symbolic.terms`), incremental
solving with verdict memoisation (:mod:`repro.symbolic.solver`), and a
compiled per-CFG dispatch loop (:mod:`repro.mir.compile`).  Each layer
is required to produce byte-identical verdicts with and without the
optimisation — the golden digests' ``corpus_verdicts`` case checks the
full corpus under :func:`forced` and :func:`disabled` against one
committed digest.

This module is the one switch that test (and a suspicious debugger)
flips to get the naive baseline back.  It is deliberately tiny and
dependency-free: the symbolic and mir layers both import it, and it
must not import either of them.

The switch is read at well-defined *entry* points (term construction,
solver calls, interpreter construction), so toggling it mid-execution
of one engine is not supported — use the :func:`disabled` context
manager around a whole checking run.
"""

from contextlib import contextmanager

_ENABLED = True


def enabled() -> bool:
    """Is the fast path (interning, memoisation, compiled dispatch) on?"""
    return _ENABLED


def set_enabled(value: bool) -> bool:
    """Set the switch; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(value)
    return previous


@contextmanager
def disabled():
    """Run a block with every fast-path layer off (the naive baseline)."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def forced():
    """Run a block with the fast path on regardless of the ambient state."""
    previous = set_enabled(True)
    try:
        yield
    finally:
        set_enabled(previous)
