"""Functional specifications.

"Each C function will be proven against a specification in Coq, which is
a functional specification that defines its behavior in terms of effects
on the abstract state and the return value. These specifications usually
have a type signature similar to ``Args * AbsState -> Ret * AbsState``."
(Sec. 3.4)

A :class:`Spec` wraps exactly that shape, plus an optional precondition
and the name of the layer that exports it.  Calling a spec outside its
precondition raises, mirroring how a Coq specification is simply
undefined there.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import SpecPreconditionError


@dataclass
class Spec:
    """A functional specification of one primitive.

    ``fn(args, state) -> (ret, state)`` where ``args`` is a tuple.  The
    optional ``pre(args, state) -> bool`` guards the domain.  ``pure``
    marks specs that provably never change the state (the co-simulation
    checker verifies this claim on every call).
    """

    name: str
    fn: Callable
    layer: str = "trusted"
    pre: Optional[Callable] = None
    pure: bool = False
    doc: str = ""
    ptr_kind: Optional[str] = None  # "trusted"/"rdata" when returning pointers

    def __call__(self, args, state):
        if self.pre is not None and not self.pre(args, state):
            raise SpecPreconditionError(
                f"spec {self.name} called outside its precondition with "
                f"args={args!r}"
            )
        ret, new_state = self.fn(args, state)
        if self.pure and new_state != state:
            raise SpecPreconditionError(
                f"spec {self.name} is declared pure but changed the state"
            )
        return ret, new_state

    def as_trusted_function(self):
        """Adapt for the MIR interpreter's trusted-function registry.

        A spec with no precondition and no purity claim has nothing to
        check around ``fn``, so ``fn`` itself is registered.
        """
        from repro.mir.interp import TrustedFunction
        call = self.fn if self.pre is None and not self.pure \
            else self.__call__
        return TrustedFunction(name=self.name, spec=call,
                               layer=self.layer, doc=self.doc)


def pure_spec(name, fn, layer="trusted", pre=None, doc=""):
    """A spec for a function with no state effects: ``fn(args) -> ret``."""
    def lifted(args, state):
        return fn(args), state
    wrapped_pre = None
    if pre is not None:
        def wrapped_pre(args, state):
            return pre(args)
    return Spec(name=name, fn=lifted, layer=layer, pre=wrapped_pre,
                pure=True, doc=doc)


def state_spec(name, fn, layer="trusted", pre=None, doc=""):
    """A spec in the full ``(args, state) -> (ret, state)`` shape."""
    return Spec(name=name, fn=fn, layer=layer, pre=pre, doc=doc)
