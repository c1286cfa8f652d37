"""The abstract system state σ of the transition system (Sec. 5.1).

A :class:`SystemState` wraps a live :class:`RustMonitor` (which already
carries physical memory, the vCPU, the TLB, the EPCM, and every page
table) plus the bookkeeping the security arguments need: the step
counter and the data oracle cursor.

States support :meth:`clone` (sharing every immutable value of the
monitor, see :meth:`RustMonitor.clone`) so the noninterference drivers
can branch executions, and :meth:`principal_is_active` /
:meth:`live_principals` queries used by the lemma checkers.
"""

from repro.hyperenclave.monitor import HOST_ID


class SystemState:
    """σ: the whole machine plus model bookkeeping."""

    def __init__(self, monitor, oracle=None, use_spec_walk=False):
        self.monitor = monitor
        self.oracle = oracle
        self.step_count = 0
        # Resolve enclave accesses via the verified spec walk (Sec. 5.1)
        # instead of the hardware walker; both must agree (tested).
        self.use_spec_walk = use_spec_walk

    # -- principals -----------------------------------------------------------

    @property
    def active(self):
        return self.monitor.active

    def principal_is_active(self, principal):
        return self.monitor.active == principal

    def live_principals(self):
        return self.monitor.principals()

    def enclave(self, eid):
        return self.monitor.enclaves[eid]

    # -- branching --------------------------------------------------------------

    def clone(self):
        """An independent copy at the same oracle position.

        Uses :meth:`RustMonitor.clone` and the oracle's ``fork`` — this
        is the two-world noninterference hot path (every crash-NI
        campaign unit clones both worlds) and the parallel fabric's
        world builder.  Every other field is an immutable value and is
        shared.
        """
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        new.monitor = self.monitor.clone()
        if self.oracle is not None:
            new.oracle = self.oracle.fork()
        return new

    def __repr__(self):
        return (f"SystemState(active={self.active}, "
                f"principals={self.live_principals()}, "
                f"steps={self.step_count})")


def fresh_state(config, monitor_class=None, oracle=None,
                **monitor_kwargs):
    """Boot a monitor (default :class:`RustMonitor`) into a SystemState."""
    from repro.hyperenclave.monitor import RustMonitor
    cls = monitor_class or RustMonitor
    return SystemState(cls(config, **monitor_kwargs), oracle=oracle)


__all__ = ["SystemState", "fresh_state", "HOST_ID"]
