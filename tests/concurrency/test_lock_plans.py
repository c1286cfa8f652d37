"""Each hypercall's lock plan, pinned.

:data:`LOCK_PLANS` lists the locks every :func:`default_workload`
hypercall takes, in order, when it runs alone on a one-vCPU scheduler,
for :class:`RustMonitor` and every planted bug.  The locks are read
from the ``lock.acquire`` trace events :class:`LockManager.acquire`
emits, so the table reads the same whichever code takes a lock.

Each call runs both ways the scheduler runs work: as one step of a
one-vCPU :class:`ScriptWorkloads` script, and as an opaque callable
(:func:`scheduled_runner`).  Calls a monitor rejects still count: a
rejection happens after the locks are held.
"""

import pytest

from repro.concurrency import DeterministicScheduler, Schedule
from repro.errors import ReproError
from repro.faults import default_workload, default_world_factory
from repro.faults.campaign import ScriptWorkloads, scheduled_runner
from repro.hyperenclave.buggy import (
    ALL_BUGGY_MONITORS,
    NonTransactionalMonitor,
)
from repro.hyperenclave.monitor import HOST_ID, RustMonitor
from repro.hyperenclave.txn import transactional
from repro.obs import trace
from repro.security import SystemState
from repro.security.transitions import Hypercall

ALL = ("enclaves", "enclave:1", "epcm", "frames")
ENCLAVE = ("enclaves", "enclave:1")
ENCLAVE_EPCM = ("enclaves", "enclave:1", "epcm")
CREATE = ("enclaves", "epcm", "frames")

#: The plans of the correct monitor, per default-workload call.
RUST = (("create", CREATE), ("add_page", ALL),
        ("remove_page", ENCLAVE_EPCM), ("add_page", ALL),
        ("init", ENCLAVE), ("aug_page", ALL), ("trim_page", ENCLAVE_EPCM),
        ("enter", ENCLAVE), ("exit", ENCLAVE), ("destroy", ALL))

#: No lock at any call.
NO_LOCKS = tuple((name, ()) for name, _plan in RUST)


def _except(overrides):
    return tuple((name, overrides.get(index, plan))
                 for index, (name, plan) in enumerate(RUST))


#: monitor class name -> ((hypercall, locks taken), ...) per call.
LOCK_PLANS = {
    "RustMonitor": RUST,
    "ShallowCopyMonitor": RUST,
    # the overrides of add_page, create, exit and destroy take no lock
    # of their own; those that call the correct body take its plan
    "AliasingMonitor": _except({1: (), 3: ()}),
    "OutsideElrangeMonitor": _except({1: (), 3: ()}),
    "NoEpcmRecordMonitor": RUST,
    "HugePageMonitor": RUST,
    "MbufOverlapMonitor": _except({0: ()}),
    "SecureMbufMonitor": _except({0: ()}),
    "LeakyExitMonitor": _except({8: ()}),
    "NoTlbFlushMonitor": _except({8: ()}),
    "NoScrubMonitor": _except({9: ()}),
    "NonTransactionalMonitor": RUST,
    "MissingLockMonitor": NO_LOCKS,
    "NoShootdownMonitor": RUST,
}

MONITORS = [RustMonitor] + list(ALL_BUGGY_MONITORS)


def _step(name, ctx):
    """The default-workload call ``name`` as a transition-system step."""
    page, base, eid = ctx["page"], ctx["elrange_base"], ctx.get("eid")
    args = {"create": (base, 4 * page, 12 * page, ctx["mbuf_pa"], page),
            "add_page": (eid, base, ctx["src_pa"]),
            "remove_page": (eid, base),
            "aug_page": (eid, base + page),
            "trim_page": (eid, base + page)}.get(name, (eid,))
    return Hypercall(eid if name == "exit" else HOST_ID, name, args)


def _acquired(run):
    """The locks ``run()`` takes, in order."""
    tracer = trace.Tracer()
    with trace.installed(tracer):
        run()
    return tuple(record["attrs"]["lock"] for record in tracer.records
                 if record["name"] == "lock.acquire")


def _as_script(monitor_cls):
    """Each call as the one step of a one-vCPU script."""
    monitor, ctx = default_world_factory(monitor_cls=monitor_cls)()
    state = SystemState(monitor)
    ctx["eid"] = 1
    plans = []
    for name, _invoke in default_workload():
        workloads = ScriptWorkloads(state, [[_step(name, ctx)]])
        plans.append((name, _acquired(DeterministicScheduler(
            monitor, workloads, Schedule()).run)))
    return tuple(plans)


def _as_callable(monitor_cls):
    """Each call as a one-task opaque callable."""
    monitor, ctx = default_world_factory(monitor_cls=monitor_cls)()
    plans = []
    for name, invoke in default_workload():
        def run(invoke=invoke):
            try:
                scheduled_runner(invoke, monitor, ctx)
            except ReproError:
                pass                # rejected after taking its locks
        plans.append((name, _acquired(run)))
    return tuple(plans)


def test_the_table_covers_every_monitor():
    assert sorted(LOCK_PLANS) == sorted(cls.__name__ for cls in MONITORS)


@pytest.mark.parametrize("monitor_cls", MONITORS,
                         ids=lambda cls: cls.__name__)
def test_script_steps_take_the_pinned_plan(monitor_cls):
    assert _as_script(monitor_cls) == LOCK_PLANS[monitor_cls.__name__]


@pytest.mark.parametrize("monitor_cls", MONITORS,
                         ids=lambda cls: cls.__name__)
def test_opaque_callables_take_the_pinned_plan(monitor_cls):
    """For an opaque callable only the transactional wrapper takes a
    plan, so ``NonTransactionalMonitor``'s unwrapped bodies take none
    there (a script step still takes their declared plan)."""
    expected = LOCK_PLANS[monitor_cls.__name__]
    if monitor_cls is NonTransactionalMonitor:
        expected = NO_LOCKS
    assert _as_callable(monitor_cls) == expected


def test_a_lock_set_out_of_global_order_is_refused():
    with pytest.raises(ValueError, match="global lock order"):
        transactional("frames", "epcm")
    with pytest.raises(ValueError, match="global lock order"):
        transactional("epcm", "epcm")
