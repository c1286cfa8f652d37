"""Resume keys cover everything the rest of a scheduled run reads.

A leaf run that meets a resume key an earlier run of its world
published takes that run's records and final state instead of running
on (:class:`~repro.concurrency.snapshot.Completion`).  That is sound
only if two parks with equal keys go on identically, so every field of
the state and of its monitor, every
:class:`~repro.concurrency.scheduler.Task` field, the script positions
and the scheduler's last pick must move the key when they move.  The
named exceptions are ``config``/``layout`` (fixed per world, which the
tree's world key names).  A run whose monitor or state carries a field
no key covers, or that runs under a fault plane, never splices.  A
clone shares every field it does not rebuild, so each such field of
every monitor and state class must be an immutable value.
"""

import dataclasses
import enum
from contextlib import nullcontext
from types import SimpleNamespace

import pytest

from repro.concurrency import DeterministicScheduler, Schedule
from repro.concurrency import scheduler as conc
from repro.concurrency.scheduler import Task
from repro.concurrency.shootdown import detect_stale_translations
from repro.concurrency.snapshot import (
    KEYED_MONITOR_FIELDS,
    KEYED_STATE_FIELDS,
    SAFE_PARK_KINDS,
    SnapshotTree,
    resume_key,
    static_key,
)
from repro.faults import FaultPlane, build_interleaved_world
from repro.faults import plane as fault_plane
from repro.faults.campaign import (
    ScriptWorkloads,
    default_concurrent_scripts,
    execute_interleaved,
    interleaving_campaign,
)
from repro.hyperenclave import buggy
from repro.hyperenclave.constants import ARCH_CONFIGS, TINY
from repro.hyperenclave.enclave import EnclaveState
from repro.hyperenclave.epcm import PageState
from repro.hyperenclave.mbuf import MarshallingBuffer
from repro.hyperenclave.monitor import RustMonitor
from repro.obs.metrics import REGISTRY
from repro.security.oracle import DataOracle
from repro.security.state import SystemState
from tests.conftest import from_scratch_campaign

#: A bound-1 schedule whose decision 48 parks vCPU 0 at ``hc_init``'s
#: return and vCPU 1 at its second ``MemLoad``, inside the enclave with
#: a cached translation and a parked host context.
PARK_SCHEDULE = Schedule(seed=0, preemptions=((42, 1),))
PARK_DECISION = 48

#: Fields the key leaves out on purpose (fixed per world).
UNKEYED = {"config", "layout"}


class _Grab:
    """A snapshot plan stand-in that keeps a copy of the run at one
    keyed park."""

    completes = True

    def __init__(self, workloads):
        self.workloads = workloads
        self.park = None

    def offer(self, _sched):
        pass

    def resume(self, sched):
        if len(sched.decisions) == PARK_DECISION:
            assert not sched.locks.any_held()
            assert all(task.done or task.pending_kind in SAFE_PARK_KINDS
                       for task in sched.tasks)
            with conc.suspended():
                state = self.workloads.state.clone()
            self.park = (state,
                         [dataclasses.replace(task) for task in sched.tasks],
                         list(self.workloads.positions), sched._last)
        return None


@pytest.fixture(scope="module", params=sorted(ARCH_CONFIGS))
def park(request):
    """``(state, tasks, positions, last)`` copied at the park."""
    prototype, ctx = build_interleaved_world(
        config=ARCH_CONFIGS[request.param])
    state = prototype.clone()
    workloads = ScriptWorkloads(state, default_concurrent_scripts(ctx))
    sched = DeterministicScheduler(state.monitor, workloads, PARK_SCHEDULE,
                                   probe=detect_stale_translations)
    grab = sched.snapshots = _Grab(workloads)
    sched.run()
    assert grab.park is not None
    state = grab.park[0]
    assert state.monitor.enclaves and state.monitor.cpus[1].active == 1
    assert len(state.monitor.cpus[1].tlb)
    assert state.monitor.cpus[1].saved_host_context is not None
    return grab.park


def _key(state, tasks, positions, last):
    sched = SimpleNamespace(tasks=tasks, _last=last)
    return (static_key(state, PARK_SCHEDULE),
            resume_key(sched, state, positions))


def _tables(monitor):
    enclave = monitor.enclaves[1]
    return {"os_ept": monitor.os_ept, "gpt": enclave.gpt,
            "ept": enclave.ept}


def _table_mutations(name):
    def get(m):
        return _tables(m)[name]

    return [
        (f"{name}.root_frame",
         lambda s: setattr(get(s.monitor), "root_frame",
                           get(s.monitor).root_frame + 1)),
        (f"{name}.owner_lock",
         lambda s: setattr(get(s.monitor), "owner_lock", "elsewhere")),
        (f"{name}.allow_huge",
         lambda s: setattr(get(s.monitor), "allow_huge",
                           not get(s.monitor).allow_huge)),
        (f"{name}.name", lambda s: setattr(get(s.monitor), "name", "x")),
    ]


def _enclave(s):
    return s.monitor.enclaves[1]


def _cpu(s, vid):
    return s.monitor.cpus[vid]


def _app(s):
    return s.monitor.primary_os.apps[1]


#: field -> mutations of a clone of the parked state, each of which must
#: move the key.
STATE_MUTATIONS = {
    "step_count": [("step_count",
                    lambda s: setattr(s, "step_count", s.step_count + 1))],
    "use_spec_walk": [("use_spec_walk",
                       lambda s: setattr(s, "use_spec_walk",
                                         not s.use_spec_walk))],
    "oracle": [
        ("oracle cursor", lambda s: s.oracle.next()),
        ("oracle values",
         lambda s: setattr(s.oracle, "_values",
                           (s.oracle._values[0] ^ 1,) + s.oracle._values[1:])),
        ("oracle cycling", lambda s: setattr(s.oracle, "_cycle", False)),
    ],
    "monitor": [("monitor class",
                 lambda s: setattr(s.monitor, "__class__",
                                   type("Derived", (RustMonitor,), {})))],
}

MONITOR_MUTATIONS = {
    "phys": [("phys word",
              lambda s: s.monitor.phys.write_word(
                  0, s.monitor.phys.read_word(0) + 1))],
    "pt_allocator": [("pt_allocator",
                      lambda s: s.monitor.pt_allocator.alloc())],
    "epcm": [("epcm entry",
              lambda s: s.monitor.epcm.allocate(2, PageState.REG, 0))],
    "enclaves": [
        ("enclave added", lambda s: s.monitor._set_enclave(
            7, _enclave(s).clone(_enclave(s).gpt, _enclave(s).ept))),
        ("enclave.eid", lambda s: setattr(_enclave(s), "eid", 9)),
        ("enclave.elrange_base", lambda s: setattr(
            _enclave(s), "elrange_base", _enclave(s).elrange_base + 1)),
        ("enclave.elrange_size", lambda s: setattr(
            _enclave(s), "elrange_size", _enclave(s).elrange_size + 1)),
        ("enclave.mbuf", lambda s: setattr(
            _enclave(s), "mbuf", MarshallingBuffer(0, 0, 1))),
        ("enclave.gpa_base", lambda s: setattr(
            _enclave(s), "gpa_base", _enclave(s).gpa_base + 1)),
        ("enclave.state", lambda s: setattr(
            _enclave(s), "state", EnclaveState.DESTROYED)),
        ("enclave.saved_context",
         lambda s: setattr(_enclave(s), "saved_context", (("rax", 1),))),
        ("enclave.measurement",
         lambda s: setattr(_enclave(s), "measurement",
                           _enclave(s).measurement + 1)),
    ] + _table_mutations("gpt") + _table_mutations("ept"),
    "_next_eid": [("_next_eid", lambda s: setattr(
        s.monitor, "_next_eid", s.monitor._next_eid + 1))],
    "_vid": [("_vid", lambda s: setattr(s.monitor, "_vid",
                                        1 - s.monitor._vid))],
    "cpus": [
        mutation
        for vid in (0, 1)
        for mutation in (
            (f"cpu{vid}.active",
             lambda s, vid=vid: setattr(_cpu(s, vid), "active", 5)),
            (f"cpu{vid}.saved_host_context",
             lambda s, vid=vid: setattr(_cpu(s, vid), "saved_host_context",
                                        (("rip", 3),))),
            (f"cpu{vid}.regs",
             lambda s, vid=vid: _cpu(s, vid).vcpu.write_reg(
                 "rdx", _cpu(s, vid).vcpu.read_reg("rdx") + 1)),
            (f"cpu{vid}.gpt_root",
             lambda s, vid=vid: setattr(_cpu(s, vid).vcpu, "gpt_root", 77)),
            (f"cpu{vid}.ept_root",
             lambda s, vid=vid: setattr(_cpu(s, vid).vcpu, "ept_root", 77)),
            (f"cpu{vid}.tlb entry",
             lambda s, vid=vid: _cpu(s, vid).tlb.insert(3, 0x9000, 0x1000)),
            (f"cpu{vid}.tlb flushes",
             lambda s, vid=vid: setattr(_cpu(s, vid).tlb, "flush_count",
                                        _cpu(s, vid).tlb.flush_count + 1)),
        )],
    "os_ept": _table_mutations("os_ept"),
    "primary_os": [
        ("app spawned", lambda s: s.monitor.primary_os.spawn_app(2)),
        ("app.app_id", lambda s: setattr(_app(s), "app_id", 3)),
        ("app.gpt_root_gpa", lambda s: setattr(
            _app(s), "gpt_root_gpa", _app(s).gpt_root_gpa + 1)),
        ("app.mbuf_va", lambda s: setattr(_app(s), "mbuf_va", 1)),
        ("app.mbuf_size", lambda s: setattr(_app(s), "mbuf_size", 1)),
        ("os table cursor", lambda s: setattr(
            s.monitor.primary_os, "_next_table_frame",
            s.monitor.primary_os._next_table_frame + 1)),
        ("os reserved frames",
         lambda s: s.monitor.primary_os._reserved_frames.add(10 ** 6)),
    ],
}

#: Task field -> a new value for vCPU 1's task (vCPU 0 is parked too).
TASK_MUTATIONS = {
    "vid": 5,
    "fn": lambda: None,
    "pending_kind": "lock.acquire",
    "pending_detail": "other",
    "yield_index": 99,
    "waiting_lock": "epcm",
    "crashed": True,
    "parked": True,
    "done": True,
    "exc": RuntimeError("died"),
}


def test_mutation_tables_cover_every_keyed_field():
    """Every field the key covers and every Task field has a mutation
    below, bar the named exceptions, and the keyed fields are the
    fields a monitor and a state have."""
    state = SystemState(RustMonitor(TINY), DataOracle.seeded(1))
    assert set(vars(state.monitor)) == KEYED_MONITOR_FIELDS
    assert set(vars(state)) == KEYED_STATE_FIELDS
    assert set(MONITOR_MUTATIONS) == KEYED_MONITOR_FIELDS - UNKEYED
    assert set(STATE_MUTATIONS) == KEYED_STATE_FIELDS
    assert set(TASK_MUTATIONS) == {f.name for f in dataclasses.fields(Task)}


def test_static_key_reads_the_oracle_values():
    """The masked values, as the tuple a fork shares, and the cycling
    flag; a clone's oracle keys the same."""
    state = SystemState(RustMonitor(TINY), DataOracle([3, -1, 1 << 70]))
    key = static_key(state, PARK_SCHEDULE)
    assert key[3] == ((3, (1 << 64) - 1, 0), True)
    assert static_key(state.clone(), PARK_SCHEDULE) == key


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _immutable(value):
    """Is ``value`` an immutable value all the way down?"""
    if value is None or isinstance(value, (bool, int, float, str, bytes,
                                           enum.Enum, type)):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(map(_immutable, value))
    if dataclasses.is_dataclass(value):
        return (value.__dataclass_params__.frozen
                and all(_immutable(getattr(value, f.name))
                        for f in dataclasses.fields(value)))
    return False


@pytest.mark.parametrize("cls", _subclasses(RustMonitor) + _subclasses(
    SystemState), ids=lambda cls: cls.__name__)
def test_every_field_a_clone_shares_is_an_immutable_value(cls):
    """A clone makes new structure holders and shares every other field
    by reference (there is no deep-copy fallback), so each field of
    every monitor and state class a clone does not rebuild must be an
    immutable value — or a monitor and its clones would alias it."""
    assert buggy.ALL_BUGGY_MONITORS
    if issubclass(cls, RustMonitor):
        obj = cls(TINY, num_vcpus=2)
    else:
        obj = cls(RustMonitor(TINY), DataOracle.seeded(1))
    copy = obj.clone()
    shared = [name for name, value in vars(obj).items()
              if vars(copy)[name] is value]
    assert shared
    for name in shared:
        assert _immutable(getattr(obj, name)), name


@pytest.mark.parametrize("label,mutate", [
    mutation
    for table in (STATE_MUTATIONS, MONITOR_MUTATIONS)
    for mutations in table.values()
    for mutation in mutations],
    ids=lambda value: value if isinstance(value, str) else "")
def test_state_field_moves_the_key(park, label, mutate):
    state, tasks, positions, last = park
    base = _key(state, tasks, positions, last)
    assert None not in base
    changed = state.clone()
    mutate(changed)
    assert _key(changed, tasks, positions, last) != base, label


def test_fingerprints_kept_on_values_leave_the_key(park):
    """Fingerprints dropped from the values and from physical memory
    are recomputed to the same key."""
    state, tasks, positions, last = park
    base = _key(state, tasks, positions, last)
    cold = state.clone()
    monitor = cold.monitor
    for value in (monitor.pt_allocator.value, monitor.epcm.value,
                  *(cpu.value for cpu in monitor.cpus)):
        vars(value).pop("fingerprint", None)
    monitor.phys._fingerprint = None
    assert _key(cold, tasks, positions, last) == base


@pytest.mark.parametrize("field", sorted(TASK_MUTATIONS))
def test_task_field_moves_the_key(park, field):
    state, tasks, positions, last = park
    base = _key(state, tasks, positions, last)
    changed = list(tasks)
    changed[1] = dataclasses.replace(tasks[1],
                                     **{field: TASK_MUTATIONS[field]})
    assert _key(state, changed, positions, last) != base


def test_positions_and_last_pick_move_the_key(park):
    state, tasks, positions, last = park
    base = _key(state, tasks, positions, last)
    assert _key(state, tasks, [positions[0], positions[1] + 1], last) != base
    assert _key(state, tasks, positions, 1 - last) != base


class ExtraFieldMonitor(RustMonitor):
    """A monitor with an instance field no resume key covers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.extra = 0


def test_an_unkeyed_monitor_field_never_splices():
    grid = dict(preemption_bound=2, max_schedules=40, check_ni=False)
    before = REGISTRY.snapshot()
    result = interleaving_campaign(ExtraFieldMonitor, **grid)
    delta = REGISTRY.delta(before)["counters"]
    assert delta["snapshot_cache.completion_hits"] == 0
    assert delta["snapshot_cache.completion_misses"] == 0
    assert repr(result) == repr(from_scratch_campaign(ExtraFieldMonitor,
                                                      **grid))


def test_no_splice_under_a_fault_plane():
    """A leaf schedule run twice through one tree ends on its own
    completion the second time, but not under an installed plane."""
    prototype = build_interleaved_world()
    leaf = Schedule(seed=0, preemptions=((6, 1), (42, 0)))

    def hits(plane=None):
        before = REGISTRY.snapshot()
        with fault_plane.installed(plane) if plane else nullcontext():
            execute_interleaved(*prototype, leaf, tree=tree,
                                world_key="world", preemption_bound=2)
        return REGISTRY.delta(before)["counters"][
            "snapshot_cache.completion_hits"]

    tree = SnapshotTree()
    assert hits() == 0 and tree.completions
    assert hits(FaultPlane(record_only=True)) == 0
    assert hits() == 1
