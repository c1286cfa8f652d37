"""The 13-planted-bug conviction matrix, as a library.

Every buggy monitor variant in :mod:`repro.hyperenclave.buggy` paired
with the checker the paper assigns to its bug class — structural bugs
with the Sec. 5.2 invariant families or the Sec. 4.1 refinement,
behavioural leaks with the Sec. 5 noninterference theorem, the
crash-consistency bug with the fault-injection campaign, and the two
concurrency bugs with the bounded-preemption interleaving explorer.

This lives in the library (rather than only in
``benchmarks/test_bench_bug_matrix.py``, which imports it) so the
matrix also runs *through the parallel fabric*: :func:`run_matrix`
runs the rows in order in process, and :func:`run_matrix_parallel`
maps each row, whole, as one executor unit.  A unit-transport or merge
bug that masked a real violation would flip a conviction here, so
:func:`run_matrix_parallel` must convict all 13 with verdict strings
identical to :func:`run_matrix`'s.  No check memo outlives a row:
the single-state rows call the checkers directly, and each campaign
row's campaign keeps its own.
"""

from typing import List, Tuple

from repro.hyperenclave import buggy
from repro.hyperenclave.constants import TINY
from repro.hyperenclave.monitor import HOST_ID

PAGE = TINY.page_size


def build_world(monitor_cls=None, secret=0x41, pages=1, config=None):
    """A booted monitor with one app + initialized enclave holding
    ``secret`` (the standard single-enclave fixture).  All addresses
    scale with ``config`` so the same scenario runs on every
    architecture (x86 EPT and VMSAv8-64 alike)."""
    from repro.hyperenclave.monitor import RustMonitor
    config = config or TINY
    cls = monitor_cls or RustMonitor
    monitor = cls(config)
    primary_os = monitor.primary_os
    app = primary_os.spawn_app(1)
    page = config.page_size
    mbuf_pa = config.frame_base(primary_os.reserve_data_frame())
    src_pa = config.frame_base(primary_os.reserve_data_frame())
    primary_os.gpa_write_word(src_pa, secret)
    eid = monitor.hc_create(16 * page, pages * page, 12 * page, mbuf_pa,
                            page)
    for index in range(pages):
        monitor.hc_add_page(eid, (16 + index) * page, src_pa)
    primary_os.gpa_write_word(src_pa, 0)
    monitor.hc_init(eid)
    primary_os.gpt_map(app.gpt_root_gpa, 12 * page, mbuf_pa)
    return monitor, app, eid


# ---------------------------------------------------------------------------
# World setups for the invariant-family convictions
# ---------------------------------------------------------------------------


def setup_single(monitor_cls, config=None):
    """The standard single-enclave world, monitor only."""
    return build_world(monitor_cls, config=config)[0]


def setup_two_enclaves(monitor_cls, config=None):
    """Two enclaves fed from one source frame (aliasing bait)."""
    config = config or TINY
    page = config.page_size
    monitor = monitor_cls(config)
    primary_os = monitor.primary_os
    src = config.frame_base(primary_os.reserve_data_frame())
    primary_os.gpa_write_word(src, 0x9)
    mbuf_a = config.frame_base(primary_os.reserve_data_frame())
    mbuf_b = config.frame_base(primary_os.reserve_data_frame())
    eid_a = monitor.hc_create(16 * page, page, 4 * page, mbuf_a, page)
    eid_b = monitor.hc_create(32 * page, page, 5 * page, mbuf_b, page)
    monitor.hc_add_page(eid_a, 16 * page, src)
    monitor.hc_add_page(eid_b, 32 * page, src)
    return monitor


def setup_outside(monitor_cls, config=None):
    """An added page whose VA lies outside the ELRANGE."""
    config = config or TINY
    page = config.page_size
    monitor = monitor_cls(config)
    mbuf = config.frame_base(monitor.primary_os.reserve_data_frame())
    eid = monitor.hc_create(16 * page, page, 4 * page, mbuf, page)
    monitor.hc_add_page(eid, 40 * page, 0)
    return monitor


def setup_mbuf_overlap(monitor_cls, config=None):
    """A marshalling buffer overlapping the enclave ELRANGE."""
    config = config or TINY
    page = config.page_size
    monitor = monitor_cls(config)
    mbuf = config.frame_base(monitor.primary_os.reserve_data_frame())
    monitor.hc_create(16 * page, 2 * page, 17 * page, mbuf, page)
    return monitor


def setup_secure_mbuf(monitor_cls, config=None):
    """A marshalling buffer placed inside secure (EPC) memory."""
    config = config or TINY
    page = config.page_size
    monitor = monitor_cls(config)
    epc_pa = config.frame_base(monitor.layout.epc_base + 3)
    monitor.hc_create(16 * page, page, 4 * page, epc_pa, page)
    return monitor


# ---------------------------------------------------------------------------
# Detectors
# ---------------------------------------------------------------------------


def detect_invariant_bug(monitor_cls, setup, *, config=None):
    """Convict via the Sec. 5.2 invariant families on ``setup``\'s world."""
    from repro.security.invariants import check_all_invariants
    report = check_all_invariants(setup(monitor_cls, config=config))
    return (not report.ok,
            "invariants: " + "/".join(report.violated_families()))


def detect_shallow_copy(monitor_cls, _arg=None, *, config=None):
    """Convict via refinement: abstraction refuses the aliased table."""
    from repro.security.invariants import check_all_invariants
    from repro.spec import AbstractionFailure, abstract_table
    from repro.spec.relation import flat_state_of_page_table

    config = config or TINY
    page = config.page_size
    monitor = monitor_cls(config)
    primary_os = monitor.primary_os
    app = primary_os.spawn_app(1)
    primary_os.app_map_data(app, 16 * page)
    mbuf = config.frame_base(primary_os.reserve_data_frame())
    eid = monitor.hc_create_from_app(app, 16 * page, 2 * page, 4 * page,
                                     mbuf, page)
    enclave = monitor.enclaves[eid]
    flat = flat_state_of_page_table(
        enclave.gpt, monitor.layout.pt_pool_base,
        monitor.layout.epc_base - monitor.layout.pt_pool_base)
    try:
        abstract_table(flat, enclave.gpt.root_frame)
        refused = False
    except AbstractionFailure:
        refused = True
    residency = not check_all_invariants(monitor).ok
    return refused and residency, "refinement: α refuses + pt-residency"


def detect_ni_bug(monitor_cls, trace_builder, *, config=None):
    """Convict via the Sec. 5 two-world noninterference theorem."""
    from repro.security import DataOracle, SystemState
    from repro.security.noninterference import (
        TwoWorlds,
        check_theorem_noninterference,
    )

    config = config or TINY

    def world(secret):
        monitor, app, eid = build_world(monitor_cls, secret=secret,
                                        pages=2, config=config)
        return SystemState(monitor, DataOracle.seeded(5)), app, eid
    state_a, app, eid = world(41)
    state_b, _, _ = world(42)
    worlds = TwoWorlds(state_a, state_b)
    violations = check_theorem_noninterference(
        worlds, trace_builder(app, eid, config),
        observers=[HOST_ID, eid + 1] if monitor_cls is buggy.NoScrubMonitor
        else [HOST_ID])
    component = violations[-1].components if violations else ()
    return bool(violations), f"noninterference: {component}"


def leak_trace(app, eid, config=None):
    """An enclave session whose exit path can leak register state."""
    from repro.security import Hypercall, MemLoad
    page = (config or TINY).page_size
    return [
        Hypercall(HOST_ID, "enter", (eid,)),
        (MemLoad(eid, 16 * page, "rax"), MemLoad(eid, 16 * page, "rax")),
        (Hypercall(eid, "exit", (eid,)), Hypercall(eid, "exit", (eid,))),
        MemLoad(HOST_ID, 16 * page, "rbx", via_app=app.app_id),
    ]


def scrub_trace(app, eid, config=None):
    """Destroy-then-reuse: freed frames must come back scrubbed."""
    from repro.security import Hypercall
    page = (config or TINY).page_size
    return [
        Hypercall(HOST_ID, "destroy", (eid,)),
        Hypercall(HOST_ID, "create",
                  (48 * page, 2 * page, 8 * page, 2 * page, page)),
        Hypercall(HOST_ID, "add_page", (eid + 1, 48 * page, 0)),
        Hypercall(HOST_ID, "init", (eid + 1,)),
        Hypercall(HOST_ID, "aug_page", (eid + 1, 49 * page)),
    ]


def detect_no_rollback(monitor_cls, _arg=None, *, config=None):
    """A tiny crash-step sweep (create + add_page, hypercall crash
    points only): partial mutations survive the abort."""
    from repro.faults import (
        crash_step_campaign,
        default_workload,
        default_world_factory,
    )

    report = crash_step_campaign(
        default_world_factory(config, monitor_cls), default_workload()[:2],
        sites=(), seed=0)
    return (not report.ok,
            f"fault campaign: {len(report.failures())} un-rolled-back "
            f"aborts")


def detect_concurrency_bug(monitor_cls, _arg=None, *, config=None):
    """Bounded-preemption exploration flags the planted race."""
    from repro.faults import interleaving_campaign

    result = interleaving_campaign(monitor_cls, check_ni=False,
                                   config=config)
    kinds = "/".join(sorted(result.by_kind()))
    return not result.ok, f"interleaving explorer: {kinds}"


MATRIX = [
    (buggy.ShallowCopyMonitor, detect_shallow_copy, None),
    (buggy.AliasingMonitor, detect_invariant_bug, setup_two_enclaves),
    (buggy.OutsideElrangeMonitor, detect_invariant_bug, setup_outside),
    (buggy.NoEpcmRecordMonitor, detect_invariant_bug, setup_single),
    (buggy.HugePageMonitor, detect_invariant_bug, setup_single),
    (buggy.MbufOverlapMonitor, detect_invariant_bug,
     setup_mbuf_overlap),
    (buggy.SecureMbufMonitor, detect_invariant_bug, setup_secure_mbuf),
    (buggy.LeakyExitMonitor, detect_ni_bug, leak_trace),
    (buggy.NoTlbFlushMonitor, detect_ni_bug, leak_trace),
    (buggy.NoScrubMonitor, detect_ni_bug, scrub_trace),
    (buggy.NonTransactionalMonitor, detect_no_rollback, None),
    (buggy.MissingLockMonitor, detect_concurrency_bug, None),
    (buggy.NoShootdownMonitor, detect_concurrency_bug, None),
]


def run_case(index, config=None) -> Tuple[str, bool, str]:
    """Run one matrix row: ``(bug name, detected, how)``."""
    monitor_cls, detector, arg = MATRIX[index]
    detected, how = detector(monitor_cls, arg, config=config)
    return (monitor_cls.BUG, detected, how)


def run_matrix(config=None) -> List[Tuple[str, bool, str]]:
    """The whole matrix, sequentially, in matrix order."""
    return [run_case(index, config=config) for index in range(len(MATRIX))]


def run_matrix_parallel(workers=None, executor=None,
                        config=None) -> List[Tuple[str, bool, str]]:
    """The whole matrix through the parallel fabric: one
    :func:`~repro.engine.workers.run_bug_matrix_unit` per row, on
    ``executor`` or a new pool of ``workers``.  A campaign row runs its
    whole campaign inside its worker.  Results are in matrix order with
    verdict strings identical to :func:`run_matrix`'s.
    """
    from repro.engine.executor import scoped_executor

    with scoped_executor(executor, workers) as pool:
        return pool.map("repro.engine.workers:run_bug_matrix_unit",
                        [{"case": index, "config": config}
                         for index in range(len(MATRIX))])
