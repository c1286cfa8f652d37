"""Shared fixtures: geometries, monitors, the corpus model."""

import pytest

from repro.hyperenclave.constants import TINY, X86_64, MemoryLayout
from repro.hyperenclave.monitor import RustMonitor
from repro.hyperenclave.mir_model import build_model


@pytest.fixture(scope="session")
def tiny():
    return TINY


@pytest.fixture(scope="session")
def x86():
    return X86_64


@pytest.fixture(scope="session")
def tiny_layout():
    return MemoryLayout.default_for(TINY)


@pytest.fixture(scope="session")
def model():
    """The mirlight corpus model (expensive enough to share)."""
    return build_model(TINY)


@pytest.fixture
def monitor():
    return RustMonitor(TINY)


def build_enclave_world(monitor_cls=RustMonitor, secret=0xDEAD,
                        pages=1, config=TINY, scrub_source=True):
    """A booted monitor with one app and one initialized enclave whose
    first EPC page holds ``secret``.  Returns (monitor, app, eid)."""
    monitor = monitor_cls(config)
    primary_os = monitor.primary_os
    app = primary_os.spawn_app(1)
    page = config.page_size
    mbuf_pa = config.frame_base(primary_os.reserve_data_frame())
    src_pa = config.frame_base(primary_os.reserve_data_frame())
    primary_os.gpa_write_word(src_pa, secret)
    elrange_base = 16 * page
    eid = monitor.hc_create(elrange_base=elrange_base,
                            elrange_size=pages * page,
                            mbuf_va=12 * page, mbuf_pa=mbuf_pa,
                            mbuf_size=page)
    for index in range(pages):
        monitor.hc_add_page(eid, elrange_base + index * page, src_pa)
    if scrub_source:
        primary_os.gpa_write_word(src_pa, 0)
    monitor.hc_init(eid)
    primary_os.gpt_map(app.gpt_root_gpa, 12 * page, mbuf_pa)
    return monitor, app, eid


@pytest.fixture
def enclave_world():
    return build_enclave_world()


def from_scratch_campaign(monitor_cls=None, *, preemption_bound=2,
                          max_schedules=600, seed=0, check_ni=True,
                          crash=None, config=None):
    """The interleaving campaign's reference: the same ``explore`` and
    per-schedule battery, with every schedule run from a prototype
    clone (``make_interleaved_run`` with no bound captures nothing).

    The campaign drivers restore prefixes from a snapshot tree; their
    results must be ``repr``-equal to this one's."""
    from repro.concurrency import explore
    from repro.engine.memo import CheckMemo
    from repro.faults.campaign import make_interleaved_run, schedule_findings

    run_world = make_interleaved_run(monitor_cls, config)
    memo = CheckMemo()
    holder = {}

    def run_schedule(schedule, _branch_bound):
        holder["state"], result = run_world(41, schedule)
        return result

    def check(schedule, result):
        return schedule_findings(holder["state"], result, run_world,
                                 schedule, memo=memo, check_ni=check_ni)

    return explore(run_schedule, seed=seed,
                   preemption_bound=preemption_bound,
                   max_schedules=max_schedules, crash=crash, check=check)


def unit_path_campaign(monitor_cls=None, *, preemption_bound=2,
                       max_schedules=600, seed=0, check_ni=True,
                       crash=None, config=None):
    """The pooled campaign's unit path, in process: ``FrontierState``
    driven a whole wave at a time, every schedule one
    ``run_interleaving_unit`` carrying the wave's branch bound.

    These are the units ``CampaignStep`` maps, on any arch and crash
    plan (``CampaignSpec`` has neither yet).  They run through this
    process's snapshot tree and worker memo; install a fresh tree with
    ``reset_process_tree`` to control the cache."""
    from repro.concurrency.explorer import FrontierState
    from repro.engine.executor import callable_path
    from repro.engine.workers import run_interleaving_unit
    from repro.hyperenclave.monitor import HOST_ID

    state = FrontierState.start(seed=seed,
                                preemption_bound=preemption_bound,
                                max_schedules=max_schedules, crash=crash)
    while True:
        wave = state.take_wave()
        if not wave:
            return state.result()
        unit = {"monitor": callable_path(monitor_cls), "config": config,
                "check_ni": check_ni, "observers": [HOST_ID],
                "preemption_bound": state.branch_bound(wave)}
        state.absorb(wave, [run_interleaving_unit(dict(unit,
                                                       schedule=schedule))
                            for schedule in wave])
