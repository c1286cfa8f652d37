"""The verification campaigns, parametrized per architecture.

Every checking plane the repo has — the Sec. 5.2 invariant families,
the Sec. 4.1 refinement, the Sec. 5 noninterference theorem, the fault
campaign, and the bounded-preemption interleaving explorer — runs on
both :data:`~repro.hyperenclave.constants.ARCH_CONFIGS` worlds.  The
x86 rows re-check what the rest of the suite already pins; the
VMSAv8-64 rows are the point: nothing in the checking stack may assume
x86 PTE encodings.
"""

import pytest

from repro.hyperenclave import buggy
from repro.hyperenclave.constants import ARCH_CONFIGS
from repro.hyperenclave.monitor import HOST_ID, RustMonitor
from repro.engine.bug_matrix import (
    MATRIX,
    build_world,
    detect_concurrency_bug,
    detect_no_rollback,
    leak_trace,
    run_case,
)
from repro.faults import interleaving_campaign
from repro.security import DataOracle, SystemState
from repro.security.invariants import check_all_invariants
from repro.security.noninterference import (
    TwoWorlds,
    check_theorem_noninterference,
)

from tests.conftest import build_enclave_world

ARCHES = sorted(ARCH_CONFIGS)

LIGHT_ROWS = [index for index, (_cls, detector, _arg) in enumerate(MATRIX)
              if detector not in (detect_no_rollback,
                                  detect_concurrency_bug)]
CAMPAIGN_ROWS = [index for index in range(len(MATRIX))
                 if index not in LIGHT_ROWS]


@pytest.fixture(params=ARCHES)
def config(request):
    return ARCH_CONFIGS[request.param]


class TestInvariantsPerArch:
    def test_good_world_satisfies_every_family(self, config):
        monitor, _app, _eid = build_enclave_world(config=config)
        report = check_all_invariants(monitor)
        assert report.ok, report.violated_families()

    def test_boot_blocks_satisfy_every_family(self, config):
        """The boot-time untrusted mapping uses block (huge) entries —
        the 2 MiB-analog scenario.  Every invariant sweep must
        understand block structure on both arches."""
        monitor, _app, _eid = build_enclave_world(config=config)
        page = config.page_size
        sizes = {size for _va, _pa, size, _f in monitor.os_ept.mappings()}
        assert any(size > page for size in sizes), \
            "boot mapping no longer exercises block entries"
        report = check_all_invariants(monitor)
        assert report.ok, report.violated_families()

    def test_planted_bugs_convicted(self, config):
        for index in LIGHT_ROWS:
            bug, detected, how = run_case(index, config=config)
            assert detected, f"{bug} escaped on {config.arch.name}: {how}"


class TestNoninterferencePerArch:
    def build_two_worlds(self, config, monitor_cls=None):
        def world(secret):
            monitor, app, eid = build_world(monitor_cls, secret=secret,
                                            pages=2, config=config)
            return SystemState(monitor, DataOracle.seeded(5)), app, eid
        state_a, app, eid = world(41)
        state_b, _, _ = world(42)
        return TwoWorlds(state_a, state_b), app, eid

    def test_theorem_holds_on_correct_monitor(self, config):
        worlds, app, eid = self.build_two_worlds(config)
        violations = check_theorem_noninterference(
            worlds, leak_trace(app, eid, config), observers=[HOST_ID])
        assert violations == []

    def test_leaky_exit_violates(self, config):
        worlds, app, eid = self.build_two_worlds(
            config, buggy.LeakyExitMonitor)
        violations = check_theorem_noninterference(
            worlds, leak_trace(app, eid, config), observers=[HOST_ID])
        assert violations


class TestInterleavingPerArch:
    def test_correct_monitor_sweep_is_green(self, config):
        result = interleaving_campaign(check_ni=True, config=config,
                                       max_schedules=120)
        assert result.ok
        assert result.schedules_run >= 50

    def test_missing_lock_caught(self, config):
        result = interleaving_campaign(buggy.MissingLockMonitor,
                                       check_ni=False, config=config,
                                       max_schedules=200)
        assert not result.ok
        assert "lock-protocol" in result.by_kind()

    def test_campaign_rows_convict(self, config):
        for index in CAMPAIGN_ROWS:
            bug, detected, how = run_case(index, config=config)
            assert detected, f"{bug} escaped on {config.arch.name}: {how}"
