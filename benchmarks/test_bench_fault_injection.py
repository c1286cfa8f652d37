"""The fault-injection campaign, rendered as an artifact.

Three sweeps make up the robustness table:

1. the crash-step campaign — every fault site × every step index of
   every hypercall on the transactional :class:`RustMonitor` (expected
   all-green) *and* on the deliberately broken
   :class:`NonTransactionalMonitor` (expected failures, which is what
   keeps the green run from being vacuous),
2. the untrusted-memory bit-flip campaign, and
3. the crash-step noninterference campaign — the same faults injected
   symmetrically into the paper's 41-vs-42 two-world construction.

The artifact carries counts only, so it is a pure function of the
code: wall-clock time to verdict is perfbench's job.
"""

from repro.faults import (
    bitflip_campaign,
    crash_ni_campaign,
    crash_step_campaign,
    default_workload,
    default_world_factory,
)
from repro.hyperenclave.buggy import NonTransactionalMonitor
from repro.hyperenclave.constants import TINY

PAGE = TINY.page_size


def buggy_world_factory():
    def world():
        monitor = NonTransactionalMonitor(TINY)
        primary_os = monitor.primary_os
        ctx = {
            "page": PAGE,
            "mbuf_pa": TINY.frame_base(primary_os.reserve_data_frame()),
            "src_pa": TINY.frame_base(primary_os.reserve_data_frame()),
            "elrange_base": 16 * PAGE,
        }
        primary_os.gpa_write_word(ctx["src_pa"], 0xDEAD)
        return monitor, ctx

    return world


def test_bench_fault_campaign(emit):
    factory = default_world_factory()
    calls = default_workload()

    crash = crash_step_campaign(factory, calls, seed=0)
    buggy = crash_step_campaign(buggy_world_factory(), calls, seed=0)
    flips = bitflip_campaign(factory, calls[:5], flips=64, seed=0)
    ni = crash_ni_campaign(seed=0)

    sections = [
        crash.render(title="Crash-step campaign — RustMonitor "
                           "(transactional)"),
        "",
        f"NonTransactionalMonitor under the identical campaign: "
        f"{len(buggy.failures())} of {len(buggy.runs)} faulted runs "
        f"violate rollback or invariants — the campaign is not "
        f"vacuous.",
        "",
        flips.render(title="Untrusted-memory bit-flip campaign"),
        "",
        ni.render(title="Crash-step noninterference campaign "
                        "(41-vs-42 two worlds)"),
    ]
    emit("fault_campaign", "\n".join(sections))

    assert crash.ok, crash.render()
    assert crash.faults_injected == len(crash.runs)
    assert crash.rollbacks_verified == crash.faults_injected
    assert not buggy.ok
    assert flips.ok
    assert ni.ok, ni.render()
