"""The fault-injection campaign, rendered as an artifact.

Four sweeps make up the robustness table, once for each entry of
:data:`~repro.hyperenclave.constants.ARCH_CONFIGS`:

1. the crash-step campaign — every fault site × every step index of
   every hypercall on the transactional :class:`RustMonitor` (expected
   all-green),
2. the same campaign on the deliberately broken
   :class:`NonTransactionalMonitor` (expected failures, which is what
   keeps the green run from being vacuous),
3. the untrusted-memory bit-flip campaign, and
4. the crash-step noninterference campaign — the same faults injected
   symmetrically into the paper's 41-vs-42 two-world construction.

The campaigns run on a two-worker pool; their reports are
byte-identical to in-process runs.  The artifact carries counts only,
so it is a pure function of the code: wall-clock time to verdict is
perfbench's job.
"""

from repro.engine import ShardedExecutor
from repro.faults import (
    bitflip_campaign,
    crash_ni_campaign,
    crash_step_campaign,
    default_two_worlds,
    default_workload,
    default_world_factory,
)
from repro.hyperenclave.buggy import NonTransactionalMonitor
from repro.hyperenclave.constants import ARCH_CONFIGS


def arch_sections(arch, config, pool):
    """The four sweeps on one arch: rendered lines, after asserting
    each sweep's expected outcome."""
    factory = default_world_factory(config)
    calls = default_workload()

    crash = crash_step_campaign(factory, calls, seed=0, executor=pool)
    buggy = crash_step_campaign(
        default_world_factory(config, NonTransactionalMonitor), calls,
        seed=0, executor=pool)
    flips = bitflip_campaign(factory, calls[:5], flips=64, seed=0)
    ni = crash_ni_campaign(default_two_worlds(config), seed=0,
                           executor=pool)

    assert crash.ok, crash.render()
    assert crash.faults_injected == len(crash.runs)
    assert crash.rollbacks_verified == crash.faults_injected
    assert not buggy.ok
    assert flips.ok
    assert ni.ok, ni.render()

    return [
        f"== {arch} ({config.name}) ==",
        "",
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


def test_bench_fault_campaign(emit):
    sections = ["Fault-injection campaigns (seed 0)"]
    with ShardedExecutor(2) as pool:
        for arch, config in ARCH_CONFIGS.items():
            sections.append("")
            sections.extend(arch_sections(arch, config, pool))
    emit("fault_campaign", "\n".join(sections))
