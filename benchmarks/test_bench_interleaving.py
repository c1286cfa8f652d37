"""The multi-vCPU interleaving campaign, rendered as an artifact.

Four sweeps make up the concurrency table, once for each entry of
:data:`~repro.hyperenclave.constants.ARCH_CONFIGS`:

1. the full bounded-preemption exploration of :class:`RustMonitor` —
   every explored schedule checked against all invariant families, the
   per-vCPU consistency check, and the two-world noninterference
   re-run (expected all-green),
2. the same sweep over :class:`MissingLockMonitor` (expected: the
   lock-discipline checker convicts it),
3. the same sweep over :class:`NoShootdownMonitor` (expected: the
   stale-translation detector convicts it — and only off the root
   schedule, because the race needs a preemption),
4. the crash-in-critical-section campaign — a vCPU killed at every
   yield point taken while holding locks, with rollback, lock release,
   and invariants verified each time (expected all-green).

The artifact carries counts only, so it is a pure function of the
code: wall-clock time to verdict is perfbench's job.
"""

from repro.faults import (
    crash_in_critical_section_campaign,
    interleaving_campaign,
)
from repro.hyperenclave.buggy import MissingLockMonitor, NoShootdownMonitor
from repro.hyperenclave.constants import ARCH_CONFIGS


def convicted(result):
    return ", ".join(f"{len(items)} {kind}"
                     for kind, items in sorted(result.by_kind().items()))


def arch_sections(arch, config):
    """The four sweeps on one arch: rendered lines, after asserting
    each sweep's expected outcome."""
    rust = interleaving_campaign(check_ni=True, config=config)
    missing = interleaving_campaign(MissingLockMonitor, check_ni=False,
                                    config=config)
    noshoot = interleaving_campaign(NoShootdownMonitor, check_ni=False,
                                    config=config)
    crash = crash_in_critical_section_campaign(config=config)

    assert rust.ok, rust.summary()
    assert rust.preemption_bound >= 2 and not rust.truncated
    assert "lock-protocol" in missing.by_kind()
    assert "stale-translation" in noshoot.by_kind()
    assert all(v.schedule.preemptions
               for v in noshoot.by_kind()["stale-translation"])
    assert crash.ok, crash.render()

    first_stale = noshoot.by_kind()["stale-translation"][0]
    return [
        f"== {arch} ({config.name}) ==",
        "",
        f"RustMonitor: {rust.summary()}",
        "  checks per schedule: lock discipline, stale-translation "
        "probe at every decision,",
        "  all invariant families, per-vCPU consistency, two-world "
        "noninterference (41 vs 42)",
        "",
        f"MissingLockMonitor: {missing.summary()}",
        f"  convicted by: {convicted(missing)}",
        "",
        f"NoShootdownMonitor: {noshoot.summary()}",
        f"  convicted by: {convicted(noshoot)}",
        f"  first witness: {first_stale}",
        "",
        crash.render(),
    ]


def test_bench_interleaving_campaign(emit):
    sections = [
        "Bounded-preemption interleaving campaign "
        "(2 vCPUs, management core vs application core)",
    ]
    for arch, config in ARCH_CONFIGS.items():
        sections.append("")
        sections.extend(arch_sections(arch, config))
    emit("interleaving_campaign", "\n".join(sections))
