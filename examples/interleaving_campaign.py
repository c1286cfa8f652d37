#!/usr/bin/env python3
"""Multi-vCPU concurrency tour: explore interleavings, catch the races.

Walks the concurrency plane end to end:

1. run the two-vCPU workload (management core trims an enclave page
   while the application core races a session through it) on one
   deterministic schedule and show its decision trace,
2. sweep every interleaving up to two preemptions on the real monitor —
   lock discipline, stale-translation probe, invariant families,
   per-vCPU consistency, two-world noninterference: all green,
3. the same sweep convicts ``MissingLockMonitor`` (writes without its
   locks) and ``NoShootdownMonitor`` (trims without IPIs) — and every
   witness carries a ``(seed, schedule)`` that replays it standalone,
4. kill a vCPU at every yield point inside a critical section — the
   dying core's transaction rolls back, its locks release, the
   survivor finishes, invariants hold.

Run:  python examples/interleaving_campaign.py
"""

from repro.concurrency import Schedule
from repro.faults import (
    crash_in_critical_section_campaign,
    interleaving_campaign,
    make_interleaved_run,
)
from repro.hyperenclave.buggy import MissingLockMonitor, NoShootdownMonitor


def main():
    # ---- 1. one deterministic schedule, inspected ---------------------
    run_world = make_interleaved_run()
    _state, result = run_world(41, Schedule())
    kinds = {}
    for decision in result.decisions:
        kinds[decision.chosen_kind] = kinds.get(decision.chosen_kind, 0) + 1
    print(f"root schedule: {len(result.decisions)} scheduling decisions, "
          f"{len(result.yields)} yield points")
    print("  decision kinds: " + ", ".join(
        f"{kind} x{count}" for kind, count in sorted(kinds.items())))
    print(f"  yields taken while holding locks: "
          f"{len(result.critical_yields())}\n")

    # ---- 2. the full sweep on the real monitor ------------------------
    rust = interleaving_campaign(check_ni=True)
    print(f"RustMonitor sweep (invariants + vCPU consistency + "
          f"noninterference per schedule):\n  {rust.summary()}\n")
    assert rust.ok

    # ---- 3. the sweep convicts the planted races ----------------------
    missing = interleaving_campaign(MissingLockMonitor, check_ni=False)
    print(f"MissingLockMonitor: {missing.summary()}")
    assert "lock-protocol" in missing.by_kind()

    noshoot = interleaving_campaign(NoShootdownMonitor, check_ni=False)
    print(f"NoShootdownMonitor: {noshoot.summary()}")
    witness = noshoot.by_kind()["stale-translation"][0]
    print(f"  first witness: {witness}")

    # ...and the witness replays standalone from its schedule alone.
    buggy_world = make_interleaved_run(NoShootdownMonitor)
    _state, rerun = buggy_world(41, witness.schedule)
    assert rerun.stale_translations
    print("  replayed standalone from its (seed, schedule): "
          f"{len(rerun.stale_translations)} stale translations again\n")

    # ---- 4. crash a vCPU inside every critical section ----------------
    crash = crash_in_critical_section_campaign()
    print(crash.render())
    assert crash.ok
    print("\nevery mid-critical-section crash rolled back, released "
          "its locks, and left all invariants intact")


if __name__ == "__main__":
    main()
