#!/usr/bin/env python3
"""Fault-injection tour: crash a hypercall at every step, watch it roll back.

Walks the robustness plane end to end:

1. arm a single fault by hand and observe the transactional rollback,
2. sweep every fault site × every step index of every hypercall
   (the crash-step campaign) on the real monitor — all green,
3. run the identical campaign on the deliberately non-transactional
   monitor — caught,
4. flip bits in untrusted memory — no invariant cares,
5. crash the same step in two secret-differing worlds — still
   indistinguishable (crash-step noninterference).

Run:  python examples/fault_campaign.py
"""

from repro.errors import HypercallAborted
from repro.faults import (
    EXHAUST,
    FaultPlane,
    bitflip_campaign,
    crash_ni_campaign,
    crash_step_campaign,
    default_workload,
    default_world_factory,
    installed,
)
from repro.hyperenclave.buggy import NonTransactionalMonitor
from repro.hyperenclave.txn import monitor_digest


def main():
    factory = default_world_factory()
    calls = default_workload()

    # ---- 1. one fault, by hand ----------------------------------------
    monitor, ctx = factory()
    calls[0][1](monitor, ctx)            # hc_create
    digest = monitor_digest(monitor)
    plane = FaultPlane(seed=0).arm("frames.alloc", index=1, kind=EXHAUST)
    with installed(plane):
        try:
            monitor.hc_add_page(ctx["eid"], ctx["elrange_base"],
                                ctx["src_pa"])
        except HypercallAborted as exc:
            print(f"aborted: {exc}")
    assert monitor_digest(monitor) == digest
    print("state digest unchanged — the partial add_page was rolled "
          "back\n")

    # ---- 2. the full crash-step sweep ---------------------------------
    report = crash_step_campaign(factory, calls, seed=0)
    print(report.render())
    assert report.ok

    # ---- 3. the same sweep catches the non-transactional monitor -----
    caught = crash_step_campaign(
        default_world_factory(monitor_cls=NonTransactionalMonitor), calls,
        seed=0)
    print(f"\nNonTransactionalMonitor: {len(caught.failures())} of "
          f"{len(caught.runs)} faulted runs caught (rollback or "
          f"invariant violations)")
    assert not caught.ok

    # ---- 4. untrusted bit flips ---------------------------------------
    flips = bitflip_campaign(factory, calls[:5], flips=32, seed=0)
    print(f"\nbit flips in untrusted memory: "
          f"{flips.invariant_sweeps_passed}/{len(flips.runs)} invariant "
          f"sweeps green")
    assert flips.ok

    # ---- 5. crash-step noninterference --------------------------------
    ni = crash_ni_campaign(seed=0)
    print(f"crash-step noninterference: {len(ni.runs)} symmetric "
          f"faulted runs, {len(ni.failures())} distinguishing — "
          f"{'OK' if ni.ok else 'VIOLATION'}")
    assert ni.ok


if __name__ == "__main__":
    main()
