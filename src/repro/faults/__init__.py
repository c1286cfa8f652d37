"""Fault injection: deterministic fault plane + campaign drivers.

The robustness counterpart of the invariant checkers: instead of asking
"does every *successful* hypercall preserve the Sec. 5.2 invariants?",
this package asks "does every *failed* one?".  A seed-driven
:class:`FaultPlane` fires named injection sites threaded through
:mod:`repro.hyperenclave` (allocator exhaustion, physical-memory write
faults, bit flips, abort-at-step-k crashes inside each hypercall), and
the campaign drivers sweep every site × every step index of every
hypercall, asserting that the transactional monitor rolls back to
exactly its pre-hypercall state with all invariant families intact.
"""

from repro.faults.plane import (
    EXHAUST,
    FLIP,
    RAISE,
    SITE_EPCM_ALLOC,
    SITE_FRAME_ALLOC,
    SITE_PHYS_FLIP,
    SITE_PHYS_WRITE,
    FaultPlane,
    FiredFault,
    active_plane,
    allocation_gate,
    crash_point,
    filter_write,
    installed,
    suspended,
)
from repro.faults.campaign import (
    DEFAULT_SITES,
    CampaignReport,
    CrashCampaignReport,
    CrashRecord,
    RunRecord,
    bitflip_campaign,
    build_interleaved_world,
    crash_in_critical_section_campaign,
    crash_ni_campaign,
    crash_point_record,
    crash_step_campaign,
    crash_step_units,
    default_ni_trace,
    default_two_worlds,
    default_workload,
    default_world_factory,
    enumerate_injectable_steps,
    execute_interleaved,
    hypercall_site,
    interleaving_campaign,
    make_interleaved_run,
    run_crash_ni_index,
    run_crash_step_unit,
    scheduled_runner,
)

__all__ = [
    "EXHAUST",
    "FLIP",
    "RAISE",
    "SITE_EPCM_ALLOC",
    "SITE_FRAME_ALLOC",
    "SITE_PHYS_FLIP",
    "SITE_PHYS_WRITE",
    "FaultPlane",
    "FiredFault",
    "active_plane",
    "allocation_gate",
    "crash_point",
    "filter_write",
    "installed",
    "suspended",
    "DEFAULT_SITES",
    "CampaignReport",
    "CrashCampaignReport",
    "CrashRecord",
    "RunRecord",
    "bitflip_campaign",
    "build_interleaved_world",
    "crash_in_critical_section_campaign",
    "crash_ni_campaign",
    "crash_point_record",
    "crash_step_campaign",
    "crash_step_units",
    "default_ni_trace",
    "default_two_worlds",
    "default_workload",
    "default_world_factory",
    "enumerate_injectable_steps",
    "execute_interleaved",
    "hypercall_site",
    "interleaving_campaign",
    "make_interleaved_run",
    "run_crash_ni_index",
    "run_crash_step_unit",
    "scheduled_runner",
]
