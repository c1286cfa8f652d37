"""The benchmark's metric tables: names, units, direction, rationale.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` keeps the
two in step.  The per-layer rows say which end-to-end metric a change
to that layer should move, where the layer does most of its work, and
where it does almost none (the no-change control).
"""

#: (name, unit, better, bound, definition).  Host-adjusted times are
#: scaled to the reference host's speed (``host.host_factor``); bounds
#: are set by the run-to-run spread measured on a 2-vCPU VM whose speed
#: drifts between runs (see RATIONALE.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "host-adjusted median over fresh interpreters of start -> ready for "
     "the first timed verdict (imports, world prototypes or build_model; "
     "for service the serve start, /healthz and the pool's first "
     "campaign)"),
    ("verdict_s", "s", "lower", 0.25,
     "host-adjusted median wall time to one sample: one verdict on "
     "x86_64 plus one on vmsav8_64, back to back, where a verdict is a "
     "campaign (explore), the 13-row matrix (matrix) or the 49-function "
     "sweep (corpus); for service (x86_64 only) submit -> terminal "
     "status of one campaign"),
    ("peak_rss_mb", "MB", "lower", 0.25,
     "largest peak resident set of any process of the tree: set-up "
     "interpreters, generator, daemon and pool workers (the serving "
     "daemon's read after 20 verdicts)"),
)

#: Printed beside the end-to-end metrics but not in BENCHMARK.json: every
#: workload must report every listed metric, and a run of the arm
#: workloads holds too few verdicts for a tail with ten beyond it.
TAIL = ("verdict_tail_s", "s",
        "highest percentile of the run's verdict times with at least 10 "
        "verdicts beyond it; the slowest verdict when the run has fewer "
        "than 11")

#: (name, unit, better, should move, most work / ~0, definition)
PER_LAYER = (
    ("explorer.schedules", "count", "higher", "nothing (must stay equal)",
     "explore, matrix / corpus", "ExplorationResult.schedules_run"),
    ("explorer.decisions", "count", "higher", "nothing (must stay equal)",
     "explore, matrix / corpus", "decisions over ExplorationResult.runs"),
    ("explorer.self_s", "s", "lower", "verdict_s",
     "explore / corpus", "self time of explore()"),
    ("scheduler.run_s", "s", "lower", "verdict_s",
     "explore / corpus", "wall time in DeterministicScheduler.run"),
    ("scheduler.self_s", "s", "lower", "verdict_s",
     "explore / corpus", "self time of DeterministicScheduler.run"),
    ("scheduler.inline_decisions", "count", "higher", "verdict_s",
     "explore / corpus", "sched.inline_decisions"),
    ("arena.fiber_steps", "count", "lower", "verdict_s",
     "explore / corpus", "sched.fiber_steps"),
    ("arena.handoffs", "count", "lower", "verdict_s",
     "explore / corpus", "sched.handoffs"),
    ("arena.blocked_s", "s", "lower", "verdict_s",
     "explore / corpus", "wall time the loop is blocked in "
     "Fiber.start/Fiber.resume"),
    ("arena.handoff_s", "s", "lower", "verdict_s",
     "explore / corpus", "blocked time no traced layer on the fiber "
     "accounts for (handoff cost)"),
    ("proc.cpu_s", "s", "lower", "verdict_s",
     "service, explore / corpus", "CPU of the process tree per sample "
     "(untraced pass)"),
    ("proc.offcpu_s", "s", "lower", "verdict_s (waits only)",
     "service / explore", "sample wall - CPU per sample (untraced pass)"),
    ("shootdown.probe_s", "s", "lower", "verdict_s",
     "explore / corpus", "self time of detect_stale_translations"),
    ("shootdown.probes", "count", "lower", "verdict_s",
     "explore / corpus", "calls of detect_stale_translations"),
    ("monitor.hypercall_s", "s", "lower", "verdict_s",
     "explore, matrix / corpus", "self time of RustMonitor.hc_* and "
     "overrides, parked time excluded"),
    ("monitor.hypercalls", "count", "lower", "verdict_s",
     "explore, matrix / corpus", "outermost hc_* calls"),
    ("hardware.zero_frame_s", "s", "lower", "verdict_s, vmsav8_64 more",
     "explore, matrix / corpus", "self time of PhysMemory.zero_frame"),
    ("state.clone_s", "s", "lower", "verdict_s",
     "explore / corpus", "self time of SystemState.clone"),
    ("state.clones", "count", "lower", "verdict_s",
     "explore / corpus", "SystemState.clone calls"),
    ("world.build_s", "s", "lower", "verdict_s on matrix; setup_s",
     "matrix / explore", "build_interleaved_world, bug_matrix.build_world "
     "and setup_*"),
    ("invariants.check_s", "s", "lower", "verdict_s",
     "explore, matrix / corpus", "check_all_invariants, "
     "check_vcpu_consistency, CheckMemo check methods"),
    ("invariants.checks", "count", "lower", "verdict_s",
     "explore, matrix / corpus", "outermost invariant-layer calls"),
    ("memo.hit_rate", "ratio", "higher", "verdict_s",
     "explore, service / corpus", "CheckMemo.stats() hits / (hits + "
     "misses)"),
    ("noninterference.check_s", "s", "lower", "verdict_s",
     "explore, matrix / corpus", "self time of "
     "check_schedule_noninterference_prepared and "
     "check_theorem_noninterference"),
    ("fingerprint.s", "s", "lower", "verdict_s, vmsav8_64 more",
     "explore / corpus", "public functions of repro.engine.fingerprint"),
    ("faults.crash_step_s", "s", "lower", "verdict_s on matrix",
     "matrix / explore", "self time of crash_step_campaign"),
    ("model.build_s", "s", "lower", "setup_s",
     "corpus / explore", "self time of build_model in one traced set-up"),
    ("proofs.symbolic_s", "s", "lower", "verdict_s",
     "corpus / explore", "self time of verify_pure_function"),
    ("proofs.cosim_s", "s", "lower", "verdict_s",
     "corpus / explore", "self time of verify_stateful_function"),
    ("symbolic.execute_s", "s", "lower", "verdict_s",
     "corpus / explore", "self time of SymExecutor.run"),
    ("solver.check_sat_calls", "count", "lower", "verdict_s",
     "corpus / explore", "solver_stats()"),
    ("solver.memo_hit_rate", "ratio", "higher", "verdict_s",
     "corpus / explore", "solver memo hits / calls"),
    ("terms.intern_hit_rate", "ratio", "higher", "verdict_s",
     "corpus / explore", "intern_stats() hits / (hits + misses)"),
    ("client.request_s", "s", "lower", "verdict_s, verdict_tail_s",
     "service / explore", "self time of ServiceClient HTTP round trips"),
    ("client.requests", "count", "lower", "verdict_s, verdict_tail_s",
     "service / explore", "service.client_requests"),
    ("client.retries", "count", "lower", "verdict_s, verdict_tail_s",
     "service / explore", "service.client_retries"),
    ("service.checkpoint_s", "s", "lower", "verdict_s, verdict_tail_s",
     "service / explore", "/metrics service.checkpoint_seconds total"),
    ("service.checkpoints", "count", "lower", "verdict_s, verdict_tail_s",
     "service / explore", "/metrics service.checkpoints"),
    ("service.units_executed", "count", "higher", "nothing (must stay "
     "equal)", "service / explore", "/metrics service.units_executed"),
    ("service.units_stolen", "count", "higher", "verdict_tail_s",
     "service / explore", "/metrics service.units_stolen"),
    ("service.resumes", "count", "higher", "nothing (must stay equal)",
     "service / explore", "/metrics service.resumes"),
    ("service.bundles_cut", "count", "higher", "nothing (must stay equal)",
     "service / explore", "/metrics service.bundles_cut"),
    ("service.memo_persisted", "count", "lower", "verdict_s",
     "service / explore", "/metrics service.memo_persisted"),
    ("daemon.idle_s", "s", "lower", "verdict_s (waits only)",
     "service / explore", "daemon scheduler thread waiting for work"),
    ("daemon.http_s", "s", "lower", "verdict_s, verdict_tail_s",
     "service / explore", "self time of CheckingDaemon.handle on the HTTP "
     "threads (competes with the scheduler thread for the GIL)"),
    ("executor.map_s", "s", "lower", "verdict_tail_s",
     "service / explore", "self time of ResilientExecutor.map"),
    ("frontier.absorb_s", "s", "lower", "verdict_tail_s",
     "service / explore", "self time of FrontierState.absorb"),
    ("snapshot.hit_rate", "ratio", "higher", "verdict_s",
     "service / explore (off in sequential runs)",
     "snapshot_cache hits / (hits + misses)"),
    ("snapshot.steps_saved", "count", "higher", "verdict_s",
     "service / explore", "snapshot_cache.steps_saved"),
    ("snapshot.bytes_resident", "bytes", "lower", "peak_rss_mb",
     "service / explore", "snapshot_cache.bytes_resident gauge"),
    ("gc.pause_s", "s", "lower", "verdict_s",
     "explore / corpus", "gc.callbacks pauses inside verdicts"),
    ("gc.collections", "count", "lower", "verdict_s",
     "explore / corpus", "gc.callbacks collections inside verdicts"),
    ("unattributed_s", "s", "lower", "-", "all",
     "traced verdict wall - self time of every layer - gc pauses (service: "
     "the daemon scheduler thread's wall not in a layer)"),
    ("tracing.overhead_ratio", "ratio", "lower", "-", "all",
     "host-adjusted median traced verdict / untraced verdict, same "
     "inputs"),
    ("traced.verdicts", "count", "higher", "-", "all",
     "samples replayed under tracing (per-layer values are per sample: "
     "one verdict per arch, one campaign on service)"),
)

UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER + (TAIL,)}
