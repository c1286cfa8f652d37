"""``python -m repro`` — run the whole reproduction and print a report.

Sections: corpus verification (the code proofs), the live-system
invariant sweep, the adversary campaign, a two-world noninterference
check, and the Sec. 6 effort accounting.  Exits non-zero if anything
fails, so it doubles as a smoke gate.

``python -m repro replay <bundle.json>`` instead replays a
counterexample provenance bundle (see :mod:`repro.obs.provenance`)
and exits zero iff the recorded violation reproduces.

``python -m repro campaign --store DIR`` runs a durable interleaving
campaign (crash-safe checkpoints + cross-run memo store, see
:mod:`repro.service`), and ``python -m repro resume DIR`` continues an
interrupted one.  Both exit 0 on a clean sweep, 1 when violations were
found, 2 on a store/usage error — and 130 on Ctrl-C, *after* flushing
a resumable checkpoint.

``python -m repro serve --root DIR`` runs the checking-as-a-service
daemon (:mod:`repro.service.daemon`); ``submit`` and ``status`` are
the matching client verbs (:mod:`repro.service.client`).  ``serve``
exits 0 after a SIGTERM graceful drain, 130 after Ctrl-C — both with
every campaign checkpoint flushed.
"""

import argparse
import sys
import time

from repro.analysis import proof_effort_summary
from repro.hyperenclave.constants import TINY
from repro.hyperenclave.mir_model import build_model
from repro.hyperenclave.monitor import HOST_ID, RustMonitor
from repro.reporting import fig1_architecture, render_table
from repro.security import (
    DataOracle, Hypercall, MemLoad, SystemState, check_all_invariants,
)
from repro.security.attacks import run_standard_attack_suite
from repro.security.noninterference import (
    TwoWorlds, check_theorem_noninterference,
)
from repro.verification import verify_corpus

PAGE = TINY.page_size


def build_world(secret):
    """One initialized enclave world for the report run."""
    monitor = RustMonitor(TINY)
    primary_os = monitor.primary_os
    app = primary_os.spawn_app(1)
    src = TINY.frame_base(primary_os.reserve_data_frame())
    mbuf = TINY.frame_base(primary_os.reserve_data_frame())
    primary_os.gpa_write_word(src, secret)
    eid = monitor.hc_create(16 * PAGE, PAGE, 12 * PAGE, mbuf, PAGE)
    monitor.hc_add_page(eid, 16 * PAGE, src)
    primary_os.gpa_write_word(src, 0)
    monitor.hc_init(eid)
    primary_os.gpt_map(app.gpt_root_gpa, 12 * PAGE, mbuf)
    return monitor, app, eid


def replay_main(argv):
    """``python -m repro replay <bundle.json>`` — replay a provenance
    bundle and report whether the recorded violation reproduces."""
    from repro.obs.provenance import ProvenanceBundle, replay_bundle

    if len(argv) != 1:
        print("usage: python -m repro replay <bundle.json>",
              file=sys.stderr)
        return 2
    try:
        bundle = ProvenanceBundle.load(argv[0])
    except (OSError, ValueError) as exc:
        print(f"cannot load bundle {argv[0]}: {exc}", file=sys.stderr)
        return 2
    print(f"replaying {bundle.kind} bundle (seed {bundle.seed}, "
          f"schema v{bundle.version}) from {argv[0]}")
    outcome = replay_bundle(bundle)
    print(outcome.summary())
    if not outcome.matched:
        from repro.errors import ReplayDivergence
        divergence = ReplayDivergence(bundle.kind, outcome.expected,
                                      outcome.found)
        print(f"error: {divergence}", file=sys.stderr)
        return 1
    return 0


#: Exit code for an interrupted-but-checkpointed campaign (the shell
#: convention for SIGINT: 128 + 2).
EXIT_INTERRUPTED = 130


def _workers(parser, count):
    """The pool's worker count, resolved once here: ``--workers``, else
    ``REPRO_CHECK_WORKERS``, else the cpu count.  A count below 1 or a
    variable that is not a positive integer is a usage error (exit 2)
    carrying the :class:`~repro.errors.ConfigError` message that names
    the flag or the variable — never a silent clamp, and never a
    traceback from inside the pool."""
    from repro.engine.executor import resolve_workers
    from repro.errors import ConfigError

    try:
        return resolve_workers(count)
    except ConfigError as exc:
        parser.error(str(exc))


def _campaign_verdict(store_dir, result) -> int:
    """Print a durable campaign's outcome; 0 clean, 1 violations."""
    print(result.summary())
    print(f"store: {store_dir} (resume with "
          f"'python -m repro resume {store_dir}')")
    return 0 if result.ok else 1


def campaign_main(argv):
    """``python -m repro campaign`` — run a durable interleaving
    campaign with crash-safe checkpoints in ``--store``."""
    from repro.service import (CampaignSpec, CampaignStore,
                               run_durable_campaign)

    parser = argparse.ArgumentParser(
        prog="python -m repro campaign",
        description="durable interleaving campaign (checkpointed, "
                    "resumable, warm-memoised)")
    parser.add_argument("--store", required=True,
                        help="campaign store directory (checkpoint + "
                             "memo log)")
    parser.add_argument("--preemption-bound", type=int, default=2)
    parser.add_argument("--max-schedules", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--monitor", default=None,
                        help="monitor class as module:qualname "
                             "(default RustMonitor)")
    parser.add_argument("--no-ni", action="store_true",
                        help="skip the per-schedule noninterference "
                             "re-run")
    parser.add_argument("--workers", type=int, default=None)
    options = parser.parse_args(argv)
    workers = _workers(parser, options.workers)
    spec = CampaignSpec(monitor=options.monitor, seed=options.seed,
                        preemption_bound=options.preemption_bound,
                        max_schedules=options.max_schedules,
                        check_ni=not options.no_ni)
    try:
        with CampaignStore(options.store) as store:
            result = run_durable_campaign(spec, store, workers=workers)
    except KeyboardInterrupt:
        print(f"\ninterrupted — checkpoint flushed to {options.store}; "
              f"resume with 'python -m repro resume {options.store}'",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    return _campaign_verdict(options.store, result)


def resume_main(argv):
    """``python -m repro resume <store>`` — continue an interrupted
    durable campaign from its checkpoint."""
    from repro.errors import CorruptArtifact
    from repro.service import CampaignStore, resume_campaign

    parser = argparse.ArgumentParser(
        prog="python -m repro resume",
        description="resume a durable campaign from its store")
    parser.add_argument("store", help="campaign store directory")
    parser.add_argument("--workers", type=int, default=None)
    options = parser.parse_args(argv)
    workers = _workers(parser, options.workers)
    try:
        with CampaignStore(options.store) as store:
            result = resume_campaign(store, workers=workers)
    except FileNotFoundError as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    except CorruptArtifact as exc:
        print(f"cannot resume: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"\ninterrupted — checkpoint flushed to {options.store}; "
              f"resume again with 'python -m repro resume "
              f"{options.store}'", file=sys.stderr)
        return EXIT_INTERRUPTED
    return _campaign_verdict(options.store, result)


def serve_main(argv):
    """``python -m repro serve`` — run the checking-as-a-service
    daemon until SIGTERM (exit 0) or Ctrl-C (exit 130), draining
    gracefully either way."""
    from repro.service.daemon import CheckingDaemon, serve_forever

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="checking-as-a-service daemon: HTTP/JSON front "
                    "over a shared resilient worker pool")
    parser.add_argument("--root", required=True,
                        help="service store root (one campaign store "
                             "per subdirectory; incomplete campaigns "
                             "found here auto-resume)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8731,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--max-active", type=int, default=4,
                        help="campaigns scheduled concurrently")
    parser.add_argument("--max-queued", type=int, default=16,
                        help="admission queue bound (past it, "
                             "submissions get 429 backpressure)")
    parser.add_argument("--round-capacity", type=int, default=None,
                        help="units per fair-share scheduling round")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        help="per-shard wall-clock cap (stuck units "
                             "are quarantined, not waited on forever)")
    parser.add_argument("--wall-budget", type=float, default=None,
                        help="default per-campaign wall-clock budget")
    parser.add_argument("--wave-budget", type=int, default=None,
                        help="default per-campaign wave budget")
    options = parser.parse_args(argv)
    daemon = CheckingDaemon(
        options.root, host=options.host, port=options.port,
        workers=_workers(parser, options.workers),
        max_active=options.max_active,
        max_queued=options.max_queued,
        round_capacity=options.round_capacity,
        shard_timeout=options.shard_timeout,
        default_wall_budget=options.wall_budget,
        default_wave_budget=options.wave_budget)
    return serve_forever(daemon)


def _print_json(payload):
    import json
    print(json.dumps(payload, indent=2, sort_keys=True))


def submit_main(argv):
    """``python -m repro submit`` — send a campaign to a running
    daemon; with ``--wait``, poll to the verdict (exit 0 clean, 1
    violations)."""
    from repro.errors import (AdmissionRefused, DeadlineExceeded,
                              ServiceError)
    from repro.service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="python -m repro submit",
        description="submit a campaign to a checking-service daemon")
    parser.add_argument("--url", required=True,
                        help="daemon base URL, e.g. "
                             "http://127.0.0.1:8731")
    parser.add_argument("--id", default=None,
                        help="campaign id (makes resubmission "
                             "idempotent; default: server-assigned)")
    parser.add_argument("--preemption-bound", type=int, default=2)
    parser.add_argument("--max-schedules", type=int, default=600)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--monitor", default=None)
    parser.add_argument("--no-ni", action="store_true")
    parser.add_argument("--wall-budget", type=float, default=None)
    parser.add_argument("--wave-budget", type=int, default=None)
    parser.add_argument("--wait", action="store_true",
                        help="block until the campaign finishes")
    parser.add_argument("--deadline", type=float, default=None,
                        help="give up (exit 2) after this many seconds")
    options = parser.parse_args(argv)
    payload = {"seed": options.seed,
               "preemption_bound": options.preemption_bound,
               "max_schedules": options.max_schedules,
               "check_ni": not options.no_ni}
    if options.monitor is not None:
        payload["monitor"] = options.monitor
    for key, value in (("id", options.id),
                       ("wall_budget", options.wall_budget),
                       ("wave_budget", options.wave_budget)):
        if value is not None:
            payload[key] = value
    client = ServiceClient(options.url)
    try:
        reply = client.submit(payload, deadline=options.deadline)
        if not options.wait:
            _print_json(reply)
            return 0
        status = client.wait(reply["id"], deadline=options.deadline)
        _print_json(status)
        return 0 if status.get("ok") else 1
    except AdmissionRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (DeadlineExceeded, ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def status_main(argv):
    """``python -m repro status`` — query a daemon: service health,
    the campaign list, or one campaign (optionally its artifacts)."""
    from repro.errors import CampaignNotFound, ServiceError
    from repro.service.client import ServiceClient

    parser = argparse.ArgumentParser(
        prog="python -m repro status",
        description="query a checking-service daemon")
    parser.add_argument("--url", required=True)
    parser.add_argument("campaign", nargs="?", default=None,
                        help="campaign id (default: list them all)")
    parser.add_argument("--artifacts", action="store_true",
                        help="also fetch the campaign's provenance "
                             "bundles")
    parser.add_argument("--health", action="store_true",
                        help="print /healthz instead")
    options = parser.parse_args(argv)
    client = ServiceClient(options.url)
    try:
        if options.health:
            _print_json(client.healthz())
        elif options.campaign is None:
            _print_json(client.list_campaigns())
        else:
            _print_json(client.status(options.campaign))
            if options.artifacts:
                _print_json(client.artifacts(options.campaign))
        return 0
    except CampaignNotFound as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ServiceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    """Run every check and print the consolidated report.

    ``argv`` (default ``sys.argv[1:]``) may select the ``replay``,
    ``campaign``, ``resume``, ``serve``, ``submit``, or ``status``
    subcommand; with no arguments the full report runs.
    """
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "replay":
        return replay_main(argv[1:])
    if argv and argv[0] == "campaign":
        return campaign_main(argv[1:])
    if argv and argv[0] == "resume":
        return resume_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        return submit_main(argv[1:])
    if argv and argv[0] == "status":
        return status_main(argv[1:])

    failures = []
    started = time.perf_counter()

    print("repro — MIRVerif / HyperEnclave reproduction "
          "(ASPLOS 2024)\n")

    # 1. Code proofs over the mirlight corpus.
    model = build_model(TINY)
    report = verify_corpus(model, cosim_samples=12)
    checks = sum(v.checked for v in report.verdicts)
    status = "OK" if report.ok else "FAILED"
    print(f"[{status}] code proofs: {len(report.verdicts)} functions in "
          f"{len(model.stack)} layers, {checks} checks")
    if not report.ok:
        failures.append("code proofs")
        for verdict in report.verdicts:
            if not verdict.ok:
                print(f"    {verdict}")

    # 2. Live-system invariants + architecture figure.
    monitor, app, eid = build_world(secret=0x41)
    invariants = check_all_invariants(monitor)
    print(f"[{'OK' if invariants.ok else 'FAILED'}] Sec. 5.2 invariants "
          f"on the live system")
    if not invariants.ok:
        failures.append("invariants")
        print(str(invariants))

    # 3. The adversary campaign.
    outcomes = run_standard_attack_suite(monitor, app, eid, seed=1)
    contained = all(o.contained for o in outcomes.values())
    blocked = sum(o.blocked for o in outcomes.values())
    attempts = sum(o.attempts for o in outcomes.values())
    print(f"[{'OK' if contained else 'FAILED'}] Sec. 2.2 adversary: "
          f"{blocked}/{attempts} hostile actions blocked, "
          f"rest validated")
    if not contained:
        failures.append("attack containment")

    # 4. Noninterference over a secret-touching trace.
    world_a = SystemState(build_world(41)[0],
                          oracle=DataOracle.seeded(2))
    world_b = SystemState(build_world(42)[0],
                          oracle=DataOracle.seeded(2))
    worlds = TwoWorlds(world_a, world_b)
    trace = [
        Hypercall(HOST_ID, "enter", (eid,)),
        (MemLoad(eid, 16 * PAGE, "rax"), MemLoad(eid, 16 * PAGE, "rax")),
        (Hypercall(eid, "exit", (eid,)), Hypercall(eid, "exit", (eid,))),
        MemLoad(HOST_ID, 0x200, "rbx"),
    ]
    violations = check_theorem_noninterference(worlds, trace,
                                               observers=[HOST_ID])
    print(f"[{'OK' if not violations else 'FAILED'}] Theorem 5.1 "
          f"(41-vs-42 worlds): {len(violations)} violations")
    if violations:
        failures.append("noninterference")

    # 5. Effort accounting.
    summary = proof_effort_summary(model)
    print()
    print(render_table(
        ["quantity", "paper", "this repro"],
        [["verified functions", 49, summary.corpus_functions],
         ["layers", 15, summary.corpus_layers],
         ["checker lines / MIR line", 1.25,
          round(summary.checker_per_mir_line, 2)],
         ["SeKVM baseline", 2.16, "—"]],
        title="Sec. 6 — effort"))

    print()
    print(fig1_architecture(monitor))

    elapsed = time.perf_counter() - started
    print(f"\ncompleted in {elapsed:.2f}s — "
          f"{'ALL GREEN' if not failures else 'FAILURES: ' + ', '.join(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
