"""The load generator: one fresh interpreter per set-up sample or run.

Started by ``run.py`` pinned to the generator CPU, with ``PYTHONPATH``
pointing at the checkout's ``src``::

    python3 perfbench/gen.py --workload explore --seed 1 \\
        --seconds 10 --trace 0 --out result.json [--setup-only] \\
        [--url http://127.0.0.1:PORT --daemon-pid PID]

It prints ``READY`` once the workload can take its first timed verdict
(the orchestrator times set-up from process start to that line) and a
``CALIBRATION`` line with the host's speed right after, runs one
untimed warm-up sample, then runs samples (one verdict per arch) until
``--seconds`` have passed and writes the per-verdict records as JSON to
``--out``.  With ``--trace 1`` the first half of the time is an
untraced pass and the second replays the same inputs with
:mod:`tracer` installed.
"""

import argparse
import gc
import json
import os
import random
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import host  # noqa: E402
import workloads  # noqa: E402

perf_counter = time.perf_counter

#: ``ServiceClient.wait`` poll interval, well under its 0.1 s default so
#: submit -> verdict latencies are not rounded to 100 ms steps.
POLL_S = 0.02

#: Loops of the daemon-CPU speed probe taken between service cycles
#: (the fastest counts; five left the run's factor too noisy).
SERVICE_PROBE_LOOPS = 10

#: Per-verdict ceiling on one service wait; a campaign past it is a
#: failed verdict, not a hung run.
SERVICE_DEADLINE_S = 60.0

#: Registry counters read around the traced pass (``sched.*`` and
#: ``snapshot_cache.*`` are the program's own exports).
COUNTERS = ("sched.fiber_steps", "sched.handoffs", "sched.inline_decisions",
            "snapshot_cache.hits", "snapshot_cache.misses",
            "snapshot_cache.steps_saved", "service.client_requests",
            "service.client_retries")
SERVICE_COUNTERS = ("service.checkpoints", "service.units_executed",
                    "service.units_stolen", "service.resumes",
                    "service.bundles_cut", "service.memo_persisted")


# -- sequential workloads ----------------------------------------------------

def timed_verdict(workload, item, tracer=None, verdict_id=None,
                  prepared=False, sample=0):
    """Run one verdict of a sample on ``workload``'s arch; returns its
    record."""
    if not prepared:
        gc.collect()
        workload.prepare(item)
    calibration = host.speed_probe()
    cpu0 = host.own_cpu()
    start = perf_counter()
    span = None
    if tracer is not None:
        tracer.verdict = verdict_id
        span = tracer.enter("verdict", workload.family)
    try:
        answer, errors = workload.verdict(item), None
    except Exception as exc:            # a raising verdict is a failed one
        answer, errors = None, [f"{type(exc).__name__}: {exc}"]
    finally:
        if span is not None:
            tracer.exit(span)
            tracer.verdict = None
    wall = perf_counter() - start
    cpu = host.own_cpu() - cpu0
    if errors is None:
        errors = workload.check(item, answer)
    return {"arch": workload.arch, "sample": sample, "input": item,
            "wall": wall, "cpu": cpu, "calibration": calibration,
            "answer": answer, "errors": errors}


def run_sample(parts, items, sample):
    """One verdict per part (arch), back to back."""
    return [timed_verdict(part, item, sample=sample)
            for part, item in zip(parts, items)]


def sequential_pass(parts, samples, seconds):
    records = []
    deadline = perf_counter() + seconds
    for sample, items in enumerate(samples):
        if records and perf_counter() >= deadline:
            break
        records.extend(run_sample(parts, items, sample))
    return records


# -- service workload --------------------------------------------------------

def service_verdict(client, spec):
    """Submit one spec and wait for its verdict (resubmitting once if it
    carries a wave budget); returns the answer dict."""
    payload = {"id": spec["id"], "seed": spec["seed"],
               "preemption_bound": spec["bound"], "max_schedules": 600,
               "check_ni": True}
    if spec["monitor"] is not None:
        payload["monitor"] = spec["monitor"]
    first_leg = None
    if spec["wave_budget"] is not None:
        client.submit(dict(payload, wave_budget=spec["wave_budget"]))
        status = client.wait(spec["id"], poll=POLL_S,
                             deadline=SERVICE_DEADLINE_S)
        first_leg = {"status": status.get("status"),
                     "error": status.get("error")}
    client.submit(payload)
    status = client.wait(spec["id"], poll=POLL_S,
                         deadline=SERVICE_DEADLINE_S)
    return {"status": status.get("status"), "ok": status.get("ok"),
            "schedules_run": status.get("schedules_run"),
            "violations": status.get("violations"),
            "result_digest": status.get("result_digest"),
            "error": status.get("error"), "first_leg": first_leg}


def service_pass(workload, cycles, url, seconds, clients, replay=False,
                 daemon_pid=None, probe_cpus=None, warmup=0, on_start=None):
    """Closed loop: each client submits, waits, then takes the next spec.

    ``cycles`` yields whole cycles of the mix (lists of specs).  The
    clients run one cycle at a time and meet when it is done, so every
    run holds whole cycles and the daemon is idle between them.  The
    first ``warmup`` cycles fill the daemon's caches; then the peak
    resident set of the generator and the ``daemon_pid`` tree is read
    (the daemon keeps every campaign's frontier, so its memory grows
    with the cycles a run completes), ``on_start`` is called and the
    timed window of ``seconds`` opens: a timed pass starts no cycle
    after it, a ``replay`` runs every cycle.  After each cycle the speed
    of each CPU set in ``probe_cpus`` is probed.  Returns the
    records (each with its ``cycle``) and a dict with the ``peak``, the
    ``probes`` and the CPU the probes in the timed window took
    (``probe_cpu_s``).
    """
    from repro.service.client import ServiceClient

    lock = threading.Lock()
    records = []
    info = {"peak": None, "probes": [], "probe_cpu_s": 0.0}
    failures = []
    state = {"queue": [], "cycle": -1, "deadline": None}

    def between_cycles():
        # runs in one client while every client is idle
        done = state["cycle"]
        try:
            if done >= 0 and probe_cpus:
                cpu0 = host.own_cpu()
                info["probes"].extend(
                    host.speed_probe_on(cpus, SERVICE_PROBE_LOOPS)
                    for cpus in probe_cpus)
                if done >= warmup:
                    info["probe_cpu_s"] += host.own_cpu() - cpu0
            if done == warmup - 1:
                if daemon_pid:
                    info["peak"] = max(host.self_peak_mb(),
                                       host.tree_peak_rss_mb(daemon_pid))
                if on_start is not None:
                    on_start()
                state["deadline"] = perf_counter() + seconds
            cycle = None
            if replay or done < warmup \
                    or perf_counter() < state["deadline"]:
                cycle = next(cycles, None)
            state["queue"] = None if cycle is None else list(cycle)
            state["cycle"] = done + 1
        except Exception as exc:        # ends the pass; reported below
            failures.append(f"{type(exc).__name__}: {exc}")
            state["queue"] = None

    barrier = threading.Barrier(clients, action=between_cycles)

    def client_main():
        try:
            client_loop()
        except Exception as exc:        # ends the pass; reported below
            failures.append(f"{type(exc).__name__}: {exc}")
            barrier.abort()             # so no other client waits for it

    def client_loop():
        client = ServiceClient(url)
        while True:
            with lock:
                queue = state["queue"]
                spec = queue.pop(0) if queue else None
                cycle = state["cycle"]
            if spec is None:
                if queue is None:
                    return
                barrier.wait()
                continue
            start = perf_counter()
            try:
                answer, errors = service_verdict(client, spec), None
            except Exception as exc:    # refused, timed out, 5xx
                answer, errors = None, [f"{type(exc).__name__}: {exc}"]
            wall = perf_counter() - start
            with lock:
                if errors is None:
                    errors = workload.check(spec, answer)
                records.append({"arch": workload.arch, "cycle": cycle,
                                "input": spec, "wall": wall, "cpu": 0.0,
                                "calibration": None, "answer": answer,
                                "errors": errors})

    threads = [threading.Thread(target=client_main, name=f"client-{n}")
               for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + (4 + warmup) * SERVICE_DEADLINE_S)
        if thread.is_alive():
            raise RuntimeError("a service client did not finish")
    if failures:
        raise RuntimeError("service pass failed: " + failures[0])
    records.sort(key=lambda record: record["input"]["id"])
    for sample, record in enumerate(records):
        record["sample"] = sample
    return records, info


def fetch_metrics(url):
    import urllib.request
    with urllib.request.urlopen(url + "/metrics", timeout=30) as resp:
        return json.loads(resp.read().decode())


# -- traced pass: per-layer metrics -------------------------------------------

def counter_snapshot():
    from repro.engine.workers import MEMO
    from repro.obs.metrics import REGISTRY
    from repro.symbolic.solver import solver_stats
    from repro.symbolic.terms import intern_stats
    snap = REGISTRY.snapshot()
    values = {name: snap["counters"].get(name, 0) for name in COUNTERS}
    for name, value in solver_stats().items():
        values["solver." + name] = value
    for name, value in intern_stats().items():
        values["terms." + name] = value
    for name, counts in MEMO.stats().items():
        values[f"workermemo.{name}.hits"] = counts["hits"]
        values[f"workermemo.{name}.misses"] = counts["misses"]
    return values


def add_delta(total, before, after):
    for name, value in after.items():
        total[name] = total.get(name, 0) + value - before.get(name, 0)


def share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, records, counters, service_info):
    """The per-layer metrics (per sample) of one traced pass."""
    count = len({record["sample"] for record in records}) or 1
    verdict_ids = set(range(len(records))) | {"service"}
    totals = tracer.layer_totals(verdict_ids)

    def self_s(layer):
        return totals.get(layer, [0.0, 0, 0.0])[0] / count

    def calls(layer):
        return totals.get(layer, [0.0, 0, 0.0])[1] / count

    def inclusive(layer):
        return totals.get(layer, [0.0, 0, 0.0])[2] / count

    memo_hits = memo_misses = 0
    for memo in tracer.memos:
        for counts in memo.stats().values():
            memo_hits += counts["hits"]
            memo_misses += counts["misses"]
    for name, value in counters.items():
        if name.startswith("workermemo."):
            if name.endswith(".hits"):
                memo_hits += value
            else:
                memo_misses += value
    explored = tracer.explored
    metrics = {
        "explorer.schedules": sum(s for s, _d in explored) / count,
        "explorer.decisions": sum(d for _s, d in explored) / count,
        "explorer.self_s": self_s("explorer"),
        "scheduler.run_s": inclusive("scheduler"),
        "scheduler.self_s": self_s("scheduler"),
        "scheduler.inline_decisions":
            counters.get("sched.inline_decisions", 0) / count,
        "arena.fiber_steps": counters.get("sched.fiber_steps", 0) / count,
        "arena.handoffs": counters.get("sched.handoffs", 0) / count,
        "arena.blocked_s": inclusive("arena"),
        "arena.handoff_s": self_s("arena"),
        "shootdown.probe_s": self_s("shootdown"),
        "shootdown.probes": calls("shootdown"),
        "monitor.hypercall_s": self_s("monitor"),
        "monitor.hypercalls": calls("monitor"),
        "hardware.zero_frame_s": self_s("hardware"),
        "state.clone_s": self_s("state"),
        "state.clones": calls("state"),
        "world.build_s": self_s("world"),
        "invariants.check_s": self_s("invariants"),
        "invariants.checks": calls("invariants"),
        "memo.hit_rate": share(memo_hits, memo_hits + memo_misses),
        "noninterference.check_s": self_s("noninterference"),
        "fingerprint.s": self_s("fingerprint"),
        "faults.crash_step_s": self_s("faults"),
        # build_model runs at set-up, which the traced run repeats once
        "model.build_s": tracer.layer_totals({"setup"}).get(
            "model", [0.0])[0],
        "proofs.symbolic_s": self_s("proofs.symbolic"),
        "proofs.cosim_s": self_s("proofs.cosim"),
        "symbolic.execute_s": self_s("symbolic"),
        "solver.check_sat_calls":
            counters.get("solver.check_sat_calls", 0) / count,
        "solver.memo_hit_rate": share(
            counters.get("solver.check_sat_memo_hits", 0)
            + counters.get("solver.must_hold_memo_hits", 0),
            counters.get("solver.check_sat_calls", 0)
            + counters.get("solver.must_hold_calls", 0)),
        "terms.intern_hit_rate": share(
            counters.get("terms.intern_hits", 0),
            counters.get("terms.intern_hits", 0)
            + counters.get("terms.intern_misses", 0)),
        "client.request_s": self_s("client"),
        "client.requests":
            counters.get("service.client_requests", 0) / count,
        "client.retries": counters.get("service.client_retries", 0) / count,
        "daemon.http_s": self_s("http"),
        "executor.map_s": self_s("executor"),
        "frontier.absorb_s": self_s("frontier"),
        "snapshot.hit_rate": share(
            counters.get("snapshot_cache.hits", 0),
            counters.get("snapshot_cache.hits", 0)
            + counters.get("snapshot_cache.misses", 0)),
        "snapshot.steps_saved":
            counters.get("snapshot_cache.steps_saved", 0) / count,
        "gc.pause_s": tracer.gc_pause_s / count,
        "gc.collections": tracer.gc_collections / count,
    }
    service_info = service_info or {}
    metrics["service.checkpoint_s"] = \
        service_info.get("checkpoint_s", 0.0) / count
    for name in SERVICE_COUNTERS:
        metrics[name] = service_info.get(name, 0) / count
    metrics["snapshot.bytes_resident"] = \
        service_info.get("snapshot.bytes_resident", 0)
    return metrics


def adjusted_median(records):
    """Median time per sample, scaled by the host factor of the speed
    probes taken before each verdict (unscaled for service records)."""
    probes = [r["calibration"] for r in records if r["calibration"]]
    factor = host.host_factor(probes) if probes else 1.0
    return statistics.median(workloads.sample_walls(records)) * factor


def compare_answers(untraced, traced):
    """Errors for traced verdicts whose answer differs from the
    untraced verdict with the same input."""
    by_input = {json.dumps([r["arch"], r["input"]], sort_keys=True):
                r["answer"] for r in untraced}
    errors = []
    for record in traced:
        key = json.dumps([record["arch"], record["input"]], sort_keys=True)
        if key in by_input and by_input[key] != record["answer"]:
            errors.append(f"traced verdict for {key} differs from the "
                          f"untraced one")
    return errors


def traced_sequential(parts, records_a, seconds, spans_path):
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    by_arch = {part.arch: part for part in parts}
    try:
        tracer.verdict = "setup"
        setup_span = tracer.enter("verdict", "setup")
        for part in parts:
            part.setup()
        tracer.exit(setup_span)
        tracer.verdict = None
        counters = {}
        records_b = []
        deadline = perf_counter() + seconds
        for index, record in enumerate(records_a):
            # replay whole samples only
            if records_b and record["sample"] != records_b[-1]["sample"] \
                    and perf_counter() >= deadline:
                break
            part = by_arch[record["arch"]]
            gc.collect()
            part.prepare(record["input"])
            before = counter_snapshot()
            records_b.append(timed_verdict(part, record["input"], tracer,
                                           verdict_id=index, prepared=True,
                                           sample=record["sample"]))
            add_delta(counters, before, counter_snapshot())
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, records_b, counters, None)
    count = len({record["sample"] for record in records_b})
    totals = tracer.layer_totals(set(range(len(records_b))))
    layer_self = {layer: entry[0] / count for layer, entry in totals.items()}
    # the root span's self time is the verdict time no layer accounts for
    layer_self["unattributed"] = layer_self.pop("verdict", 0.0)
    layer_self["gc"] = tracer.gc_pause_s / count
    metrics["unattributed_s"] = layer_self["unattributed"]
    metrics["daemon.idle_s"] = 0.0
    metrics["layer_self"] = layer_self
    tracer.dump(spans_path)
    return records_b, metrics


def traced_service(workload, records_a, seconds, clients, cpus, spans_path,
                   store_root):
    """Replay the untraced pass's specs against an in-process daemon with
    every layer wrapped (the daemon's scheduler thread and pool run on
    the daemon CPUs, the clients on the generator CPU)."""
    from repro.service.daemon import CheckingDaemon
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(service=True)
    generator_cpus, daemon_cpus, workers = cpus
    try:
        os.sched_setaffinity(0, daemon_cpus)
        daemon = CheckingDaemon(store_root, port=0, workers=workers)
        tracer.wrap_idle(daemon.scheduler._wakeup)
        daemon.start()
        os.sched_setaffinity(0, generator_cpus)
        sched_thread = daemon.scheduler._thread.ident
        workload.digests.clear()
        before = counter_snapshot()
        metrics_before = fetch_metrics(daemon.url)
        tracer.verdict = "service"
        start = perf_counter()
        cycles = {}
        for record in records_a:
            cycles.setdefault(record["cycle"], []).append(record["input"])
        records_b, _info = service_pass(
            workload, iter([cycles[key] for key in sorted(cycles)]),
            daemon.url, seconds, clients, replay=True)
        wall = perf_counter() - start
        tracer.verdict = None
        metrics_after = fetch_metrics(daemon.url)
        counters = {}
        add_delta(counters, before, counter_snapshot())
        daemon.drain(30.0)
    finally:
        tracer.uninstall()
    info = {}
    after, base = metrics_after["counters"], metrics_before["counters"]
    for name in SERVICE_COUNTERS:
        info[name] = after.get(name, 0) - base.get(name, 0)
    hist_after = metrics_after["histograms"].get("service.checkpoint_seconds",
                                                 {"total": 0.0})
    hist_before = metrics_before["histograms"].get(
        "service.checkpoint_seconds", {"total": 0.0})
    info["checkpoint_s"] = hist_after["total"] - hist_before["total"]
    info["snapshot.bytes_resident"] = metrics_after["gauges"].get(
        "snapshot_cache.bytes_resident", 0)
    metrics = layer_metrics(tracer, records_b, counters, info)
    # the daemon's scheduler thread serialises every chunk: its wall time
    # outside every layer and outside idle waits is unattributed
    timeline = {}
    for span in tracer.spans:
        if span.timeline == sched_thread and span.verdict == "service":
            timeline[span.layer] = timeline.get(span.layer, 0.0) \
                + span.self_s
    timeline["gc"] = tracer.gc_by_timeline.get(sched_thread, 0.0)
    timeline["unattributed"] = max(0.0, wall - sum(timeline.values()))
    count = len(records_b)
    layer_self = {layer: value / count for layer, value in timeline.items()}
    metrics["unattributed_s"] = layer_self["unattributed"]
    metrics["daemon.idle_s"] = layer_self.get("idle", 0.0)
    metrics["layer_self"] = layer_self
    tracer.dump(spans_path)
    return records_b, metrics


# -- main ---------------------------------------------------------------------

def brief(records):
    """The records without their answers (the orchestrator's view)."""
    return [{key: record[key] for key in
             ("arch", "sample", "cycle", "input", "wall", "cpu",
              "calibration", "errors") if key in record}
            for record in records]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--url")
    parser.add_argument("--daemon-pid", type=int)
    parser.add_argument("--clients", type=int, default=1)
    parser.add_argument("--daemon-cpus", default="",
                        help="comma-separated CPUs of the service daemon")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--work-dir")
    options = parser.parse_args(argv)

    parts = workloads.make(options.workload)
    for part in parts:
        part.setup()
    print("READY", flush=True)
    # the host's speed right after set-up, to scale the set-up time
    print(f"CALIBRATION {host.speed_probe()!r}", flush=True)
    if options.setup_only:
        return 0

    rng = random.Random(options.seed)
    service = options.workload == "service"
    if service:
        items = parts[0].inputs(rng)
    else:
        items = workloads.sample_inputs(parts, rng)
    seconds = options.seconds / 2 if options.trace else options.seconds
    # the service's work runs on the daemon CPUs and, for the clients'
    # requests, on the generator CPU; both are idle between cycles of
    # the closed loop, so their speed is probed there and then
    generator_cpus = os.sched_getaffinity(0)
    daemon_cpus = {int(cpu) for cpu in options.daemon_cpus.split(",")
                   if cpu}
    marks = {}

    def open_window():
        marks.update(start=perf_counter(), steal=host.cpu_jiffies(),
                     cpu=host.own_cpu(),
                     daemon_cpu=(host.tree_cpu(options.daemon_pid)
                                 if service else 0.0))

    daemon_peak = None
    if service:
        # one untimed cycle first: the daemon's caches fill during the
        # first cycle (its verdicts took about 1.6x the later ones)
        records, info = service_pass(
            parts[0], items, options.url, seconds, options.clients,
            daemon_pid=options.daemon_pid,
            probe_cpus=(daemon_cpus, generator_cpus),
            warmup=1, on_start=open_window)
        warmup = [r for r in records if r["cycle"] < 1]
        records = [r for r in records if r["cycle"] >= 1]
        daemon_peak, calibration = info["peak"], info["probes"]
    else:
        # one untimed sample first, so lazy imports and caches are filled
        warmup = run_sample(parts, next(items), sample=-1)
        calibration = [host.speed_probe(5)]
        open_window()
        records = sequential_pass(parts, items, seconds)
    elapsed = perf_counter() - marks["start"]
    tree_cpu = host.own_cpu() - marks["cpu"]
    if service:
        tree_cpu += host.tree_cpu(options.daemon_pid) \
            - marks["daemon_cpu"] - info["probe_cpu_s"]
    else:
        calibration.append(host.speed_probe(5))
    result = {"pass_wall_s": elapsed, "tree_cpu_s": tree_cpu,
              "calibration_s": calibration, "daemon_peak_mb": daemon_peak,
              "steal_share": host.steal_share(marks["steal"],
                                              host.cpu_jiffies())}
    result["records"] = brief(records)
    result["warmup"] = brief(warmup)

    if options.trace:
        spans_path = os.path.join(options.work_dir, "spans.tsv")
        if service:
            cpus = (generator_cpus, daemon_cpus, options.workers)
            records_b, metrics = traced_service(
                parts[0], records, options.seconds, options.clients, cpus,
                spans_path, os.path.join(options.work_dir, "traced-store"))
        else:
            records_b, metrics = traced_sequential(
                parts, records, options.seconds, spans_path)
        samples_a = len({r["sample"] for r in records}) or 1
        # sequential verdicts time their own CPU, which leaves out the
        # speed probes between them
        cpu_per = (tree_cpu if service
                   else sum(r["cpu"] for r in records)) / samples_a
        wall_per = sum(r["wall"] for r in records) / samples_a
        metrics["proc.cpu_s"] = cpu_per
        metrics["proc.offcpu_s"] = max(0.0, wall_per - cpu_per)
        replayed = {r["sample"] for r in records_b}
        metrics["tracing.overhead_ratio"] = (
            adjusted_median(records_b)
            / adjusted_median([r for r in records
                               if r["sample"] in replayed]))
        metrics["traced.verdicts"] = float(len(replayed))
        result["traced"] = brief(records_b)
        result["traced_mismatch"] = compare_answers(records, records_b)
        result["per_layer"] = metrics
        result["spans_file"] = spans_path
    with open(options.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
