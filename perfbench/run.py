"""Benchmark entry point: time to verdict per arch, split into layers.

Run from the repository root::

    python3 perfbench/run.py --workload explore --seed 1 \\
        --seconds 10 --trace 0

Workloads are ``explore``, ``matrix``, ``corpus`` (one sample is one
verdict on ``x86_64`` and one on ``vmsav8_64``) and ``service``
(``x86_64`` only); see ``RATIONALE.md``.
The orchestrator measures set-up from fresh interpreters, starts the
generator (and for ``service`` the ``python -m repro serve`` daemon) on
their CPUs, reaps every process it started, and prints a table and, as
the last line, one JSON object: ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced replay.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import host  # noqa: E402
import metrics as metric_table  # noqa: E402
import workloads  # noqa: E402

perf_counter = time.perf_counter

#: Fresh-interpreter set-up samples per run (the median is reported).
SETUP_SAMPLES = 5
SERVICE_SETUP_SAMPLES = 5

#: Seconds a child may take beyond the timed window before it is killed.
GRACE_S = 90.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one hash seed for every run, so set and dict orders (and with them
    # the work a verdict does) are the same from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv, cpus, *, stdout=subprocess.PIPE, stderr=None):
    """Start a child pinned to ``cpus`` (the orchestrator has no threads,
    so ``preexec_fn`` is safe here)."""
    return subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr,
        stdin=subprocess.DEVNULL, text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus))


def reap(proc, timeout, signum=None):
    """Wait for ``proc`` (after sending ``signum``) and return its
    ``(exit code, rusage)``; kills it past ``timeout``."""
    if signum is not None and proc.returncode is None:
        proc.send_signal(signum)
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() >= deadline:
            proc.kill()
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage
        time.sleep(0.02)


def wait_ready(proc, what):
    """Block until ``proc`` is set up; returns (ready time, the speed
    probe it ran right after)."""
    line = proc.stdout.readline()
    if line.strip() != "READY":
        fail(f"{what} did not become ready (got {line!r})")
    ready = perf_counter()
    word, _, value = proc.stdout.readline().partition(" ")
    if word != "CALIBRATION":
        fail(f"{what} sent no calibration")
    return ready, float(value)


def http_json(url, body=None, timeout=30.0):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url, data=data, method="POST" if body is not None else "GET",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return json.loads(resp.read().decode())


def await_status(url, want):
    """Poll ``url`` until its ``status`` is ``want``; fail on a terminal
    other status or after ``GRACE_S``."""
    deadline = time.monotonic() + GRACE_S
    while True:
        status = http_json(url)["status"]
        if status == want:
            return
        if status in ("failed", "cancelled", "interrupted", "stalled") \
                or time.monotonic() >= deadline:
            fail(f"{url} reports {status!r}, want {want!r}")
        time.sleep(0.01)


class Run:
    """One benchmark invocation: owns every process it starts."""

    def __init__(self, options):
        self.options = options
        self.workload = options.workload
        self.service = self.workload == "service"
        self.allowed_cpus = os.sched_getaffinity(0)
        self.generator_cpus, self.daemon_cpus, self.workers = \
            host.placement(self.service)
        self.work = os.path.join(ROOT, ".bench_build", "perfbench",
                                 f"{self.workload}-{os.getpid()}")
        self.procs = []
        self.peak_mb = 0.0
        self.setup_samples = []

    # -- processes ----------------------------------------------------------

    def note_usage(self, usage):
        self.peak_mb = max(self.peak_mb, host.rusage_peak_mb(usage))

    def gen_argv(self, *extra):
        options = self.options
        return [sys.executable, os.path.join(HERE, "gen.py"),
                "--workload", self.workload, "--seed", str(options.seed),
                "--seconds", str(options.seconds),
                "--trace", str(options.trace),
                "--work-dir", self.work, *extra]

    def setup_sample(self):
        """Set up once in a fresh generator interpreter and exit."""
        start = perf_counter()
        proc = spawn(self.gen_argv("--out", os.devnull, "--setup-only"),
                     self.generator_cpus)
        self.procs.append(proc)
        ready, calibration = wait_ready(proc, "set-up interpreter")
        code, usage = reap(proc, GRACE_S)
        if code != 0:
            fail(f"set-up interpreter exited {code}")
        self.note_usage(usage)
        self.setup_samples.append((ready - start, calibration))

    def start_daemon(self, index):
        """``python -m repro serve`` on the daemon CPUs; ready once
        ``/healthz`` answers and a first campaign has run on the pool."""
        root = os.path.join(self.work, f"store-{index}")
        os.makedirs(root, exist_ok=True)
        start = perf_counter()
        log = open(os.path.join(self.work, f"daemon-{index}.log"), "w")
        proc = spawn([sys.executable, "-m", "repro", "serve", "--root", root,
                      "--port", "0", "--workers", str(self.workers)],
                     self.daemon_cpus, stderr=log)
        log.close()
        self.procs.append(proc)
        line = proc.stdout.readline()
        if "listening on " not in line:
            fail(f"daemon did not start (got {line!r})")
        url = line.split("listening on ", 1)[1].split()[0]
        await_status(url + "/healthz", "ok")
        http_json(url + "/campaigns", {"id": "warmup", "seed": 0,
                                       "preemption_bound": 0})
        await_status(url + "/campaigns/warmup", "done")
        ready = perf_counter()
        self.setup_samples.append(
            (ready - start, host.speed_probe_on(self.daemon_cpus)))
        return proc, url

    def stop_daemon(self, proc, account=True):
        """SIGTERM drain, reap, and (with ``account``) take the daemon
        tree's peak resident set."""
        if account:
            self.peak_mb = max(self.peak_mb,
                               host.tree_peak_rss_mb(proc.pid))
        code, usage = reap(proc, GRACE_S, signal.SIGTERM)
        if code != 0:
            fail(f"daemon exited {code} on SIGTERM")
        if account:
            self.note_usage(usage)

    def cleanup(self):
        for proc in self.procs:
            if proc.returncode is None:
                # a daemon's pool workers too, so none outlives the run
                for pid in reversed(host.descendants(proc.pid)):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                try:
                    os.wait4(proc.pid, 0)
                except ChildProcessError:
                    pass
                proc.returncode = -9

    # -- the run ------------------------------------------------------------

    def execute(self):
        options = self.options
        os.makedirs(self.work, exist_ok=True)
        # the orchestrator mostly waits; on the generator CPU its speed
        # probes see what the generator sees
        os.sched_setaffinity(0, self.generator_cpus)
        steal0 = host.cpu_jiffies()
        extra = []
        daemon_proc = None
        if self.service:
            samples = 1 if options.trace else SERVICE_SETUP_SAMPLES
            for index in range(samples):
                proc, url = self.start_daemon(index)
                if index < samples - 1:
                    self.stop_daemon(proc)
            daemon_proc = proc
            extra = ["--url", url, "--daemon-pid", str(proc.pid),
                     "--clients", str(os.cpu_count() or 1),
                     "--daemon-cpus",
                     ",".join(str(cpu) for cpu in sorted(self.daemon_cpus)),
                     "--workers", str(self.workers)]
        elif not options.trace:
            for _ in range(SETUP_SAMPLES - 1):
                self.setup_sample()
        out = os.path.join(self.work, "result.json")
        errlog = open(os.path.join(self.work, "generator.log"), "w")
        start = perf_counter()
        gen = spawn(self.gen_argv("--out", out, *extra),
                    self.generator_cpus, stderr=errlog)
        errlog.close()
        self.procs.append(gen)
        ready, calibration = wait_ready(gen, "generator")
        if not self.service and not options.trace:
            self.setup_samples.append((ready - start, calibration))
        timeout = GRACE_S + options.seconds * (3 if options.trace else 1)
        code, usage = reap(gen, timeout)
        self.note_usage(usage)
        if code != 0:
            with open(os.path.join(self.work, "generator.log")) as fh:
                sys.stderr.write(fh.read()[-4000:])
            fail(f"generator exited {code}")
        with open(out) as fh:
            result = json.load(fh)
        if daemon_proc is not None:
            # the serving daemon keeps every finished campaign, so its
            # peak is the one the generator read after a fixed count of
            # verdicts (the whole run's peak if it never got there)
            peak = result["daemon_peak_mb"]
            if peak is not None:
                self.peak_mb = max(self.peak_mb, peak)
            self.stop_daemon(daemon_proc, account=peak is None)
        result["run_steal_share"] = host.steal_share(steal0,
                                                     host.cpu_jiffies())
        return result

    def keep_spans(self, result):
        spans = result.get("spans_file")
        if spans and os.path.exists(spans):
            kept = os.path.join(os.path.dirname(self.work),
                                f"spans-{self.workload}.tsv")
            shutil.move(spans, kept)
            result["spans_file"] = os.path.relpath(kept, ROOT)


def tally(records, mismatches=()):
    """(verdicts attempted, verdicts failed): a verdict fails when it
    raised, was refused, or differs from its known answer; a traced
    verdict that differs from its untraced twin fails too."""
    failed = sum(1 for record in records if record["errors"])
    return len(records), failed + len(mismatches)


def percentile_tail(values):
    """(value, label): the highest percentile with >= 10 values beyond
    it, or the maximum when there are fewer than 11 values."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return ordered[-1], "max"
    return ordered[count - 11], f"p{100.0 * (count - 10) / count:.1f}"


def report(run, result):
    options = run.options
    records = result["records"]
    per_verdict = workloads.sample_walls(records)
    checked = records + result["warmup"]
    mismatches = result.get("traced_mismatch", [])
    if options.trace:
        checked = checked + result["traced"]
    attempted, failed = tally(checked, mismatches)
    tail, tail_label = percentile_tail(per_verdict)
    stamp = host.stamp(run.allowed_cpus,
                       {"generator": sorted(run.generator_cpus),
                        "daemon": sorted(run.daemon_cpus),
                        "pool_workers": run.workers})
    stamp.update({"steal_share_timed": round(result["steal_share"], 4),
                  "steal_share_run": round(result["run_steal_share"], 4),
                  "calibration_s": [round(value, 4) for value in
                                    result["calibration_s"]]})
    print(f"perfbench {run.workload} seed={options.seed} "
          f"seconds={options.seconds} trace={options.trace}")
    print("host: " + json.dumps(stamp, sort_keys=True))
    for record in checked:
        for error in record["errors"][:3]:
            print(f"  FAILED verdict: {error}")
    for mismatch in mismatches[:3]:
        print(f"  FAILED traced == untraced: {mismatch}")
    warm = workloads.sample_walls(result["warmup"])
    if warm:
        print(f"untimed warm-up: {len(warm)} sample(s), median "
              f"{statistics.median(warm):.3f} s")
    print("sample times (s): " + " ".join(f"{value:.3f}"
                                          for value in per_verdict))
    if run.service:
        kinds = {}
        for record in records:
            spec = record["input"]
            monitor = (spec["monitor"] or "RustMonitor").rpartition(":")[2]
            budget = (f" wave_budget={spec['wave_budget']}"
                      if spec["wave_budget"] else "")
            kinds.setdefault(f"{monitor} bound {spec['bound']}{budget}",
                             []).append(record["wall"])
        for kind, walls in sorted(kinds.items()):
            print(f"  {kind:<42} median {statistics.median(walls):.3f} s"
                  f" over {len(walls)}")
    print(f"failed_share={failed / max(1, attempted):.4f} "
          f"({failed} of {attempted} verdicts attempted)")
    if not options.trace:
        # times are host-adjusted: scaled by the reference calibration
        # over the speed probes of the same interpreter and run
        if run.service:
            factor = host.host_factor(result["calibration_s"])
        else:
            factor = host.host_factor([r["calibration"] for r in records])
        setup = [wall * host.REFERENCE_CALIBRATION_S / calibration
                 for wall, calibration in run.setup_samples]
        raw_setup = statistics.median(wall for wall, _ in run.setup_samples)
        raw_verdict = statistics.median(per_verdict)
        print(f"host factor {factor:.4f} (reference calibration "
              f"{host.REFERENCE_CALIBRATION_S} s); unadjusted: setup "
              f"{raw_setup:.4f} s, verdict {raw_verdict:.4f} s, tail "
              f"{tail:.4f} s")
        values = {
            "setup_s": (statistics.median(setup), len(setup)),
            "verdict_s": (raw_verdict * factor, len(per_verdict)),
            "peak_rss_mb": (run.peak_mb, 1),
        }
        shown = dict(values, verdict_tail_s=(tail * factor,
                                             len(per_verdict)))
        notes = {"verdict_tail_s": f"{tail_label}, not in BENCHMARK.json"}
        for arch in workloads.WORKLOADS[run.workload]:
            walls = [record["wall"] for record in records
                     if record["arch"] == arch]
            shown[f"verdict_s.{arch}"] = (statistics.median(walls) * factor,
                                          len(walls))
            notes[f"verdict_s.{arch}"] = "one arch, not in BENCHMARK.json"
        print(f"{'metric':<26}{'value':>12}  {'unit':<6}{'samples':>8}")
        for name, (value, samples) in shown.items():
            note = f"  ({notes[name]})" if name in notes else ""
            unit = metric_table.UNITS[name.partition(".")[0]]
            print(f"{name:<26}{value:>12.4f}  {unit:<6}{samples:>8}{note}")
        metrics = {name: {"value": value, "unit": metric_table.UNITS[name]}
                   for name, (value, _samples) in values.items()}
    else:
        per_layer = result["per_layer"]
        layer_self = per_layer.pop("layer_self")
        total = sum(layer_self.values()) or 1.0
        print("self time per sample by layer (traced; sums to the "
              "traced sample)")
        for layer, value in sorted(layer_self.items(),
                                   key=lambda item: -item[1]):
            print(f"  {layer:<26}{value:>10.4f} s "
                  f"{100 * value / total:>6.1f}%")
        print(f"  {'total':<26}{total:>10.4f} s")
        print(f"{'layer metric':<28}{'value':>14}  {'unit':<6} "
              f"should move")
        for name, unit, _better, moves, _where, _d in metric_table.PER_LAYER:
            print(f"{name:<28}{per_layer[name]:>14.6f}  {unit:<6} {moves}")
        print(f"spans: {result.get('spans_file')}")
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit, *_rest in metric_table.PER_LAYER}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        fail(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
             f"is missing (run from a checkout of the repository)")
    if options.seconds <= 0:
        fail("--seconds must be positive")
    run = Run(options)
    # a terminated benchmark still stops and reaps what it started
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        result = run.execute()
        run.keep_spans(result)
    finally:
        run.cleanup()
        shutil.rmtree(run.work, ignore_errors=True)
    report(run, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
