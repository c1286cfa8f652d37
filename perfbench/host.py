"""Host stamp, CPU placement and process-tree accounting.

Everything here reads ``/proc`` or the ``os``/``resource`` modules; it
imports nothing from the program under test, so the orchestrator can
stamp the host before the program is even found.
"""

import os
import platform
import resource
import statistics
import time

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Iterations of the calibration loop: about 0.04-0.06 s of pure-Python
#: work on the recording host.  Fixed forever, so a slower host or a
#: starved run shows as a larger calibration time.
CALIBRATION_ITERATIONS = 400_000

#: A fixed reference near the calibration loop's time on the recording
#: host (2-vCPU cloud VM, Intel Xeon, Python 3.11.7).  Times reported as
#: host-adjusted are scaled by ``REFERENCE_CALIBRATION_S / median
#: probe``: the recording host's speed drifts by up to 1.7x over
#: minutes, and the loop, run on the same CPU between verdicts, tracks
#: that drift (see RATIONALE.md).
REFERENCE_CALIBRATION_S = 0.05


def placement(service: bool):
    """(generator CPUs, daemon CPUs, pool workers) for this host.

    The generator gets the first allowed CPU.  The service daemon and
    its pool get the rest (``nproc - 1`` CPUs and workers); on a
    one-CPU host they share the generator's CPU with one worker.
    """
    cpus = sorted(os.sched_getaffinity(0))
    generator = {cpus[0]}
    if not service:
        return generator, set(), 0
    rest = set(cpus[1:]) or set(generator)
    return generator, rest, len(rest)


def cpu_model() -> str:
    """The ``model name`` of the first CPU in ``/proc/cpuinfo``."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_jiffies():
    """(steal, total) jiffies summed over all CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(value) for value in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user/nice.
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def steal_share(before, after) -> float:
    """Share of all CPU time the hypervisor stole between two samples."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop on the calling CPU."""
    start = time.perf_counter()
    acc = 0
    for value in range(CALIBRATION_ITERATIONS):
        acc = (acc + value * value) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:                         # keeps the loop observable
        raise AssertionError(acc)
    return elapsed


def speed_probe(loops=3) -> float:
    """Fastest of ``loops`` calibration loops: the host's current speed
    (a loop slowed by a preemption or by work another process of the
    run has not finished yet does not count)."""
    return min(calibrate() for _ in range(loops))


def speed_probe_on(cpus, loops=3) -> float:
    """:func:`speed_probe` run on ``cpus``; the calling thread's CPU
    affinity is restored afterwards."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        return speed_probe(loops)
    finally:
        os.sched_setaffinity(0, previous)


def host_factor(calibrations) -> float:
    """Scale from this host's speed to the reference host's."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibrations)


def stamp(allowed, placement) -> dict:
    """The static part of the host stamp."""
    return {"cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "allowed_cpus": sorted(allowed),
            "placement": placement,
            "python": platform.python_version(),
            "kernel": platform.release()}


def descendants(pid: int):
    """``pid`` and every live descendant, from ``/proc/*/task/*/children``."""
    found, todo = [], [pid]
    while todo:
        current = todo.pop()
        found.append(current)
        task_dir = f"/proc/{current}/task"
        try:
            tids = os.listdir(task_dir)
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"{task_dir}/{tid}/children") as fh:
                    todo.extend(int(child) for child in fh.read().split())
            except OSError:
                continue
    return found


def tree_cpu(pid: int) -> float:
    """CPU seconds used so far by ``pid``'s live tree and reaped children."""
    total = 0
    for member in descendants(pid):
        try:
            with open(f"/proc/{member}/stat") as fh:
                raw = fh.read()
        except OSError:
            continue
        # fields after the parenthesised comm; utime is field 14
        fields = raw[raw.rindex(")") + 2:].split()
        total += sum(int(value) for value in fields[11:15])
    return total / CLOCK_TICKS


def tree_peak_rss_mb(pid: int) -> float:
    """Largest ``VmHWM`` (peak resident set) in ``pid``'s live tree."""
    peak = 0
    for member in descendants(pid):
        try:
            with open(f"/proc/{member}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
                        break
        except OSError:
            continue
    return peak / 1024.0


def own_cpu() -> float:
    """CPU seconds of this process and its reaped children."""
    times = os.times()
    return times.user + times.system + times.children_user \
        + times.children_system


def rusage_peak_mb(usage) -> float:
    """``ru_maxrss`` (KiB on Linux) as MB."""
    return usage.ru_maxrss / 1024.0


def self_peak_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return rusage_peak_mb(resource.getrusage(resource.RUSAGE_SELF))
