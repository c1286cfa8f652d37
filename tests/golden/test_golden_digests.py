"""Committed golden digests: campaign verdicts must not move.

Each digest is a blake2b-128 over the ``repr`` of a tuple of primitives
(ints, strings, bools, None) that encodes one campaign's full result:
every schedule, decision, yield and finding of an interleaving sweep,
every run of a fault sweep, every crash record.  Exceptions enter only
as their type name and ``str`` — never their ``repr``, which differs
between Python versions — so the same tree gives the same digests on
every supported interpreter and under both scheduler engines.

``digests.json`` beside this file holds the reference values.  A change
that is meant to keep behaviour byte-identical (a faster frame store, a
new scheduler engine) must leave them unchanged; regenerate them only
for a change that is meant to move a verdict, and say why::

    PYTHONPATH=src python -m tests.golden.test_golden_digests
"""

import hashlib
import json
import os

import pytest

from repro.engine.bug_matrix import run_matrix
from repro.engine.fingerprint import phys_fingerprint
from repro.faults import (
    crash_in_critical_section_campaign,
    crash_step_campaign,
    default_workload,
    default_world_factory,
    interleaving_campaign,
)
from repro.hyperenclave.buggy import MissingLockMonitor, NoShootdownMonitor
from repro.hyperenclave.constants import ARCH_CONFIGS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "digests.json")


def _error(exc):
    return None if exc is None else (type(exc).__name__, str(exc))


def _exploration(result):
    runs = tuple(
        (schedule.describe(), run.trace,
         tuple((d.index, d.chosen, d.chosen_kind, d.enabled, d.kinds)
               for d in run.decisions),
         tuple((y.vid, y.yield_index, y.kind, y.detail, y.locks_held)
               for y in run.yields),
         tuple(str(v) for v in run.lock_violations),
         tuple(str(s) for s in run.stale_translations),
         tuple((vid, _error(run.task_errors[vid]))
               for vid in sorted(run.task_errors)),
         run.parked)
        for schedule, run in result.runs)
    return (result.preemption_bound, result.max_schedules,
            result.truncated, runs,
            tuple(str(v) for v in result.violations))


def _crash_steps(report):
    return (report.seed, tuple(
        (run.hypercall, run.site, run.step, run.kind, run.outcome,
         run.fired, run.rolled_back, run.invariants_ok, run.detail,
         tuple((f.site, f.hit, f.kind, f.label) for f in run.fired_faults))
        for run in report.runs))


def _critical_crashes(report):
    return (report.monitor, report.critical_yields, tuple(
        (r.vid, r.yield_index, r.kind, r.detail, r.locks_held, r.parked,
         r.violations)
        for r in report.records))


def _workload_fingerprints(config):
    """Physical-memory fingerprints after each call of the default
    workload: pins the per-frame digest encoding itself (the memo keys
    and snapshot-tree sharing are built on it)."""
    monitor, ctx = default_world_factory(config)()
    fps = [phys_fingerprint(monitor)]
    for _name, invoke in default_workload():
        invoke(monitor, ctx)
        fps.append(phys_fingerprint(monitor))
    return tuple(fps)


#: name -> config -> the encoded result.
CASES = {
    "run_matrix": lambda config: tuple(run_matrix(config=config)),
    "interleaving_bound2": lambda config: _exploration(
        interleaving_campaign(preemption_bound=2, seed=0, config=config)),
    "missing_lock_bound1": lambda config: _exploration(
        interleaving_campaign(MissingLockMonitor, preemption_bound=1,
                              seed=0, config=config)),
    "no_shootdown_bound1": lambda config: _exploration(
        interleaving_campaign(NoShootdownMonitor, preemption_bound=1,
                              seed=0, config=config)),
    "crash_step": lambda config: _crash_steps(crash_step_campaign(
        default_world_factory(config), default_workload())),
    "crash_in_critical_section": lambda config: _critical_crashes(
        crash_in_critical_section_campaign(seed=0, config=config)),
    "workload_fingerprints": _workload_fingerprints,
}


def digest(value) -> str:
    """blake2b-128 hex of ``repr(value)`` (primitives only)."""
    return hashlib.blake2b(repr(value).encode(),
                           digest_size=16).hexdigest()


def arch_digests(config):
    """``{case: digest}`` for one arch on the current tree."""
    return {name: digest(encode(config)) for name, encode in CASES.items()}


def generate():
    """``{arch: {case: digest}}`` for the current tree."""
    return {arch: arch_digests(config)
            for arch, config in ARCH_CONFIGS.items()}


def load():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
def test_golden_digests_unchanged(arch):
    assert arch_digests(ARCH_CONFIGS[arch]) == load()[arch]


if __name__ == "__main__":
    with open(GOLDEN, "w") as handle:
        json.dump(generate(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")
