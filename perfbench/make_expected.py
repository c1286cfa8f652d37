"""Regenerate the committed known answers under ``expected/``.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_expected.py

Each answer comes from a path other than the one the benchmark times:

* ``explore``: written by hand (178 schedules, 10,998 decisions, no
  violation, per arch, for every campaign seed), checked here once;
* ``matrix``: ``run_matrix_parallel`` on a one-worker fabric (the
  benchmark times the sequential ``run_matrix``);
* ``corpus``: the per-function verdicts of ``verify_corpus`` at two
  cosim seeds, which must agree (no field of the answer depends on
  the seed);
* ``service``: in-process ``interleaving_campaign`` for each spec of
  the mix, at two campaign seeds that must agree (the benchmark asks
  the daemon).
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (ARCHES, EXPECTED_DIR, SERVICE_CYCLE,  # noqa: E402
                       arch_config, spec_key)

EXPLORE = {"ok": True, "schedules": 178, "decisions": 10998,
           "violations": 0, "truncated": False}


def explore():
    from repro.faults.campaign import interleaving_campaign
    for arch in ARCHES:
        result = interleaving_campaign(preemption_bound=2, seed=7,
                                       config=arch_config(arch))
        got = {"ok": result.ok, "schedules": result.schedules_run,
               "decisions": sum(len(run.decisions)
                                for _schedule, run in result.runs),
               "violations": len(result.violations),
               "truncated": result.truncated}
        if got != EXPLORE:
            raise SystemExit(f"explore {arch}: {got} != {EXPLORE}")
    return {arch: EXPLORE for arch in ARCHES}


def matrix():
    from repro.engine.bug_matrix import run_matrix_parallel
    return {arch: [[bug, bool(detected), how] for bug, detected, how
                   in run_matrix_parallel(workers=1,
                                          config=arch_config(arch))]
            for arch in ARCHES}


def corpus():
    from repro.hyperenclave.mir_model.layers import build_model
    from repro.verification.code_proofs import verify_corpus
    answers = {}
    for arch in ARCHES:
        model = build_model(arch_config(arch))
        sweeps = [[[v.name, v.layer, v.method, v.ok, v.failures]
                   for v in verify_corpus(model, seed=seed).verdicts]
                  for seed in (0, 12345)]
        if sweeps[0] != sweeps[1]:
            raise SystemExit(f"corpus {arch}: answer depends on the seed")
        answers[arch] = sweeps[0]
    return answers


def service():
    from repro.engine.workers import _resolve_cls
    from repro.faults.campaign import interleaving_campaign
    answers = {}
    for monitor, bound, _budget in SERVICE_CYCLE:
        key = spec_key(monitor, bound)
        if key in answers:
            continue
        seen = []
        for seed in (0, 3):
            result = interleaving_campaign(_resolve_cls(monitor),
                                           preemption_bound=bound,
                                           seed=seed)
            seen.append({"ok": result.ok,
                         "schedules_run": result.schedules_run,
                         "violations": len(result.violations)})
        if seen[0] != seen[1]:
            raise SystemExit(f"service {key}: answer depends on the seed")
        answers[key] = seen[0]
    return {"x86_64": answers}


def main():
    for name, build in (("explore", explore), ("matrix", matrix),
                        ("corpus", corpus), ("service", service)):
        path = os.path.join(EXPECTED_DIR, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(build(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
