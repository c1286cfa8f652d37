"""Tests of the benchmark itself (not part of the repository's suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def failed_share(records):
    attempted, failed = run.tally(records)
    return failed / attempted


def test_corrupted_matrix_answer_makes_failed_share_nonzero():
    good = workloads.Matrix("x86_64", workloads.load_expected("matrix"))
    good.setup()
    assert failed_share([gen.timed_verdict(good, 0)]) == 0

    expected = workloads.load_expected("matrix")
    expected["x86_64"][0][2] = "a detector string no run produces"
    corrupted = workloads.Matrix("x86_64", expected)
    corrupted.setup()
    record = gen.timed_verdict(corrupted, 0)
    assert record["errors"]
    assert failed_share([record]) == 1


def test_corrupted_answers_fail_every_family():
    explore = workloads.load_expected("explore")
    explore["x86_64"]["decisions"] += 1
    answer = dict(workloads.load_expected("explore")["x86_64"])
    assert workloads.Explore("x86_64", explore).check(1, answer)

    corpus = workloads.load_expected("corpus")
    sweep = json.loads(json.dumps(corpus["vmsav8_64"]))
    corpus["vmsav8_64"][3][3] = False
    assert workloads.Corpus("vmsav8_64", corpus).check(1, sweep)

    service = workloads.load_expected("service")
    spec = {"id": "v00001", "monitor": None, "bound": 1,
            "wave_budget": None, "seed": 0}
    answer = dict(service["x86_64"]["RustMonitor|1"], status="done",
                  result_digest="d0", first_leg=None)
    assert workloads.Service("x86_64", service).check(spec, answer) == []
    service["x86_64"]["RustMonitor|1"]["schedules_run"] += 1
    assert workloads.Service("x86_64", service).check(spec, answer)


def test_service_digest_must_repeat_for_one_spec():
    service = workloads.Service("x86_64", workloads.load_expected("service"))
    spec = {"id": "v00001", "monitor": None, "bound": 1,
            "wave_budget": None, "seed": 2}
    answer = dict(service.expected["RustMonitor|1"], status="done",
                  result_digest="d0", first_leg=None)
    assert service.check(spec, answer) == []
    assert service.check(dict(spec, id="v00002"),
                         dict(answer, result_digest="d1"))


def test_tally_counts_traced_mismatches():
    records = [{"errors": []}, {"errors": []}, {"errors": ["x"]}]
    assert run.tally(records) == (3, 1)
    assert run.tally(records, ["differs"]) == (3, 2)


def test_a_sample_is_one_verdict_per_arch():
    parts = workloads.make("explore")
    assert [part.arch for part in parts] == list(workloads.ARCHES)
    assert [part.arch for part in workloads.make("service")] == ["x86_64"]
    records = [{"sample": 1, "wall": 0.5}, {"sample": 0, "wall": 1.0},
               {"sample": 0, "wall": 2.0}, {"sample": 1, "wall": 0.25}]
    assert workloads.sample_walls(records) == [3.0, 0.75]


@pytest.mark.parametrize("count, label", [(4, "max"), (11, "p9.1"),
                                          (20, "p50.0"), (100, "p90.0")])
def test_tail_has_ten_values_beyond_it(count, label):
    values = list(range(count))
    value, got = run.percentile_tail(values)
    assert got == label
    beyond = sum(1 for item in values if item > value)
    assert beyond == (10 if count >= 11 else 0)


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == \
        [row[:4] for row in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == \
        [row[:3] for row in metrics.PER_LAYER]


def test_tracer_accounts_a_campaign_and_uninstalls():
    import repro.concurrency as concurrency
    from repro.concurrency.arena import Fiber
    from repro.faults.campaign import interleaving_campaign

    originals = (concurrency.explore, Fiber.park, Fiber.start)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.verdict = 0
        root = tracer.enter("verdict", "explore")
        result = interleaving_campaign(preemption_bound=1, seed=3)
        tracer.exit(root)
    finally:
        tracer.uninstall()
    assert (concurrency.explore, Fiber.park, Fiber.start) == originals
    assert result.ok
    assert tracer.explored == [(result.schedules_run, sum(
        len(run_.decisions) for _schedule, run_ in result.runs))]
    totals = tracer.layer_totals({0})
    wall = root.end - root.start
    accounted = sum(entry[0] for entry in totals.values()) \
        + tracer.gc_pause_s
    assert abs(accounted - wall) < 0.02 * wall
    for layer in ("scheduler", "monitor", "shootdown", "invariants",
                  "noninterference", "state", "world"):
        assert totals[layer][1] > 0, layer
    # a fiber span is parented inside the scheduler run, never orphaned
    for span in tracer.spans:
        if span.layer == "monitor":
            node = span
            while node.parent is not None:
                node = node.parent
            assert node is root
    # some hypercalls ran on a fiber, parented to the blocked loop
    assert any(span.parent is not None and span.parent.layer == "arena"
               for span in tracer.spans if span.layer == "monitor")


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
