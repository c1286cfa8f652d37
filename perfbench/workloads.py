"""The benchmark's workloads: set-up, one verdict, and its known answer.

A workload is a family; one timed sample is one verdict on every arch
the family runs on (x86_64 then vmsav8_64; ``service`` is x86_64 only).
Each per-arch part turns a random generator seeded from the workload
seed into verdict inputs, runs one verdict through the program's public
API, reduces the outcome to a JSON-able answer and compares it with the
committed answer under ``expected/``.  The program sees only the
generated inputs.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

ARCHES = ("x86_64", "vmsav8_64")

#: Preemption bound of an ``explore`` verdict.  Bound 3 is out: capped
#: at 600 schedules it costs 5.7 s (x86) and 11 s (arm) of CPU.
EXPLORE_BOUND = 2

#: The ``service`` mix, one cycle in submission order: (monitor,
#: preemption bound, wave budget).  Mostly clean bound-1 campaigns, one
#: clean bound-2, one ``MissingLockMonitor`` campaign whose 231
#: violations each cut a provenance bundle, one ``NoShootdownMonitor``
#: campaign (clean at bound 1), and one campaign stopped by a one-wave
#: budget and resubmitted without one, so it resumes from its
#: checkpoint.  Bound-2 campaigns are rare because each holds the pool
#: for as long as about ten bound-1 campaigns, and a run must hold many
#: verdicts.  The order is fixed, so every cycle overlaps the same
#: campaigns on the pool: shuffled per cycle, the medians of single
#: cycles spread 15% on an idle host.
BUGGY = "repro.hyperenclave.buggy:"
CLEAN = (None, 1, None)
SERVICE_CYCLE = ((None, 2, None),) + (CLEAN,) * 4 + (
    (BUGGY + "MissingLockMonitor", 1, None),) + (CLEAN,) * 4 + (
    (BUGGY + "NoShootdownMonitor", 1, None),) + (CLEAN,) * 4 + (
    (None, 1, 1),) + (CLEAN,) * 4

#: Campaign seeds of the service mix come from this small pool, so a
#: spec recurs within a run and its ``result_digest`` can be compared
#: across fresh and resumed runs.
SERVICE_SEED_POOL = 4


def load_expected(family):
    with open(os.path.join(EXPECTED_DIR, f"{family}.json")) as fh:
        return json.load(fh)


def arch_config(arch):
    from repro.hyperenclave.constants import ARCH_CONFIGS
    return ARCH_CONFIGS[arch]


def diff(what, got, want):
    """[] when equal, else one line naming the first difference."""
    if got == want:
        return []
    if isinstance(got, list) and isinstance(want, list):
        for index, (left, right) in enumerate(zip(got, want)):
            if left != right:
                return [f"{what}[{index}]: got {left!r}, want {right!r}"]
        return [f"{what}: {len(got)} entries, want {len(want)}"]
    return [f"{what}: got {got!r}, want {want!r}"]


class Explore:
    """``interleaving_campaign`` on ``RustMonitor`` at bound 2 with the
    full check battery; one verdict is one campaign."""

    family = "explore"

    def __init__(self, arch, expected):
        self.arch = arch
        self.expected = expected[arch]

    def setup(self):
        from repro.faults.campaign import (build_interleaved_world,
                                           interleaving_campaign)
        self.config = arch_config(self.arch)
        self.campaign = interleaving_campaign
        # loads every module a campaign imports lazily
        build_interleaved_world(config=self.config)

    def inputs(self, rng):
        while True:
            yield rng.randrange(1 << 31)

    def prepare(self, _seed):
        pass

    def verdict(self, seed):
        result = self.campaign(preemption_bound=EXPLORE_BOUND, seed=seed,
                               config=self.config)
        return {"ok": result.ok,
                "schedules": result.schedules_run,
                "decisions": sum(len(run.decisions)
                                 for _schedule, run in result.runs),
                "violations": len(result.violations),
                "truncated": result.truncated}

    def check(self, _seed, answer):
        return diff("explore", answer, self.expected)


class Matrix:
    """``run_matrix`` per arch; every planted bug must be convicted with
    today's detector string.  ``run_matrix`` takes no seed, so every
    verdict has the same input."""

    family = "matrix"

    def __init__(self, arch, expected):
        self.arch = arch
        self.expected = expected[arch]

    def setup(self):
        from repro.engine.bug_matrix import build_world, run_matrix
        self.config = arch_config(self.arch)
        self.run_matrix = run_matrix
        build_world(config=self.config)

    def inputs(self, _rng):
        while True:
            yield 0

    def prepare(self, _seed):
        pass

    def verdict(self, _seed):
        return [[bug, bool(detected), how]
                for bug, detected, how in self.run_matrix(config=self.config)]

    def check(self, _seed, answer):
        return diff("matrix", answer, self.expected)


class Corpus:
    """``verify_corpus`` per arch on a model built at set-up; the solver
    and term caches are cleared before every verdict, so each does the
    same work.  The cosim sample seed comes from the workload seed."""

    family = "corpus"

    def __init__(self, arch, expected):
        self.arch = arch
        self.expected = expected[arch]

    def setup(self):
        from repro.hyperenclave.mir_model.layers import build_model
        from repro.symbolic.solver import clear_solver_caches
        from repro.symbolic.terms import clear_term_caches
        from repro.verification.code_proofs import verify_corpus
        self.model = build_model(arch_config(self.arch))
        self.verify_corpus = verify_corpus
        self.clear = (clear_solver_caches, clear_term_caches)

    def inputs(self, rng):
        while True:
            yield rng.randrange(1 << 31)

    def prepare(self, _seed):
        for clear in self.clear:
            clear()

    def verdict(self, seed):
        report = self.verify_corpus(self.model, seed=seed)
        return [[v.name, v.layer, v.method, v.ok, v.failures]
                for v in report.verdicts]

    def check(self, _seed, answer):
        return diff("corpus", answer, self.expected)


def spec_key(monitor, bound):
    """The key of a service expected-answer entry."""
    return f"{monitor or 'RustMonitor'}|{bound}"


class Service:
    """Closed loop of ``nproc`` clients against ``python -m repro serve``
    (x86 only: ``CampaignSpec`` has no arch field).  One verdict is one
    campaign's submit -> terminal status; a budgeted campaign's verdict
    spans its first submission to the resumed run's verdict."""

    family = "service"

    def __init__(self, arch, expected):
        self.arch = arch
        self.expected = expected[arch]
        self.digests = {}

    def setup(self):
        from repro.service.client import ServiceClient  # noqa: F401

    def inputs(self, rng):
        """Whole cycles of the mix, each a list of specs whose campaign
        seeds are drawn from ``rng``."""
        index = 0
        while True:
            specs = []
            for monitor, bound, budget in SERVICE_CYCLE:
                index += 1
                specs.append({"id": f"v{index:05d}", "monitor": monitor,
                              "bound": bound, "wave_budget": budget,
                              "seed": rng.randrange(SERVICE_SEED_POOL)})
            yield specs

    def check(self, spec, answer):
        errors = []
        if answer.get("first_leg") is not None:
            leg = answer["first_leg"]
            if leg.get("status") != "failed" or "wave" not in str(
                    leg.get("error", "")):
                errors.append(f"{spec['id']}: budgeted leg ended "
                              f"{leg.get('status')!r}, want a wave-budget "
                              f"stop")
        if answer.get("status") != "done":
            return errors + [f"{spec['id']}: status {answer.get('status')!r}"
                             f" ({answer.get('error')})"]
        want = self.expected.get(spec_key(spec["monitor"], spec["bound"]))
        if want is None:
            return errors + [f"{spec['id']}: no expected answer"]
        got = {key: answer.get(key) for key in want}
        errors.extend(diff(spec["id"], got, want))
        key = (spec["monitor"], spec["bound"], spec["seed"])
        digest = self.digests.setdefault(key, answer.get("result_digest"))
        if digest != answer.get("result_digest"):
            errors.append(f"{spec['id']}: result_digest "
                          f"{answer.get('result_digest')} differs from "
                          f"{digest} for the same spec")
        return errors


FAMILIES = {cls.family: cls for cls in (Explore, Matrix, Corpus, Service)}

#: Every workload name the benchmark accepts, with the arches one of its
#: samples covers.
WORKLOADS = {"explore": ARCHES, "matrix": ARCHES, "corpus": ARCHES,
             "service": ("x86_64",)}


def make(name):
    """The per-arch parts of workload ``name``, in sample order."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    expected = load_expected(name)
    return [FAMILIES[name](arch, expected) for arch in WORKLOADS[name]]


def sample_inputs(parts, rng):
    """Samples of inputs, one per part, all drawn from ``rng``."""
    return zip(*(part.inputs(rng) for part in parts))


def sample_walls(records):
    """Wall time of each sample (the sum of its parts' verdicts), in
    sample order."""
    walls = {}
    for record in records:
        walls[record["sample"]] = walls.get(record["sample"], 0.0) \
            + record["wall"]
    return [walls[sample] for sample in sorted(walls)]
