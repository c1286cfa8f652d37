"""The complete bug → checker matrix, over every buggy monitor variant.

Extends Figure 5 to the full negative-example set: thirteen planted
bugs, each detected by the checker the paper assigns to its class —
structural bugs by the §5.2 invariant families or the §4.1 refinement,
behavioural leaks by the §5 noninterference theorem, the
crash-consistency bug by the fault-injection campaign, and the two
concurrency bugs (missing locking discipline, missing TLB shootdown)
by the bounded-preemption interleaving explorer, on every arch of
:data:`~repro.hyperenclave.constants.ARCH_CONFIGS`, each with its own
verdict column.  The benchmark times the whole matrix: total detection
cost for all thirteen, per arch.

The matrix itself (setups, detectors, bug rows) lives in
:mod:`repro.engine.bug_matrix`, where the parallel checking fabric
runs the identical convictions through its sharded executor
(:func:`~repro.engine.bug_matrix.run_matrix_parallel`); this bench
times the sequential sweep.
"""

from repro.engine.bug_matrix import run_matrix
from repro.hyperenclave import buggy
from repro.hyperenclave.constants import ARCH_CONFIGS
from repro.reporting import render_table


def test_bench_bug_matrix(benchmark, emit):
    results = benchmark(lambda: {arch: run_matrix(config)
                                 for arch, config in ARCH_CONFIGS.items()})
    arches = list(ARCH_CONFIGS)
    rows = []
    for cases in zip(*(results[arch] for arch in arches)):
        bugs = {bug for bug, _detected, _how in cases}
        hows = {how for _bug, _detected, how in cases}
        # one "Detected by" column holds because every arch convicts a
        # bug through the same detector
        assert len(bugs) == len(hows) == 1, cases
        rows.append([bugs.pop()]
                    + ["DETECTED" if detected else "MISSED"
                       for _bug, detected, _how in cases]
                    + [hows.pop()])
    emit("bug_matrix",
         render_table(["Planted bug"] + arches + ["Detected by"], rows,
                      title="The full bug → checker matrix "
                            "(all 13 buggy variants, per arch)"))
    for arch in arches:
        assert len(results[arch]) == len(buggy.ALL_BUGGY_MONITORS) == 13
        assert all(detected for _bug, detected, _how in results[arch]), arch
