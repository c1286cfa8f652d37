"""All thirteen planted bugs convicted through the parallel fabric.

The verdict triples — ``(bug, detected, how)`` with the exact
violation-kind strings — must come back identical to the sequential
matrix on both arches: running each row as a pool unit may change
*how fast* a bug is convicted, never *what* the conviction says.
"""

import pytest

from repro.engine.bug_matrix import run_matrix, run_matrix_parallel
from repro.hyperenclave import buggy
from repro.hyperenclave.constants import ARCH_CONFIGS


@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
def test_parallel_matrix_convicts_all_13_identically(pool, arch):
    config = ARCH_CONFIGS[arch]
    seq = run_matrix(config=config)
    par = run_matrix_parallel(executor=pool, config=config)
    assert len(par) == len(buggy.ALL_BUGGY_MONITORS) == 13
    assert all(detected for _bug, detected, _how in par)
    assert par == seq
