"""``bench_durability`` runs end to end on a tiny grid.

The CI durability perf smoke calls it; a name error in the bench would
fail that job before it measured anything.
"""

from repro.engine.bench import bench_durability


def test_tiny_durability_bench_is_byte_identical(tmp_path):
    record = bench_durability(preemption_bound=1, max_schedules=8,
                              workers=1, repeats=1,
                              tmp_root=str(tmp_path))
    assert record["byte_identical"] is True
    assert record["verdict_cache"]["verdicts_identical"] is True
    assert record["resume"]["schedules_total"] == 8
