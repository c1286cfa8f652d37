"""Sec. 4 — code-proof and refinement-checking throughput + ablations.

Three measurements around the paper's two-step proof structure:

* **code proofs**: co-simulation rate of MIR ``map_page`` against its
  flat spec (samples/second — the reproduction's analog of proof-
  checking time),
* **refinement**: R-checking rate between flat and tree views,
* **ablations** (DESIGN.md Sec. 6): tree-view vs flat-view query cost
  for the higher layers, counted in entries each walk reads (timing
  belongs to ``perfbench``, so the artifact stays a pure function of
  the code), and the temporary-lifting effect (memory writes during a
  pure-corpus execution must be zero).
"""

from repro.ccal.refinement import CoSimChecker, mir_impl
from repro.hyperenclave import pte
from repro.hyperenclave.constants import TINY
from repro.mir.value import mk_u64
from repro.reporting import render_table
from repro.spec import (
    abstract_table, flat_alloc_frame, flat_initial_state, flat_map_page,
    flat_query, relation_r, tree_empty, tree_map_page, tree_query,
)
from repro.spec.flat import flat_walk
from repro.spec.tree import tree_walk
from repro.verification import low_spec_for, sample_states

PAGE = TINY.page_size


def test_bench_cosim_map_page(benchmark, model):
    """Co-simulation throughput for the central stateful function."""
    impl = mir_impl(model.program, "map_page", trusted=model.trusted)
    spec = low_spec_for(model, "map_page")
    checker = CoSimChecker("map_page", impl, spec)
    samples = sample_states(model, "map_page", seed=5, count=24)

    report = benchmark(checker.check, samples)
    assert report.ok
    assert report.checked > 0


def _co_evolved(pages):
    layout = None
    from repro.hyperenclave.constants import MemoryLayout
    layout = MemoryLayout.default_for(TINY)
    state = flat_initial_state(TINY, layout.pt_pool_base,
                               layout.epc_base - layout.pt_pool_base)
    root, state = flat_alloc_frame(state)
    tree = tree_empty(TINY)
    for page_no in pages:
        before = state.bitmap
        state = flat_map_page(state, root, page_no * PAGE,
                              (page_no % 8) * PAGE, pte.leaf_flags())
        created = [TINY.frame_base(layout.pt_pool_base + i)
                   for i, (a, b) in enumerate(zip(before, state.bitmap))
                   if b and not a]
        tree = tree_map_page(tree, page_no * PAGE, (page_no % 8) * PAGE,
                             pte.leaf_flags(), TINY,
                             new_table_addrs=created)
    return tree, state, root


def test_bench_relation_r(benchmark, emit):
    """R-checking rate, plus the flat-vs-tree ablation table."""
    pages = [0, 1, 5, 17, 33, 42, 63, 80, 129, 200]
    pages = [p % 256 for p in pages]
    tree, state, root = _co_evolved(pages)

    def check_r():
        assert relation_r(tree, state, root)
        assert abstract_table(state, root) == tree
        return True

    assert benchmark(check_r)

    # Ablation: querying through the tree view vs walking flat memory,
    # counted in the entries each walk reads (records in the tree, PTE
    # words in flat memory).  Both views answer every query alike.
    queries = [p * PAGE for p in range(0, 256, 3)]
    answers = [tree_query(tree, va, TINY) for va in queries]
    assert answers == [flat_query(state, root, va) for va in queries]
    mapped = sum(answer is not None for answer in answers)
    tree_reads = sum(len(tree_walk(tree, va, TINY)[0]) for va in queries)
    flat_reads = sum(len(flat_walk(state, root, va)[0]) for va in queries)
    rows = [
        ["tree (high spec)", len(queries), mapped, tree_reads],
        ["flat (low spec)", len(queries), mapped, flat_reads],
    ]
    emit("refinement_ablation_views",
         render_table(["View", "Queries", "Mapped", "Entries read"], rows,
                      title="Ablation — query cost in entries read, "
                            "tree vs flat view"))


def test_bench_lifting_ablation(benchmark, model, emit):
    """Sec. 3.2 lifting: the pure corpus never writes object memory.

    65/77 paper functions are memory-free thanks to lifting; in our
    corpus every pure function runs with zero memory writes, and the
    bench measures the interpreter's speed on exactly that fragment.
    """
    from repro.verification import pure_function_names

    args_by_arity = {0: [], 1: [mk_u64(0x1234)],
                     2: [mk_u64(0x1200), mk_u64(7)],
                     3: [mk_u64(0x1000), mk_u64(0x400), mk_u64(0x1100)],
                     4: [mk_u64(0), mk_u64(0x400), mk_u64(0x200),
                         mk_u64(0x400)]}
    names = pure_function_names(model.config, model.layout)

    def run_pure_corpus():
        writes = 0
        for name in names:
            function = model.program.functions[name]
            if name == "entry_index":
                args = [mk_u64(0x1234), mk_u64(1)]
            elif name == "level_span":
                args = [mk_u64(2)]
            else:
                args = args_by_arity[len(function.params)]
            interp = model.make_interpreter()
            interp.call(name, args)
            writes += interp.memory.write_count
        return writes

    total_writes = benchmark(run_pure_corpus)
    emit("lifting_ablation",
         f"Sec 3.2 lifting ablation: {len(names)} pure functions "
         f"executed, {total_writes} object-memory writes (must be 0)")
    assert total_writes == 0
