"""The co-simulation corpus, rendered once per arch.

Every stateful (co-simulated) verdict of ``verify_corpus`` at seed 0,
for each entry of :data:`~repro.hyperenclave.constants.ARCH_CONFIGS`:
the function's layer, how many of its samples were checked and how many
fell outside its spec's precondition (skipped), and what its check runs
as specs instead of bodies — the stateful callees answered by their low
specs and the pure callees answered by their references — or "whole
stack" for the one hypercall checked with every body inlined.  A
function that calls only layer-0 primitives binds nothing ("-").

The skipped column is the coverage gap that precondition-meeting
samples are meant to close.  The artifact carries counts only, so it is
a pure function of the code: wall-clock time to verdict is perfbench's
job.
"""

from repro.hyperenclave.constants import ARCH_CONFIGS
from repro.hyperenclave.mir_model import build_model
from repro.reporting import render_table
from repro.verification import (
    bound_callees,
    pure_function_names,
    verify_corpus,
)
from repro.verification.code_proofs import WHOLE_STACK_LAYER


def arch_section(arch, config):
    """One arch's table, after asserting the corpus verifies."""
    model = build_model(config)
    report = verify_corpus(model, seed=0)
    assert report.ok, report.summary()
    pure = set(pure_function_names(model.config, model.layout))
    rows = []
    for verdict in report.verdicts:
        if verdict.method != "cosim":
            continue
        callees = bound_callees(model, verdict.name)
        if verdict.layer == WHOLE_STACK_LAYER:
            specs = references = "whole stack"
        else:
            specs = ", ".join(c for c in callees if c not in pure) or "-"
            references = ", ".join(c for c in callees if c in pure) or "-"
        rows.append([verdict.name, verdict.layer, verdict.checked,
                     verdict.skipped, specs, references])
    checked = sum(row[2] for row in rows)
    skipped = sum(row[3] for row in rows)
    return [
        f"== {arch} ({config.name}) ==",
        "",
        render_table(["Function", "Layer", "Checked", "Skipped",
                      "Callee specs", "Pure references"], rows),
        f"total: {len(rows)} verdicts, {checked} samples checked, "
        f"{skipped} outside a precondition, 0 failures",
    ]


def test_bench_cosim_corpus(emit):
    sections = ["Co-simulation corpus — stateful verdicts at seed 0, each "
                "checked against its callees' specs"]
    for arch, config in ARCH_CONFIGS.items():
        sections.append("")
        sections.extend(arch_section(arch, config))
    emit("cosim_corpus", "\n".join(sections))
