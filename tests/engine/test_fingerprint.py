"""Fingerprint soundness: the memo key sees every mutation.

The memoised checkers are only sound if *any* state change a worker's
execution can make lands in some structure fingerprint.  Hypothesis
drives the two mutation planes the monitor exposes — raw physical
memory writes and the lock-guarded structure paths exercised by the
hypercall surface — and requires the fingerprints to move every time,
with :func:`~repro.engine.fingerprint.dirty_structures` naming the
right structure.  Determinism across rebuilds and clones is pinned
too: a fingerprint that drifted between a prototype and its clone
would silently poison every cache hit.
"""

import importlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import memo as memo_module
from repro.engine.fingerprint import (
    STRUCTURES,
    dirty_structures,
    fingerprint,
    state_fingerprint,
    structure_fingerprints,
)
from repro.faults.campaign import (
    build_interleaved_world,
    default_workload,
    default_world_factory,
    interleaving_campaign,
)
from repro.hyperenclave.constants import ARCH_CONFIGS, TINY
from repro.hyperenclave.enclave import EnclaveState
from repro.hyperenclave.hardware import FRAME_STATS
from repro.hyperenclave.txn import structure_values
from repro.obs.metrics import REGISTRY
from repro.reporting.tables import render_metrics

WORKLOAD = default_workload()

# the submodule, not the ``fingerprint`` function ``repro.engine``
# re-exports under the same name
FINGERPRINT = importlib.import_module("repro.engine.fingerprint")


def _frames_hashed(compute):
    """How many frames ``compute()`` re-hashed."""
    before = FRAME_STATS["frames_hashed"]
    compute()
    return FRAME_STATS["frames_hashed"] - before


def _cold(monitor):
    """``monitor``'s fingerprints recomputed from content alone: the
    fingerprints kept on its values and by physical memory dropped."""
    for value in (monitor.pt_allocator.value, monitor.epcm.value,
                  *(cpu.value for cpu in monitor.cpus)):
        vars(value).pop("fingerprint", None)
    monitor.phys._fingerprint = None
    monitor.phys._frame_fps.clear()
    monitor.phys._dirty_frames = set(range(monitor.config.phys_frames))
    return structure_fingerprints(monitor)


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_any_phys_write_changes_the_fingerprint(data):
    monitor, _ctx = default_world_factory()()
    frame = data.draw(st.integers(0, 30), label="frame")
    offset = data.draw(st.integers(0, TINY.words_per_page - 1),
                       label="word")
    paddr = TINY.frame_base(frame) + offset * 8
    value = data.draw(
        st.integers(1, (1 << 64) - 1).filter(
            lambda v: v != monitor.phys.read_word(paddr)),
        label="value")
    before = structure_fingerprints(monitor)
    monitor.phys.write_word(paddr, value)
    after = structure_fingerprints(monitor)
    assert dirty_structures(before, after) == ("phys",)
    assert fingerprint(monitor, after) != fingerprint(monitor, before)


@given(prefix=st.integers(1, len(WORKLOAD)))
@settings(max_examples=len(WORKLOAD), deadline=None)
def test_every_hypercall_of_a_random_prefix_moves_the_fingerprint(prefix):
    monitor, ctx = default_world_factory()()
    fps = structure_fingerprints(monitor)
    last = fingerprint(monitor, fps)
    for _name, invoke in WORKLOAD[:prefix]:
        invoke(monitor, ctx)
        fps = structure_fingerprints(monitor)
        combined = fingerprint(monitor, fps)
        # every hypercall mutates some covered structure, so the
        # combined fingerprint must move step over step (a *revisit*
        # of an earlier state — aug then trim — is legal; a missed
        # mutation is not)
        assert combined != last
        last = combined


def test_lock_structure_paths_name_their_structure():
    monitor, ctx = default_world_factory()()
    before = structure_fingerprints(monitor)
    monitor.pt_allocator.alloc()
    after = structure_fingerprints(monitor)
    assert dirty_structures(before, after) == ("frames",)
    before = after
    monitor.cpus[0].vcpu.write_reg("rax", 0xC0FFEE)
    after = structure_fingerprints(monitor)
    assert dirty_structures(before, after) == ("cpus",)


@given(prefix=st.integers(0, len(WORKLOAD)))
@settings(max_examples=6, deadline=None)
def test_fingerprints_are_stable_across_rebuilds(prefix):
    """Two independently built worlds running the same prefix agree on
    every structure fingerprint — the cross-run half of the memo-key
    contract (cross-*process* stability rides on the same canonical
    encoding plus the executor's forked workers)."""
    results = []
    for _ in range(2):
        monitor, ctx = default_world_factory()()
        for _name, invoke in WORKLOAD[:prefix]:
            invoke(monitor, ctx)
        results.append(structure_fingerprints(monitor))
    assert results[0] == results[1]


def test_clone_preserves_every_fingerprint():
    state, _ctx = build_interleaved_world()
    clone = state.clone()
    assert (structure_fingerprints(clone.monitor)
            == structure_fingerprints(state.monitor))
    assert state_fingerprint(clone) == state_fingerprint(state)


def test_structure_list_matches_fingerprint_dict():
    monitor, _ctx = default_world_factory()()
    fps = structure_fingerprints(monitor)
    assert tuple(fps) == STRUCTURES


@given(prefix=st.integers(0, len(WORKLOAD)))
@settings(max_examples=6, deadline=None)
def test_cloned_clean_fingerprints_match_recomputation(prefix):
    """Fingerprints kept on the values a clone shares are sound: for
    structures the clone has not touched, the kept fingerprint equals
    a cold recomputation — and a mutation after the clone (a new value)
    does not reuse it."""
    monitor, ctx = default_world_factory()()
    for _name, invoke in WORKLOAD[:prefix]:
        invoke(monitor, ctx)
    warm = structure_fingerprints(monitor)   # kept on the values
    clone = monitor.clone()
    cached = structure_fingerprints(clone)   # read off the shared values
    cold = _cold(clone)                      # recomputed from content
    assert cached == cold == warm
    paddr = TINY.frame_base(0)
    clone.phys.write_word(paddr,
                          clone.phys.read_word(paddr) ^ 0xDEAD)
    moved = structure_fingerprints(clone)
    assert moved["phys"] != cold["phys"]
    # the original's cache is untouched by the clone's mutation
    assert structure_fingerprints(monitor) == warm


def test_a_mutation_replaces_the_value_and_a_clone_shares_it():
    """A clone holds the very value objects of its source (the
    directory apart: it maps the rebound enclaves), and a mutation of
    either stores a new value, leaving the other's alone."""
    monitor, ctx = default_world_factory()()
    for _name, invoke in WORKLOAD[:2]:
        invoke(monitor, ctx)
    before = dict(structure_values(monitor))
    clone = monitor.clone()
    for name, value in structure_values(clone):
        if name != "enclaves":
            assert value is before[name], name
    clone.pt_allocator.alloc()
    clone.cpus[0].write_reg("rax", 7)
    clone.enclaves[ctx["eid"]].state = EnclaveState.DESTROYED
    after = dict(structure_values(clone))
    assert after["frames"] is not before["frames"]
    assert after["cpu:0"] is not before["cpu:0"]
    assert after[f"enclave:{ctx['eid']}"] is not before[
        f"enclave:{ctx['eid']}"]
    assert after["epcm"] is before["epcm"]
    assert dict(structure_values(monitor)) == before


@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_a_clone_rehashes_only_its_own_writes(data):
    """A clone re-hashes exactly the frames written after the clone
    (the clone brought the digest table up to date), and its
    fingerprints equal a cold recomputation."""
    monitor, ctx = default_world_factory()()
    prefix = data.draw(st.integers(0, len(WORKLOAD)), label="prefix")
    for _name, invoke in WORKLOAD[:prefix]:
        invoke(monitor, ctx)
    clone = monitor.clone()
    written = data.draw(st.sets(st.integers(0, TINY.phys_frames - 1),
                                max_size=6), label="frames")
    for frame in written:
        paddr = TINY.frame_base(frame) + 8 * data.draw(
            st.integers(0, TINY.words_per_page - 1), label="word")
        clone.phys.write_word(paddr, data.draw(
            st.integers(0, (1 << 64) - 1), label="value"))
    fps = {}
    assert _frames_hashed(
        lambda: fps.update(structure_fingerprints(clone))) == len(written)
    assert fps == _cold(clone)


def test_fingerprinting_twice_hashes_nothing_the_second_time(
        monkeypatch):
    """Physical memory keeps its digest, and the bitmap, the EPCM and
    every vCPU keep theirs on their values: a second pass over an
    unchanged monitor re-hashes no frame and renders no value."""
    monitor, ctx = default_world_factory()()
    for _name, invoke in WORKLOAD:
        invoke(monitor, ctx)
    first = {}
    assert _frames_hashed(
        lambda: first.update(structure_fingerprints(monitor))) > 0
    rendered = []
    for name in ("_frames_fp", "_epcm_fp", "_render_cpu"):
        original = getattr(FINGERPRINT, name)
        monkeypatch.setattr(FINGERPRINT, name, lambda *args, fn=original: (
            rendered.append(fn), fn(*args))[1])
    second = {}
    assert _frames_hashed(
        lambda: second.update(structure_fingerprints(monitor))) == 0
    assert rendered == []
    assert second == first


#: arch -> frames re-hashed by a seed-0 bound-2 campaign (178
#: schedules, full battery): 6,408 when no clone source was warmed,
#: 2,202 before leaf runs spliced the suffixes of earlier runs (a
#: spliced run's final state is a clone of a warm frozen one).
FRAMES_HASHED_BOUND2 = {"x86_64": 1348, "vmsav8_64": 1348}


@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
def test_bound2_campaign_fingerprints_each_state_once(arch, monkeypatch):
    """Pinned per arch at bound 2: the frames the campaign re-hashes,
    and two structure-fingerprint passes per schedule — one per world
    (five when every (vCPU, observer) diff re-fingerprinted both)."""
    passes = []
    original = FINGERPRINT.structure_fingerprints

    def counted(monitor):
        passes.append(monitor)
        return original(monitor)

    monkeypatch.setattr(FINGERPRINT, "structure_fingerprints", counted)
    monkeypatch.setattr(memo_module, "structure_fingerprints", counted)
    result = {}
    hashed = _frames_hashed(lambda: result.update(run=interleaving_campaign(
        seed=0, preemption_bound=2, config=ARCH_CONFIGS[arch])))
    schedules = result["run"].schedules_run
    assert schedules == 178 and result["run"].ok
    assert hashed == FRAMES_HASHED_BOUND2[arch]
    assert len(passes) == 2 * schedules


def test_frames_hashed_surfaces_in_render_metrics():
    """The re-hashed frame count is a registry counter, so a library
    run reads it from ``render_metrics`` (and the daemon's
    ``/metrics``) without a profiler."""
    before = REGISTRY.snapshot()
    monitor, _ctx = default_world_factory()()
    structure_fingerprints(monitor)
    delta = REGISTRY.delta(before)["counters"]
    assert delta["fingerprint.frames_hashed"] >= len(
        monitor.phys.frame_digests()) > 0
    assert "fingerprint.frames_hashed" in render_metrics(REGISTRY.snapshot())


_COMBINED = """
import sys
from repro.engine.fingerprint import fingerprint
from repro.hyperenclave.constants import ARCH_CONFIGS
from tests.conftest import build_enclave_world

for arch, config in sorted(ARCH_CONFIGS.items()):
    monitor, _app, eid = build_enclave_world(config=config)
    print(arch, monitor.enclaves[eid].measurement, fingerprint(monitor))
"""


def test_fingerprints_are_stable_across_hash_seeds():
    """Two fresh interpreters with different ``PYTHONHASHSEED`` give
    every arch's enclave world the same measurement and combined
    fingerprint: nothing a fingerprint covers rides on salted
    ``hash``, which memo logs and a campaign resumed after ``kill -9``
    in a new process rely on."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    outputs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       (os.path.join(root, "src"), root)))
        outputs.append(subprocess.run(
            [sys.executable, "-c", _COMBINED], cwd=root, env=env,
            check=True, capture_output=True, text=True).stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == len(ARCH_CONFIGS)
