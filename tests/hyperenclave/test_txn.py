"""Transactional hypercalls: every faulted step rolls back completely.

The ISSUE-1 satellite: for each hypercall, inject a fault at every
injectable step index and assert the monitor state equals the
pre-hypercall state — explicitly (EPCM array, allocator bitmap, GPT/EPT
queries, physical memory), not just via the aggregate digest.
"""

import copy
from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    EpcExhausted,
    FaultInjected,
    HypercallAborted,
    HypercallError,
    OutOfMemoryError,
    ReproError,
    ResourceExhausted,
)
from repro.faults import (
    EXHAUST,
    FaultPlane,
    default_workload,
    default_world_factory,
    enumerate_injectable_steps,
    hypercall_site,
    installed,
)
from repro.faults.campaign import (
    DEFAULT_SITES,
    _KIND_FOR_SITE,
    RAISE,
    scheduled_runner,
)
from repro.hyperenclave.constants import ARCH_CONFIGS, TINY
from repro.hyperenclave.monitor import RustMonitor
from repro.hyperenclave.txn import monitor_digest, structure_values

FACTORY = default_world_factory()
CALLS = default_workload()
STEP_TABLE = enumerate_injectable_steps(FACTORY, CALLS)


def world_at(index):
    monitor, ctx = FACTORY()
    for _name, invoke in CALLS[:index]:
        invoke(monitor, ctx)
    return monitor, ctx


def explicit_state(monitor, ctx):
    """The satellite's explicit projection: EPCM, bitmap, translations."""
    queries = {}
    for eid, enclave in monitor.enclaves.items():
        page = ctx["page"]
        for offset in range(0, enclave.elrange_size, page):
            va = enclave.elrange_base + offset
            queries[(eid, "gpt", va)] = enclave.gpt.query(va)
            queries[(eid, "ept", enclave.elrange_gpa(va))] = \
                enclave.ept.query(enclave.elrange_gpa(va))
    return {
        "epcm": monitor.epcm.snapshot(),
        "bitmap": monitor.pt_allocator.snapshot(),
        "phys": monitor.phys.snapshot(),
        "queries": queries,
        "states": {eid: enclave.state
                   for eid, enclave in monitor.enclaves.items()},
    }


def all_faultable_triples():
    triples = []
    for index, (name, _invoke) in enumerate(CALLS):
        for site, hits in sorted(STEP_TABLE[index].items()):
            for step in range(hits):
                triples.append((index, name, site, step))
    return triples


class TestRollbackEveryStep:
    @pytest.mark.parametrize(
        "index,name,site,step",
        [pytest.param(i, n, s, k, id=f"{i}-{n}:{s}@{k}")
         for i, n, s, k in all_faultable_triples()])
    def test_faulted_hypercall_restores_pre_state(self, index, name,
                                                  site, step):
        monitor, ctx = world_at(index)
        before = explicit_state(monitor, ctx)
        digest_before = monitor_digest(monitor)
        plane = FaultPlane(seed=0).arm(
            site, index=step, kind=_KIND_FOR_SITE.get(site, RAISE))
        with installed(plane):
            with pytest.raises(HypercallAborted) as excinfo:
                CALLS[index][1](monitor, ctx)
        assert plane.fired, "the armed fault must actually fire"
        assert excinfo.value.hypercall == f"hc_{name}"
        after = explicit_state(monitor, ctx)
        assert after["epcm"] == before["epcm"]
        assert after["bitmap"] == before["bitmap"]
        assert after["phys"] == before["phys"]
        assert after["queries"] == before["queries"]
        assert after["states"] == before["states"]
        assert monitor_digest(monitor) == digest_before

    def test_every_hypercall_has_at_least_one_injectable_step(self):
        for index, (name, _invoke) in enumerate(CALLS):
            assert STEP_TABLE[index].get(hypercall_site(name)), \
                f"{name} declares no crash points"


class TestAbortSemantics:
    def test_abort_carries_typed_cause(self):
        monitor, ctx = world_at(1)  # before add_page
        plane = FaultPlane().arm("frames.alloc", index=0, kind=EXHAUST)
        with installed(plane):
            with pytest.raises(HypercallAborted) as excinfo:
                CALLS[1][1](monitor, ctx)
        assert isinstance(excinfo.value.cause, OutOfMemoryError)
        assert isinstance(excinfo.value.cause, ResourceExhausted)

    def test_epc_exhaustion_is_typed_and_rolled_back(self):
        monitor, ctx = world_at(1)
        digest = monitor_digest(monitor)
        plane = FaultPlane().arm("epcm.allocate", index=0, kind=EXHAUST)
        with installed(plane):
            with pytest.raises(HypercallAborted) as excinfo:
                CALLS[1][1](monitor, ctx)
        assert isinstance(excinfo.value.cause, EpcExhausted)
        assert monitor_digest(monitor) == digest

    def test_organic_exhaustion_also_rolls_back(self):
        # Drain the EPC for real (no injection): the failing add_page
        # must still roll back its partial work.
        monitor, ctx = world_at(1)
        while True:
            try:
                monitor.epcm.allocate(999, __import__(
                    "repro.hyperenclave.epcm",
                    fromlist=["PageState"]).PageState.REG)
            except EpcExhausted:
                break
        digest = monitor_digest(monitor)
        with pytest.raises(HypercallAborted) as excinfo:
            CALLS[1][1](monitor, ctx)
        assert isinstance(excinfo.value.cause, EpcExhausted)
        assert monitor_digest(monitor) == digest

    def test_validation_rejection_still_raises_plain_hypercall_error(self):
        monitor, ctx = world_at(0)
        with pytest.raises(HypercallError) as excinfo:
            monitor.hc_add_page(999, 0, 0)
        assert not isinstance(excinfo.value, HypercallAborted)

    def test_fault_outside_transaction_escapes_raw(self):
        monitor, _ctx = world_at(0)
        plane = FaultPlane().arm("frames.alloc", index=0)
        with installed(plane):
            with pytest.raises(FaultInjected):
                monitor.pt_allocator.alloc()


class DigestAtFault(FaultPlane):
    """A plane that raises at the armed hit and keeps the monitor's
    digest as it was there, mid-hypercall."""

    def __init__(self, monitor):
        super().__init__()
        self.monitor = monitor
        self.digest = None

    def hit(self, site, label=None):
        try:
            return super().hit(site, label=label)
        except FaultInjected:
            self.digest = monitor_digest(self.monitor)
            raise


class TestCheckpointRestore:
    @pytest.mark.parametrize(
        "index", range(len(CALLS)),
        ids=[f"{i}-{name}" for i, (name, _invoke) in enumerate(CALLS)])
    def test_abort_at_the_last_crash_point_rolls_back(self, index):
        """Each call of the workload, aborted at the last of its own
        crash points, leaves the pre-call digest behind although the
        digest had moved by then.  ``init`` alone commits its one
        mutation after its only crash point; unaborted, it moves the
        digest too."""
        name, invoke = CALLS[index]
        site = hypercall_site(name)
        monitor, ctx = world_at(index)
        digest = monitor_digest(monitor)
        plane = DigestAtFault(monitor).arm(
            site, index=STEP_TABLE[index][site] - 1)
        with installed(plane):
            with pytest.raises(HypercallAborted):
                invoke(monitor, ctx)
        assert monitor_digest(monitor) == digest
        if name == "init":
            assert plane.digest == digest
            invoke(monitor, ctx)
            assert monitor_digest(monitor) != digest
        else:
            assert plane.digest != digest

    def test_digest_ignores_tlb_flush_count(self):
        monitor, _ctx = world_at(2)
        digest = monitor_digest(monitor)
        monitor.tlb.flush_all()
        assert monitor_digest(monitor) == digest

    def test_digest_sees_epc_content(self):
        monitor, ctx = world_at(2)
        digest = monitor_digest(monitor)
        enclave = monitor.enclaves[ctx["eid"]]
        hpa = monitor.enclave_translate(ctx["eid"], ctx["elrange_base"],
                                        write=False)
        monitor.phys.write_word(hpa, 0x1234)
        assert monitor_digest(monitor) != digest


def _read(monitor):
    """Every value ``monitor``'s structures hold — the bitmap, the EPCM
    array, each enclave's triple and each vCPU's — with a deep copy
    taken now (the directory holds enclave objects, not a value of its
    own, and is left out)."""
    return [(value, copy.deepcopy(value))
            for name, value in structure_values(monitor)
            if name != "enclaves"]


def _direct(invoke, monitor, ctx):
    invoke(monitor, ctx)


@pytest.mark.parametrize("arch", sorted(ARCH_CONFIGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_value_once_read_never_changes(arch, data):
    """What sharing values rests on: no value is ever changed in place.

    Random workload steps run on a monitor and on its clones, some
    aborted under a fault plane, sequentially or as a scheduled vCPU
    task whose transaction scope rolls back; after every step each
    value read before it still equals the deep copy taken when it was
    read."""
    monitor, ctx = default_world_factory(ARCH_CONFIGS[arch])()
    ctx["eid"] = 1
    worlds = [(monitor, ctx)]
    read = []
    for _ in range(data.draw(st.integers(1, 12), label="steps")):
        for monitor, _ctx in worlds:
            read.extend(_read(monitor))
        monitor, ctx = worlds[data.draw(
            st.integers(0, len(worlds) - 1), label="world")]
        action = data.draw(st.sampled_from(
            ("step", "clone", "abort", "scoped abort")), label="action")
        if action == "clone":
            worlds.append((monitor.clone(), dict(ctx)))
        else:
            _name, invoke = data.draw(st.sampled_from(CALLS), label="call")
            plane = None if action == "step" else FaultPlane().arm(
                data.draw(st.sampled_from(DEFAULT_SITES), label="site"),
                index=data.draw(st.integers(0, 3), label="hit"))
            runner = scheduled_runner if action == "scoped abort" \
                else _direct
            try:
                with installed(plane) if plane else nullcontext():
                    runner(invoke, monitor, ctx)
            except (FaultInjected, ReproError):
                pass
        for value, kept in read:
            assert value == kept
