"""Physical memory (sparse-but-dense-semantics), TLB, vCPU."""

import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.concurrency import scheduler as conc
from repro.errors import FaultInjected, HypervisorError
from repro.faults import plane as faults
from repro.hyperenclave.constants import TINY, TINY_ARM
from repro.hyperenclave.hardware import (
    GPR_NAMES,
    CpuLocal,
    PhysMemory,
    Tlb,
    VCpu,
)
from repro.hyperenclave.txn import TxnScope


class TestPhysMemory:
    def test_reads_as_zero_initially(self):
        phys = PhysMemory(TINY)
        assert phys.read_word(0) == 0
        assert phys.read_word(TINY.phys_bytes - 8) == 0

    def test_write_read_roundtrip(self):
        phys = PhysMemory(TINY)
        phys.write_word(0x100, 0xDEADBEEF)
        assert phys.read_word(0x100) == 0xDEADBEEF

    def test_write_masks_to_64_bits(self):
        phys = PhysMemory(TINY)
        phys.write_word(0, 2 ** 70 + 5)
        assert phys.read_word(0) == (2 ** 70 + 5) % 2 ** 64

    def test_unaligned_access_rejected(self):
        phys = PhysMemory(TINY)
        with pytest.raises(HypervisorError, match="unaligned"):
            phys.read_word(3)

    def test_out_of_range_rejected(self):
        phys = PhysMemory(TINY)
        with pytest.raises(HypervisorError, match="out of range"):
            phys.read_word(TINY.phys_bytes)
        with pytest.raises(HypervisorError):
            phys.write_word(-8, 1)

    def test_zero_frame(self):
        phys = PhysMemory(TINY)
        base = TINY.frame_base(3)
        phys.write_word(base, 7)
        phys.write_word(base + 8, 9)
        phys.zero_frame(3)
        assert phys.frame_words(3) == (0,) * TINY.words_per_page

    def test_copy_frame_copies_zeros_too(self):
        phys = PhysMemory(TINY)
        phys.write_word(TINY.frame_base(1), 5)
        phys.write_word(TINY.frame_base(2), 8)      # dst has stale data
        phys.write_word(TINY.frame_base(2) + 8, 9)
        phys.copy_frame(2, 1)
        assert phys.frame_words(2) == phys.frame_words(1)
        assert phys.read_word(TINY.frame_base(2) + 8) == 0

    def test_snapshot_equality_means_equal_contents(self):
        a, b = PhysMemory(TINY), PhysMemory(TINY)
        a.write_word(0x10, 4)
        b.write_word(0x10, 4)
        assert a.snapshot() == b.snapshot()
        b.write_word(0x18, 1)
        assert a.snapshot() != b.snapshot()
        b.write_word(0x18, 0)  # writing zero restores sparseness
        assert a.snapshot() == b.snapshot()

    def test_load_snapshot(self):
        a = PhysMemory(TINY)
        a.write_word(0x20, 11)
        b = PhysMemory(TINY)
        b.load_snapshot(a.snapshot())
        assert b.read_word(0x20) == 11

    @given(st.lists(st.tuples(st.integers(0, TINY.phys_bytes // 8 - 1),
                              st.integers(0, 2 ** 64 - 1)), max_size=20))
    def test_dense_semantics(self, writes):
        """Sparse storage must behave exactly like a dense zero array."""
        phys = PhysMemory(TINY)
        dense = {}
        for index, value in writes:
            phys.write_word(index * 8, value)
            dense[index] = value
        for index, value in dense.items():
            assert phys.read_word(index * 8) == value

    @pytest.mark.parametrize("op", [
        lambda phys: phys.zero_frame(-1),
        lambda phys: phys.zero_frame(TINY.phys_frames),
        lambda phys: phys.copy_frame(200, 1),
        lambda phys: phys.copy_frame(1, -1),
        lambda phys: phys.frame_words(TINY.phys_frames),
    ])
    def test_frame_out_of_range_rejected(self, op):
        """A frame outside the machine is refused, like an address:
        ``copy_frame(200, 1)`` on 128 frames used to store a word
        ``read_word`` refuses, and ``zero_frame(-1)`` marked frame -1
        dirty."""
        phys = PhysMemory(TINY)
        phys.write_word(TINY.frame_base(1), 5)
        before = phys.snapshot()
        with pytest.raises(HypervisorError, match="out of range"):
            op(phys)
        assert phys.snapshot() == before
        assert set(phys.frame_digests()) == {1}

    def test_nonzero_words(self):
        phys = PhysMemory(TINY)
        phys.write_word(0x10, 4)
        phys.write_word(0x18, 0)
        phys.write_word(TINY.frame_base(2), 1)
        assert phys.nonzero_words() == 2


# -- frame operations against a dense per-word reference -------------------------

MASK = (1 << 64) - 1


class DensePhys:
    """The reference: one list slot per word, every frame operation
    word by word, and a first-write-wins journal of every word written
    (zeros included)."""

    def __init__(self, config):
        self.wpp = config.words_per_page
        self.words = [0] * (config.phys_frames * self.wpp)
        self.journal = {}

    def write(self, index, value):
        self.journal.setdefault(index, self.words[index])
        self.words[index] = value & MASK

    def zero_frame(self, frame):
        for offset in range(self.wpp):
            self.write(frame * self.wpp + offset, 0)

    def copy_frame(self, dst, src):
        for offset in range(self.wpp):
            self.write(dst * self.wpp + offset,
                       self.words[src * self.wpp + offset])

    def load(self, items):
        self.words = [0] * len(self.words)
        for index, value in items:
            self.words[index] = value

    def rollback(self):
        for index, value in self.journal.items():
            self.words[index] = value

    def snapshot(self):
        return tuple((i, v) for i, v in enumerate(self.words) if v)

    def frame_words(self, frame):
        return tuple(self.words[frame * self.wpp:(frame + 1) * self.wpp])

    def frame_digests(self):
        """The digest of every nonzero frame, recomputed from the words
        (operations only touch :data:`FRAMES`)."""
        digests = {}
        for frame in FRAMES:
            content = tuple((offset, word) for offset, word
                            in enumerate(self.frame_words(frame)) if word)
            if content:
                digests[frame] = hashlib.blake2b(
                    repr(content).encode(), digest_size=8).digest()
        return digests


#: A few frames, so operations keep landing on each other's words.
FRAMES = (0, 1, 2, 5, 127)

WORD_VALUES = st.one_of(st.just(0), st.integers(1, 3),
                        st.integers(0, 2 ** 64 - 1), st.just(2 ** 64))


def _ops(wpp, mutators_only=False):
    word = st.tuples(st.sampled_from(FRAMES), st.integers(0, wpp - 1))
    branches = [
        st.tuples(st.just("write"), word, WORD_VALUES),
        st.tuples(st.just("zero"), st.sampled_from(FRAMES)),
        st.tuples(st.just("copy"), st.sampled_from(FRAMES),
                  st.sampled_from(FRAMES)),
    ]
    if not mutators_only:
        branches += [
            st.tuples(st.just("clone")),
            st.tuples(st.just("digests")),
            st.tuples(st.just("save")),
            st.tuples(st.just("load_snapshot"), st.integers(0, 3)),
            st.tuples(st.just("restore_checkpoint"), st.integers(0, 3)),
        ]
    return st.lists(st.one_of(*branches), max_size=25)


def _machine(config):
    """A phys store plus the one CPU a TxnScope rollback restores."""
    return SimpleNamespace(phys=PhysMemory(config),
                           cpus=[CpuLocal(vcpu=VCpu(), tlb=Tlb())])


def _in_txn(machine, scope, body):
    """Run ``body`` as a scheduled vCPU task inside ``scope``."""
    def task():
        conc.current_task().txn_scope = scope
        body()

    result = conc.DeterministicScheduler(machine, [task]).run()
    for exc in result.task_errors.values():
        raise exc


def _apply(machine, ref, ops, eager):
    """Apply ``ops`` to the store and the reference side by side.

    ``eager`` compares frame digests after every operation instead of
    only at ``digests`` ops.  Returns the stores ``clone`` left behind,
    each with the reference contents and digests it must keep."""
    wpp = ref.wpp
    saved, left = [], []
    for op in ops:
        phys = machine.phys
        if op[0] == "write":
            (frame, offset), value = op[1], op[2]
            phys.write_word((frame * wpp + offset) * 8, value)
            ref.write(frame * wpp + offset, value)
        elif op[0] == "zero":
            phys.zero_frame(op[1])
            ref.zero_frame(op[1])
        elif op[0] == "copy":
            phys.copy_frame(op[1], op[2])
            ref.copy_frame(op[1], op[2])
        elif op[0] == "clone":
            left.append((phys, ref.snapshot(), ref.frame_digests()))
            machine.phys = phys.clone()
        elif op[0] == "save":
            saved.append((phys.snapshot(), phys.checkpoint()))
        elif op[0] != "digests" and saved:
            snapshot, checkpoint = saved[op[1] % len(saved)]
            if op[0] == "load_snapshot":
                phys.load_snapshot(snapshot)
            else:
                phys.restore_checkpoint(checkpoint)
            ref.load(snapshot)
        if eager or op[0] == "digests":
            assert machine.phys.frame_digests() == ref.frame_digests()
        for frame in FRAMES:
            assert machine.phys.frame_words(frame) == ref.frame_words(frame)
    return left


class TestFrameOpsDifferential:
    @pytest.mark.parametrize("config", [TINY, TINY_ARM],
                             ids=["x86_64", "vmsav8_64"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_dense_reference_in_a_transaction(self, config, data):
        ops = data.draw(_ops(config.words_per_page))
        machine, ref = _machine(config), DensePhys(config)
        setup = data.draw(_ops(config.words_per_page, mutators_only=True))
        _apply(machine, ref, setup, eager=False)
        ref.journal.clear()
        eager = data.draw(st.booleans())
        scope = TxnScope.begin(machine, 0)
        left = []
        _in_txn(machine, scope,
                lambda: left.extend(_apply(machine, ref, ops, eager)))
        for old, snapshot, digests in left:
            assert old.snapshot() == snapshot
            assert old.frame_digests() == digests
        phys = machine.phys
        assert phys.snapshot() == ref.snapshot()
        assert list(scope.journal.items()) == list(ref.journal.items())
        assert phys.frame_digests() == ref.frame_digests()
        scope.rollback(machine)
        ref.rollback()
        assert machine.phys.snapshot() == ref.snapshot()
        assert machine.phys.frame_digests() == ref.frame_digests()

    @pytest.mark.parametrize("config", [TINY, TINY_ARM],
                             ids=["x86_64", "vmsav8_64"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_copy_frame_fault_sites_match_word_writes(self, config, data):
        """Under a plane, ``copy_frame`` hits ``phys.write`` and
        ``phys.flip`` once per word, with the labels, flipped word and
        journal of the same copy done through ``write_word``."""
        wpp = config.words_per_page
        src, dst = data.draw(st.sampled_from(FRAMES)), \
            data.draw(st.sampled_from(FRAMES))
        site = data.draw(st.sampled_from((faults.SITE_PHYS_WRITE,
                                          faults.SITE_PHYS_FLIP)))
        kind = data.draw(st.sampled_from((faults.FLIP, faults.RAISE)))
        hit = data.draw(st.integers(0, wpp - 1))
        words = data.draw(st.lists(st.integers(0, 2 ** 64 - 1),
                                   min_size=2 * wpp, max_size=2 * wpp))

        def run(copy):
            machine = _machine(config)
            for offset in range(wpp):
                machine.phys.write_word(
                    config.frame_base(src) + 8 * offset, words[offset])
                machine.phys.write_word(
                    config.frame_base(dst) + 8 * offset, words[wpp + offset])
            plane = faults.FaultPlane(seed=3).arm(site, hit, kind)
            scope = TxnScope.begin(machine, 0)

            def body():
                try:
                    copy(machine.phys)
                except FaultInjected:
                    pass

            with faults.installed(plane):
                _in_txn(machine, scope, body)
            return (plane.counts, plane.hit_labels, plane.fired,
                    machine.phys.snapshot(),
                    list(scope.journal.items()))

        def word_by_word(phys):
            for offset in range(wpp):
                phys.write_word(
                    config.frame_base(dst) + 8 * offset,
                    phys.read_word(config.frame_base(src) + 8 * offset))

        assert run(lambda phys: phys.copy_frame(dst, src)) == \
            run(word_by_word)


class TestTlb:
    def test_insert_lookup(self):
        tlb = Tlb()
        tlb.insert(asid=1, va_page=0x10, pa_page=0x99)
        assert tlb.lookup(1, 0x10) == 0x99
        assert tlb.lookup(2, 0x10) is None

    def test_flush_all(self):
        tlb = Tlb()
        tlb.insert(1, 1, 1)
        tlb.flush_all()
        assert len(tlb) == 0
        assert tlb.flush_count == 1

    def test_flush_asid_selective(self):
        tlb = Tlb()
        tlb.insert(1, 1, 1)
        tlb.insert(2, 1, 2)
        tlb.flush_asid(1)
        assert tlb.lookup(1, 1) is None
        assert tlb.lookup(2, 1) == 2


class TestVCpu:
    def test_register_roundtrip(self):
        vcpu = VCpu()
        vcpu.write_reg("rax", 5)
        assert vcpu.read_reg("rax") == 5

    def test_unknown_register_rejected(self):
        with pytest.raises(HypervisorError):
            VCpu().write_reg("r99", 1)

    def test_values_wrap_to_64_bits(self):
        vcpu = VCpu()
        vcpu.write_reg("rbx", 2 ** 64 + 3)
        assert vcpu.read_reg("rbx") == 3

    def test_context_save_restore(self):
        vcpu = VCpu()
        vcpu.write_reg("rax", 1)
        saved = vcpu.context()
        vcpu.write_reg("rax", 2)
        vcpu.restore(saved)
        assert vcpu.read_reg("rax") == 1

    def test_context_covers_all_gprs(self):
        assert {name for name, _ in VCpu().context()} == set(GPR_NAMES)

    def test_clone_is_independent(self):
        vcpu = VCpu()
        clone = vcpu.clone()
        clone.write_reg("rax", 9)
        assert vcpu.read_reg("rax") == 0
