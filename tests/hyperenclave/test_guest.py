"""The untrusted side: guest-physical access, GPT building, probing."""

import pytest

from repro.concurrency import scheduler as conc
from repro.errors import TranslationFault
from repro.faults import plane as faults
from repro.hyperenclave import pte
from repro.hyperenclave.constants import TINY, TINY_ARM
from repro.hyperenclave.monitor import RustMonitor

from tests.conftest import build_enclave_world

PAGE = TINY.page_size


class TestGpaAccess:
    def test_untrusted_read_write(self, monitor):
        primary_os = monitor.primary_os
        primary_os.gpa_write_word(0x100, 0x42)
        assert primary_os.gpa_read_word(0x100) == 0x42

    def test_secure_access_faults(self, monitor):
        secure_gpa = TINY.frame_base(monitor.layout.secure_base)
        with pytest.raises(TranslationFault):
            monitor.primary_os.gpa_read_word(secure_gpa)
        with pytest.raises(TranslationFault):
            monitor.primary_os.gpa_write_word(secure_gpa, 1)

    def test_dma_goes_through_same_checks(self, monitor):
        with pytest.raises(TranslationFault):
            monitor.primary_os.dma_write(
                TINY.frame_base(monitor.layout.epc_base), 0x41)
        monitor.primary_os.dma_write(0x200, 0x41)  # untrusted ok


class TestGptConstruction:
    def test_spawn_app_and_map_data(self, monitor):
        app = monitor.primary_os.spawn_app(1)
        gpa = monitor.primary_os.app_map_data(app, 6 * PAGE)
        monitor.primary_os.store(app, 6 * PAGE, 0x77)
        assert monitor.primary_os.load(app, 6 * PAGE) == 0x77
        assert monitor.phys.read_word(gpa) == 0x77  # identity EPT

    def test_duplicate_app_rejected(self, monitor):
        monitor.primary_os.spawn_app(1)
        with pytest.raises(Exception):
            monitor.primary_os.spawn_app(1)

    def test_gpt_map_creates_intermediates_in_untrusted_memory(self,
                                                               monitor):
        primary_os = monitor.primary_os
        app = primary_os.spawn_app(1)
        reserved_before = len(primary_os._reserved_frames)
        primary_os.gpt_map(app.gpt_root_gpa, 9 * PAGE, 0)
        # root existed; levels-1 intermediates were reserved
        assert len(primary_os._reserved_frames) == \
            reserved_before + TINY.levels - 1
        for frame in primary_os._reserved_frames:
            assert monitor.layout.is_untrusted(frame)

    def test_gpt_set_raw_entry(self, monitor):
        primary_os = monitor.primary_os
        app = primary_os.spawn_app(1)
        raw = pte.pte_new(0x700, pte.leaf_flags(), TINY)
        primary_os.gpt_set_raw_entry(app.gpt_root_gpa, 2, raw)
        assert primary_os.gpa_read_word(app.gpt_root_gpa + 16) == raw

    def test_probe_returns_none_on_fault(self, monitor):
        app = monitor.primary_os.spawn_app(1)
        assert monitor.primary_os.probe(app, 9 * PAGE) is None
        monitor.primary_os.app_map_data(app, 9 * PAGE)
        assert monitor.primary_os.probe(app, 9 * PAGE) is not None

    def test_write_permission_respected_in_guest_walk(self, monitor):
        primary_os = monitor.primary_os
        app = primary_os.spawn_app(1)
        gpa = TINY.frame_base(primary_os.reserve_data_frame())
        primary_os.gpt_map(app.gpt_root_gpa, 6 * PAGE, gpa,
                           flags=pte.leaf_flags(writable=False))
        assert primary_os.probe(app, 6 * PAGE, write=False) is not None
        assert primary_os.probe(app, 6 * PAGE, write=True) is None


@pytest.fixture(params=[TINY, TINY_ARM], ids=["x86_64", "vmsav8_64"])
def arch_monitor(request):
    return RustMonitor(request.param)


def _dirty_next_frame(monitor):
    """DMA data into the frame the OS reserves next, at its first, a
    middle and its last word; returns that frame."""
    primary_os = monitor.primary_os
    frame = primary_os._next_table_frame
    while frame in primary_os._reserved_frames:
        frame += 1
    wpp = monitor.config.words_per_page
    base = monitor.config.frame_base(frame)
    for offset in (0, wpp // 2, wpp - 1):
        primary_os.dma_write(base + 8 * offset, 0xA50 + offset)
    assert sum(map(bool, monitor.phys.frame_words(frame))) == 3
    return frame


class TestReserveTableFrame:
    """A reserved frame is zeroed with one translation and one frame
    operation, not a guest store per word."""

    def test_dirty_frame_comes_back_zero(self, arch_monitor):
        frame = _dirty_next_frame(arch_monitor)
        assert arch_monitor.primary_os.reserve_table_frame() == frame
        assert arch_monitor.phys.frame_words(frame) == \
            (0,) * arch_monitor.config.words_per_page

    def test_yields_one_phys_write_per_frame(self, arch_monitor):
        frame = _dirty_next_frame(arch_monitor)
        box = {}

        def task():
            box["frame"] = arch_monitor.primary_os.reserve_table_frame()

        result = conc.DeterministicScheduler(arch_monitor, [task]).run()
        assert not result.task_errors
        assert box["frame"] == frame
        assert [(y.kind, y.detail) for y in result.yields
                if y.kind == "phys.write"] == \
            [("phys.write", f"zero frame {frame}")]
        assert not any(arch_monitor.phys.frame_words(frame))

    def test_zeroing_is_no_fault_site(self, arch_monitor):
        frame = _dirty_next_frame(arch_monitor)
        plane = faults.FaultPlane(record_only=True)
        with faults.installed(plane):
            assert arch_monitor.primary_os.reserve_table_frame() == frame
        assert plane.counts.get(faults.SITE_PHYS_WRITE, 0) == 0
        assert plane.counts.get(faults.SITE_PHYS_FLIP, 0) == 0
        assert not any(arch_monitor.phys.frame_words(frame))


class TestAdversarialReach:
    def test_os_gpt_rewrite_cannot_reach_epc(self):
        """The OS may point its GPT anywhere; the EPT still wins."""
        monitor, app, eid = build_enclave_world()
        primary_os = monitor.primary_os
        for frame, _ in monitor.epcm.owned_by(eid):
            primary_os.gpt_map(app.gpt_root_gpa, 7 * PAGE,
                               TINY.frame_base(frame))
            assert primary_os.probe(app, 7 * PAGE) is None
            # clean up the probe mapping for the next round
            raw_index = TINY.entry_index(7 * PAGE, 1)
            # find the L1 table by walking the first two levels manually
            entry = primary_os.gpa_read_word(
                app.gpt_root_gpa + TINY.entry_index(7 * PAGE, 3) * 8)
            l2_gpa = pte.pte_addr(entry, TINY)
            entry = primary_os.gpa_read_word(
                l2_gpa + TINY.entry_index(7 * PAGE, 2) * 8)
            l1_gpa = pte.pte_addr(entry, TINY)
            primary_os.gpa_write_word(l1_gpa + raw_index * 8, 0)

    def test_os_cannot_touch_enclave_page_table_frames(self):
        monitor, _app, eid = build_enclave_world()
        enclave = monitor.enclaves[eid]
        for frame in enclave.gpt.table_frames():
            with pytest.raises(TranslationFault):
                monitor.primary_os.gpa_write_word(TINY.frame_base(frame),
                                                  0xBAD)
