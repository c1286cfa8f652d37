"""Python references for the pure corpus functions.

Each reference is the *model* the MIR transcription must agree with —
mostly thin wrappers over :mod:`repro.hyperenclave.pte` and
:class:`~repro.hyperenclave.constants.MachineConfig`, i.e. the very
functions the executable HyperEnclave model runs on.  Agreement therefore
connects the verified MIR corpus to the system the security proofs run
against, closing the loop the paper closes by reusing the verified
page-walk in the Sec. 5.1 transition system.

References take/return MIR Values so they can be compared bit-for-bit
with execution results.
"""

from repro.hyperenclave import pte
from repro.hyperenclave.constants import MemoryLayout
from repro.mir.value import mk_bool, mk_u64
from repro.symbolic.solver import Domains

U64_MAX = (1 << 64) - 1


def pure_reference(name, config, layout=None):
    """The Python reference callable for pure corpus function ``name``."""
    layout = layout or MemoryLayout.default_for(config)
    table = _build_table(config, layout)
    return table[name]


def pure_function_names(config, layout=None):
    """Sorted names of all pure corpus functions."""
    layout = layout or MemoryLayout.default_for(config)
    return sorted(_build_table(config, layout))


def _build_table(config, layout):
    pool_lo = config.frame_base(layout.pt_pool_base)
    pool_hi = config.frame_base(layout.epc_base)
    epc_lo = config.frame_base(layout.epc_base)
    epc_hi = config.frame_base(config.phys_frames)

    def in_range(lo, hi, value):
        return lo <= value < hi

    return {
        # -- PteOps ------------------------------------------------------
        "pte_new": lambda a, f: mk_u64(pte.pte_new(a.value, f.value, config)),
        "pte_addr": lambda e: mk_u64(pte.pte_addr(e.value, config)),
        "pte_flags": lambda e: mk_u64(pte.pte_flags(e.value, config)),
        "pte_frame": lambda e: mk_u64(pte.pte_frame(e.value, config)),
        "pte_is_present": lambda e: mk_bool(
            config.arch.is_present(e.value)),
        "pte_is_writable": lambda e: mk_bool(
            config.arch.is_writable(e.value)),
        "pte_is_user": lambda e: mk_bool(config.arch.is_user(e.value)),
        "pte_is_huge": lambda e: mk_bool(
            config.arch.is_block_encoded(e.value)),
        "pte_is_unused": lambda e: mk_bool(pte.pte_is_unused(e.value)),
        "pte_table_flags": lambda: mk_u64(config.arch.table_flags()),
        "pte_set_addr": lambda e, a: mk_u64(
            pte.pte_set_addr(e.value, a.value, config)),
        "pte_set_flags": lambda e, f: mk_u64(
            pte.pte_set_flags(e.value, f.value, config)),
        # -- PtLevel -----------------------------------------------------
        "entry_index": lambda va, lvl: mk_u64(
            config.entry_index(va.value, lvl.value)),
        "level_span": lambda lvl: mk_u64(config.level_span(lvl.value)),
        "align_page_down": lambda a: mk_u64(config.page_base(a.value)),
        "align_page_up": lambda a: mk_u64(config.page_base(
            (a.value + config.page_size - 1) & U64_MAX)),
        "page_offset_of": lambda a: mk_u64(config.page_offset(a.value)),
        "is_page_aligned": lambda a: mk_bool(
            config.page_offset(a.value) == 0),
        "frame_base_of": lambda f: mk_u64(
            (f.value << config.page_bits) & U64_MAX),
        "frame_of_addr": lambda a: mk_u64(a.value >> config.page_bits),
        # -- range predicates ---------------------------------------------
        "elrange_contains": lambda b, s, va: mk_bool(
            va.value >= b.value
            and va.value < (b.value + s.value) & U64_MAX),
        "mbuf_contains": lambda b, s, va: mk_bool(
            va.value >= b.value
            and va.value < (b.value + s.value) & U64_MAX),
        "elrange_gpa_of": lambda g, e, va: mk_u64(
            g.value + ((va.value - e.value) & U64_MAX)),
        "ranges_overlap": lambda ab, asz, bb, bsz: mk_bool(
            ab.value < (bb.value + bsz.value) & U64_MAX
            and bb.value < (ab.value + asz.value) & U64_MAX),
        # -- Isolation ------------------------------------------------------
        "pa_in_pool": lambda pa: mk_bool(in_range(pool_lo, pool_hi,
                                                  pa.value)),
        "pa_in_epc": lambda pa: mk_bool(in_range(epc_lo, epc_hi, pa.value)),
    }


# ---------------------------------------------------------------------------
# Bounded domains for symbolic checking
# ---------------------------------------------------------------------------


def _interesting_addresses(config):
    """Boundary-heavy address sample: page edges, level-span edges, the
    top of the space, and a few interior points."""
    values = {0, 1, 7, 8}
    for level in range(1, config.levels + 1):
        span = config.level_span(level)
        values.update({span - 1, span, span + 8, 2 * span})
    values.update({config.va_space - 1, config.va_space,
                   config.va_space + config.page_size})
    values.update({config.page_size - 1, config.page_size,
                   config.page_size + 8, 3 * config.page_size})
    values.update({U64_MAX, U64_MAX - config.page_size + 1})
    return tuple(sorted(v for v in values if 0 <= v <= U64_MAX))


def _interesting_entries(config):
    """Entries covering every flag combination at a few addresses.

    Built from the arch spec's own constructors plus raw low-bit
    patterns, so the domain hits the discriminating bits of both the
    x86 layout (P/W/U/H) and the VMSAv8 one (VALID/TYPE/AP/AF)."""
    spec = config.arch
    addresses = (0, config.page_size, 5 * config.page_size,
                 config.addr_mask())
    entries = {0}
    for addr in addresses:
        for flags in range(16):  # raw low-bit patterns
            huge = 0x80 if flags & 8 else 0
            entries.add(pte.pte_new(addr, (flags & 7) | huge, config))
        for writable in (False, True):
            for user in (False, True):
                for huge_flag in (False, True):
                    entries.add(pte.pte_new(
                        addr, spec.leaf_flags(writable=writable, user=user,
                                              huge=huge_flag), config))
        entries.add(pte.pte_new(addr, spec.table_flags(), config))
    entries.add(U64_MAX)
    return tuple(sorted(entries))


def default_domains(name, config):
    """The bounded enumeration domain for pure function ``name``."""
    addresses = _interesting_addresses(config)
    entries = _interesting_entries(config)
    levels = tuple(range(1, config.levels + 1))
    flags = tuple(range(8)) + (0x87, 0x8000000000000003)
    sizes = tuple(config.page_size * n for n in (0, 1, 2, 4))
    frames = tuple(range(0, config.phys_frames,
                         max(config.phys_frames // 8, 1)))
    table = {
        "pte_new": {"addr": addresses, "flags": flags},
        "pte_addr": {"e": entries},
        "pte_flags": {"e": entries},
        "pte_frame": {"e": entries},
        "pte_is_present": {"e": entries},
        "pte_is_writable": {"e": entries},
        "pte_is_user": {"e": entries},
        "pte_is_huge": {"e": entries},
        "pte_is_unused": {"e": entries},
        "pte_table_flags": {},
        "pte_set_addr": {"e": entries[:12], "addr": addresses[:12]},
        "pte_set_flags": {"e": entries[:12], "flags": flags},
        "entry_index": {"va": addresses, "level": levels},
        "level_span": {"level": levels},
        "align_page_down": {"addr": addresses},
        "align_page_up": {"addr": addresses},
        "page_offset_of": {"addr": addresses},
        "is_page_aligned": {"addr": addresses},
        "frame_base_of": {"frame": frames},
        "frame_of_addr": {"addr": addresses},
        "elrange_contains": {"base": addresses[:10], "size": sizes,
                             "va": addresses[:10]},
        "mbuf_contains": {"base": addresses[:10], "size": sizes,
                          "va": addresses[:10]},
        "elrange_gpa_of": {"gpa_base": addresses[:8],
                           "elrange_base": addresses[:8],
                           "va": addresses[:8]},
        "ranges_overlap": {"a_base": addresses[:6], "a_size": sizes,
                           "b_base": addresses[:6], "b_size": sizes},
        "pa_in_pool": {"pa": addresses},
        "pa_in_epc": {"pa": addresses},
    }
    return Domains(table[name])
