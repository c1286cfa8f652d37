"""The low (flat) specification of the paging functions.

"In principle, we could end up with a single specification that views
the page tables as a unstructured flat array of frames." (Sec. 4.1)

This module *is* that specification: pure functions over a
:class:`FlatPtState` — an immutable value holding the page-table pool as
a word map plus the allocation bitmap.  It mirrors the imperative
implementation in :mod:`repro.hyperenclave.paging` operation-for-
operation, but functionally: every function returns a new state.

The MIR code proofs check code against *this* spec (code -> low spec),
and :mod:`repro.spec.relation` relates it to the tree view (low spec ->
high spec), reproducing the paper's two-step proof structure (Sec. 4.3).
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.ccal.zmap import ZMap
from repro.errors import PagingError, SpecError
from repro.hyperenclave import pte
from repro.hyperenclave.constants import WORD_BYTES


@dataclass(frozen=True)
class FlatPtState:
    """Immutable flat view of the page-table pool.

    ``words`` — ZMap from word address (byte addr / 8) to 64-bit value,
    restricted to the pool region; ``bitmap`` — allocation state per pool
    frame; ``pool_base``/``pool_size`` — the pool's frame range.
    """

    config: object
    pool_base: int
    pool_size: int
    words: ZMap
    bitmap: Tuple[bool, ...]

    def in_pool(self, frame):
        return self.pool_base <= frame < self.pool_base + self.pool_size

    def frame_allocated(self, frame):
        return self.in_pool(frame) and self.bitmap[frame - self.pool_base]


def flat_initial_state(config, pool_base, pool_size) -> FlatPtState:
    return FlatPtState(config=config, pool_base=pool_base,
                       pool_size=pool_size, words=ZMap(default=0),
                       bitmap=(False,) * pool_size)


# -- layer 1: frame allocation ------------------------------------------------


def flat_alloc_frame(state) -> Tuple[int, FlatPtState]:
    """First-fit allocation plus zeroing, like the implementation."""
    for offset, used in enumerate(state.bitmap):
        if not used:
            frame = state.pool_base + offset
            bitmap = state.bitmap[:offset] + (True,) \
                + state.bitmap[offset + 1:]
            base_word = state.config.frame_base(frame) // WORD_BYTES
            words = state.words.unset_range(
                base_word, base_word + state.config.words_per_page)
            return frame, FlatPtState(state.config, state.pool_base,
                                      state.pool_size, words, bitmap)
    raise PagingError("flat spec: page-table pool exhausted")


# -- layer 3: entry IO ----------------------------------------------------------


def _entry_word(state, table_frame, index):
    if not state.in_pool(table_frame):
        raise SpecError(
            f"flat spec: table frame {table_frame} escapes the monitor's "
            f"frame area [{state.pool_base}, "
            f"{state.pool_base + state.pool_size})")
    return (state.config.frame_base(table_frame)
            + index * WORD_BYTES) // WORD_BYTES


def flat_read_entry(state, table_frame, index) -> int:
    return state.words.get(_entry_word(state, table_frame, index))


def flat_write_entry(state, table_frame, index, value) -> FlatPtState:
    """Functionally write one page-table entry word."""
    words = state.words.set(_entry_word(state, table_frame, index),
                            value & ((1 << 64) - 1))
    return FlatPtState(state.config, state.pool_base, state.pool_size,
                       words, state.bitmap)


# -- layer 6: table creation -------------------------------------------------------


def flat_new_table(state) -> Tuple[int, FlatPtState]:
    """Allocate a zeroed table frame."""
    return flat_alloc_frame(state)


# -- layers 4-5: walking --------------------------------------------------------------


def flat_walk(state, root_frame, va):
    """``(steps, terminal, huge_level)`` where steps are
    ``(level, frame, index, entry)`` — the flat-view walk."""
    config = state.config
    spec = config.arch
    va = config.canonical_va(va)
    steps = []
    frame = root_frame
    for level in range(config.levels, 0, -1):
        index = config.entry_index(va, level)
        entry = flat_read_entry(state, frame, index)
        steps.append((level, frame, index, entry))
        if not spec.is_present(entry):
            return steps, None, 1
        if level == 1:
            if not spec.is_leaf_valid(entry):
                return steps, None, 1
            return steps, entry, 1
        if spec.is_block(entry, level):
            return steps, entry, level
        frame = pte.pte_frame(entry, config)
    raise SpecError("flat walk fell off the hierarchy")


# -- layer 7: mapping ------------------------------------------------------------------


def flat_map_page(state, root_frame, va, paddr, flags) -> FlatPtState:
    """Install va -> paddr, creating intermediate tables on demand."""
    config = state.config
    va = config.canonical_va(va)
    if config.page_offset(va) or config.page_offset(paddr):
        raise PagingError("flat spec: unaligned mapping")
    spec = config.arch
    frame = root_frame
    for level in range(config.levels, 1, -1):
        index = config.entry_index(va, level)
        entry = flat_read_entry(state, frame, index)
        if spec.is_present(entry):
            if spec.is_block(entry, level):
                raise PagingError("flat spec: huge page blocks mapping")
            frame = pte.pte_frame(entry, config)
            continue
        new_frame, state = flat_new_table(state)
        new_entry = pte.pte_new(config.frame_base(new_frame),
                                spec.table_flags(), config)
        state = flat_write_entry(state, frame, index, new_entry)
        frame = new_frame
    index = config.entry_index(va, 1)
    if spec.is_present(flat_read_entry(state, frame, index)):
        raise PagingError("flat spec: va already mapped")
    return flat_write_entry(state, frame, index,
                            pte.pte_new(paddr, flags, config))


def flat_unmap(state, root_frame, va) -> FlatPtState:
    """Clear the terminal entry covering va."""
    steps, terminal, _ = flat_walk(state, root_frame, va)
    if terminal is None:
        raise PagingError("flat spec: va not mapped")
    level, frame, index, _ = steps[-1]
    return flat_write_entry(state, frame, index, pte.pte_empty())


# -- layer 8: queries -------------------------------------------------------------------


def flat_query(state, root_frame, va) -> Optional[Tuple[int, int]]:
    """(paddr, flags) for va's terminal entry, or None."""
    _, terminal, _ = flat_walk(state, root_frame, va)
    if terminal is None:
        return None
    return (pte.pte_addr(terminal, state.config),
            pte.pte_flags(terminal, state.config))
