"""Code proofs: co-simulating the MIR corpus against its low specs.

"We reason about HyperEnclave code with our MIR operational semantics,
and we prove that for any two initially related states, the effects as
well as the return value of executing the HyperEnclave function (with
MIR semantics) and executing its specification should agree." (Sec. 4.3)

For every stateful corpus function this module supplies the functional
specification (over the *same* abstract state, so the relation is plain
equality), a generator of well-formed sample states, and the driver that
co-simulates the two.  Panic cases (va already mapped, huge in the way,
double free...) are specification *preconditions* — samples outside them
are skipped here and the panics themselves are pinned by dedicated
tests, mirroring how Coq specifications are simply undefined off-domain.

The checks are layer-modular, as the paper's CCAL proofs are: each
function runs its own MIR body against the specs its callees export,
not against their bodies.  :func:`cosim_checker` binds every direct
callee that has a verdict of its own (:func:`bound_callees`) to that
callee's spec — :func:`low_spec_for` for stateful callees, the pure
reference for pure ones — next to the layer-0 primitives.  A failure
therefore names the one function whose body disagrees with its spec,
and a caller that breaks a callee's precondition is convicted too.  The
one ``Hypercalls`` function keeps every body inlined: the whole-stack
check, where a callee spec too weak for its callers still shows up.

Pure functions are verified by the symbolic engine instead: every path
explored, every assertion discharged, exhaustive bounded equivalence
against the Python reference.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.ccal.refinement import CoSimChecker, mir_impl
from repro.ccal.spec import Spec, pure_spec
from repro.errors import SpecPreconditionError
from repro.hyperenclave import pte
from repro.hyperenclave.constants import WORD_BYTES
from repro.hyperenclave.mir_model.state import (
    EPCM_FREE,
    EPCM_REG,
    EPCM_SECS,
)
from repro.mir.value import Aggregate, mk_tuple, mk_u64, unit
from repro.symbolic import SymbolicUnsupported, check_equivalence, verify_assertions
from repro.verification.pure_refs import (
    default_domains,
    pure_function_names,
    pure_reference,
)


# ---------------------------------------------------------------------------
# Low-spec building blocks over the abstract state
# ---------------------------------------------------------------------------


class _Ops:
    """Spec-side helpers bound to one geometry."""

    def __init__(self, model):
        self.model = model
        self.config = model.config
        self.spec = model.config.arch
        self.pool_base = model.pool_base
        self.pool_size = model.pool_size
        self.epc_base = model.layout.epc_base
        self.epc_size = model.layout.epc_size

    def in_pool(self, frame):
        return self.pool_base <= frame < self.pool_base + self.pool_size

    def entry_word(self, frame, index):
        """Word index of entry (frame, index); must be in the pool."""
        if not self.in_pool(frame):
            raise SpecPreconditionError(
                f"table frame {frame} escapes the frame area")
        return (self.config.frame_base(frame)
                + index * WORD_BYTES) // WORD_BYTES

    def read(self, state, frame, index):
        return state.get("pt_words").get(self.entry_word(frame, index))

    def write(self, state, frame, index, value):
        """Functionally write one entry word."""
        words = state.get("pt_words").set(self.entry_word(frame, index),
                                          value & ((1 << 64) - 1))
        return state.set("pt_words", words)

    def zero_frame(self, state, frame):
        """Clear every word of a pool frame."""
        if not self.in_pool(frame):
            raise SpecPreconditionError(
                f"zero_frame({frame}) escapes the frame area")
        base = self.config.frame_base(frame) // WORD_BYTES
        words = state.get("pt_words").unset_range(
            base, base + self.config.words_per_page)
        return state.set("pt_words", words)

    def alloc(self, state):
        """First-fit claim + zero, like the implementation."""
        bitmap = state.get("pt_bitmap")
        for offset, used in enumerate(bitmap):
            if not used:
                frame = self.pool_base + offset
                state = state.set(
                    "pt_bitmap",
                    bitmap[:offset] + (True,) + bitmap[offset + 1:])
                return frame, self.zero_frame(state, frame)
        raise SpecPreconditionError("frame pool exhausted")

    def walk(self, state, root, va):
        """(found, entry, level) — the spec of walk_terminal."""
        config = self.config
        va = config.canonical_va(va)
        frame = root
        for level in range(config.levels, 0, -1):
            entry = self.read(state, frame, config.entry_index(va, level))
            if not self.spec.is_present(entry):
                return 0, 0, level
            if level == 1:
                return 1, entry, 1
            if self.spec.is_block_encoded(entry):
                return 1, entry, level
            frame = pte.pte_frame(entry, config)
        raise SpecPreconditionError("walk fell off the hierarchy")

    def get_or_create(self, state, frame, va, level):
        """Follow one level, allocating an intermediate on demand."""
        config = self.config
        index = config.entry_index(va, level)
        entry = self.read(state, frame, index)
        if self.spec.is_present(entry):
            if self.spec.is_block_encoded(entry):
                raise SpecPreconditionError("huge page blocks mapping")
            return pte.pte_frame(entry, config), state
        new_frame, state = self.alloc(state)
        new_entry = pte.pte_new(config.frame_base(new_frame),
                                self.spec.table_flags(), config)
        return new_frame, self.write(state, frame, index, new_entry)

    def map_page(self, state, root, va, pa, flags):
        """The full multi-level map operation, functionally."""
        config = self.config
        if config.page_offset(va) or config.page_offset(pa):
            raise SpecPreconditionError("unaligned mapping")
        va = config.canonical_va(va)
        frame = root
        for level in range(config.levels, 1, -1):
            frame, state = self.get_or_create(state, frame, va, level)
        index = config.entry_index(va, 1)
        if self.spec.is_present(self.read(state, frame, index)):
            raise SpecPreconditionError("va already mapped")
        return self.write(state, frame, index,
                          pte.pte_new(pa, flags, config))

    def unmap_page(self, state, root, va):
        """Clear the terminal entry covering va."""
        config = self.config
        va = config.canonical_va(va)
        frame = root
        for level in range(config.levels, 0, -1):
            index = config.entry_index(va, level)
            entry = self.read(state, frame, index)
            if not self.spec.is_present(entry):
                raise SpecPreconditionError("va not mapped")
            if level == 1 or self.spec.is_block_encoded(entry):
                return self.write(state, frame, index, 0)
            frame = pte.pte_frame(entry, config)
        raise SpecPreconditionError("unmap fell off the hierarchy")


# ---------------------------------------------------------------------------
# The low specs, keyed by corpus function name
# ---------------------------------------------------------------------------


def low_spec_for(model, name) -> Spec:
    """The functional specification of stateful corpus function ``name``."""
    ops = _Ops(model)
    config = model.config

    def _i(value):
        return value.expect_int("spec arg").as_unsigned

    specs = {}

    def register(fn_name):
        def wrap(fn):
            specs[fn_name] = fn
            return fn
        return wrap

    @register("zero_frame")
    def zero_frame(args, state):
        return unit(), ops.zero_frame(state, _i(args[0]))

    @register("alloc_frame")
    def alloc_frame(args, state):
        frame, state = ops.alloc(state)
        return mk_u64(frame), state

    @register("entry_paddr")
    def entry_paddr(args, state):
        frame, index = map(_i, args)
        return mk_u64((frame << config.page_bits)
                      + index * WORD_BYTES), state

    @register("read_entry")
    def read_entry(args, state):
        frame, index = map(_i, args)
        return mk_u64(ops.read(state, frame, index)), state

    @register("write_entry")
    def write_entry(args, state):
        frame, index, entry = map(_i, args)
        return unit(), ops.write(state, frame, index, entry)

    @register("walk_terminal")
    def walk_terminal(args, state):
        root, va = map(_i, args)
        found, entry, level = ops.walk(state, root, va)
        return mk_tuple(mk_u64(found), mk_u64(entry), mk_u64(level)), state

    @register("get_or_create_next")
    def get_or_create_next(args, state):
        frame, va, level = map(_i, args)
        new_frame, state = ops.get_or_create(state, frame,
                                             config.canonical_va(va), level)
        return mk_u64(new_frame), state

    @register("map_page")
    def map_page(args, state):
        root, va, pa, flags = map(_i, args)
        return unit(), ops.map_page(state, root, va, pa, flags)

    @register("unmap_page")
    def unmap_page(args, state):
        root, va = map(_i, args)
        return unit(), ops.unmap_page(state, root, va)

    @register("query")
    def query(args, state):
        root, va = map(_i, args)
        found, entry, _level = ops.walk(state, root, va)
        if not found:
            return mk_tuple(mk_u64(0), mk_u64(0), mk_u64(0)), state
        return mk_tuple(mk_u64(1),
                        mk_u64(pte.pte_addr(entry, config)),
                        mk_u64(pte.pte_flags(entry, config))), state

    @register("translate_page")
    def translate_page(args, state):
        root, va = map(_i, args)
        found, entry, level = ops.walk(state, root, va)
        if not found:
            return mk_tuple(mk_u64(0), mk_u64(0)), state
        span = config.level_span(level)
        pa = pte.pte_addr(entry, config) \
            + (config.canonical_va(va) & (span - 1))
        return mk_tuple(mk_u64(1), mk_u64(pa)), state

    @register("epcm_find_free")
    def epcm_find_free(args, state):
        epcm = state.get("epcm")
        for index in range(ops.epc_size):
            if epcm.get(index)[0] == EPCM_FREE:
                return mk_tuple(mk_u64(1), mk_u64(index)), state
        return mk_tuple(mk_u64(0), mk_u64(0)), state

    @register("epcm_alloc_page")
    def epcm_alloc_page(args, state):
        owner, kind, va = map(_i, args)
        epcm = state.get("epcm")
        for index in range(ops.epc_size):
            if epcm.get(index)[0] == EPCM_FREE:
                state = state.set("epcm",
                                  epcm.set(index, (kind, owner, va)))
                return mk_tuple(mk_u64(1), mk_u64(index)), state
        return mk_tuple(mk_u64(0), mk_u64(0)), state

    @register("epcm_release_page")
    def epcm_release_page(args, state):
        index, owner = map(_i, args)
        if index >= ops.epc_size:
            raise SpecPreconditionError("epcm index out of range")
        entry = state.get("epcm").get(index)
        if entry[0] == EPCM_FREE:
            raise SpecPreconditionError("page already free")
        if entry[1] != owner:
            raise SpecPreconditionError("owner mismatch")
        return unit(), state.set(
            "epcm", state.get("epcm").set(index, (EPCM_FREE, 0, 0)))

    @register("epcm_owner_of")
    def epcm_owner_of(args, state):
        index = _i(args[0])
        if index >= ops.epc_size:
            raise SpecPreconditionError("epcm index out of range")
        return mk_u64(state.get("epcm").get(index)[1]), state

    @register("add_epc_page")
    def add_epc_page(args, state):
        gpt_root, ept_root, gpa_base, el_base, el_size, owner, va = \
            map(_i, args)
        mask = (1 << 64) - 1
        if not (va >= el_base and va < (el_base + el_size) & mask):
            return mk_tuple(mk_u64(0), mk_u64(0)), state
        ret, state = epcm_alloc_page(
            (mk_u64(owner), mk_u64(EPCM_REG), mk_u64(va)), state)
        if ret.fields[0].value == 0:
            return mk_tuple(mk_u64(0), mk_u64(0)), state
        index = ret.fields[1].value
        gpa = (gpa_base + ((va - el_base) & mask)) & mask
        leaf = config.arch.leaf_flags()
        state = ops.map_page(state, gpt_root, va, gpa, leaf)
        epc_frame = index + ops.epc_base
        state = ops.map_page(state, ept_root, gpa,
                             (epc_frame << config.page_bits) & mask, leaf)
        return mk_tuple(mk_u64(1), mk_u64(epc_frame)), state

    @register("hc_add_page_checked")
    def hc_add_page_checked(args, state):
        va = _i(args[6])
        if config.page_offset(va):
            return mk_tuple(mk_u64(0), mk_u64(0)), state
        return add_epc_page(args, state)

    # -- AddrSpace methods: thin delegations over the root field ------------

    @register("as_root")
    def as_root(args, state):
        return args[0].expect_aggregate("self").field(0), state

    @register("as_map")
    def as_map(args, state):
        root = args[0].expect_aggregate("self").field(0)
        return map_page((root,) + tuple(args[1:]), state)

    @register("as_unmap")
    def as_unmap(args, state):
        root = args[0].expect_aggregate("self").field(0)
        return unmap_page((root,) + tuple(args[1:]), state)

    @register("as_query")
    def as_query(args, state):
        root = args[0].expect_aggregate("self").field(0)
        return query((root,) + tuple(args[1:]), state)

    @register("as_translate")
    def as_translate(args, state):
        root = args[0].expect_aggregate("self").field(0)
        return translate_page((root,) + tuple(args[1:]), state)

    @register("as_new")
    def as_new(args, state):
        # The handle is opaque at spec level (Sec. 3.4 case 3): the spec
        # answers the root frame the handle's one field must hold.
        return alloc_frame(args, state)

    if name not in specs:
        raise KeyError(f"no low spec for {name!r}")
    return Spec(name=name, fn=specs[name],
                layer=model.layer_map.get(name, "?"))


_ADDR_SPACE_METHODS = ("as_root", "as_map", "as_unmap", "as_query",
                       "as_translate")

_STATEFUL = (
    "zero_frame", "alloc_frame", "entry_paddr", "read_entry",
    "write_entry", "walk_terminal", "get_or_create_next", "map_page",
    "unmap_page", "query", "translate_page", "epcm_find_free",
    "epcm_alloc_page", "epcm_release_page", "epcm_owner_of",
    "add_epc_page", "hc_add_page_checked",
) + _ADDR_SPACE_METHODS


def stateful_function_names(model=None):
    return _STATEFUL


# ---------------------------------------------------------------------------
# Sample generation
# ---------------------------------------------------------------------------


def _build_populated_state(model, rng, mapped_pages=3):
    """A well-formed state with one root table and a few mappings,
    built through the spec itself (ground truth)."""
    ops = _Ops(model)
    config = model.config
    state = model.initial_absstate()
    root, state = ops.alloc(state)
    mapped = []
    for _ in range(mapped_pages):
        va = rng.randrange(0, config.va_space, config.page_size)
        pa = rng.randrange(0, config.phys_bytes, config.page_size)
        try:
            state = ops.map_page(state, root, va, pa,
                                 config.arch.leaf_flags())
            mapped.append(va)
        except SpecPreconditionError:
            pass
    # A few EPCM entries too.
    epcm = state.get("epcm")
    for index in range(min(3, ops.epc_size)):
        if rng.random() < 0.5:
            epcm = epcm.set(index, (rng.choice([EPCM_SECS, EPCM_REG]),
                                    rng.randrange(1, 4),
                                    rng.randrange(0, config.va_space,
                                                  config.page_size)))
    state = state.set("epcm", epcm)
    return state, root, mapped


def sample_states(model, name, seed=0, count=24):
    """Samples ``(args, state)`` for co-simulating function ``name``."""
    rng = random.Random(f"{name}:{seed}")
    config = model.config
    ops = _Ops(model)
    leaf = config.arch.leaf_flags()
    samples = []
    for _ in range(count):
        state, root, mapped = _build_populated_state(
            model, rng, mapped_pages=rng.randrange(0, 4))
        page = config.page_size
        any_va = rng.randrange(0, config.va_space, WORD_BYTES)
        aligned_va = rng.choice(
            mapped + [rng.randrange(0, config.va_space, page)])
        aligned_pa = rng.randrange(0, config.phys_bytes, page)
        index = rng.randrange(config.entries_per_table)
        in_pool_frame = rng.randrange(ops.pool_base,
                                      ops.pool_base + ops.pool_size)
        # Bias EPCM samples toward busy entries with matching owners so
        # the release path is exercised, not just precondition-skipped.
        busy = [(i, state.get("epcm").get(i))
                for i in range(ops.epc_size)
                if state.get("epcm").get(i)[0] != EPCM_FREE]
        if busy and rng.random() < 0.8:
            epcm_index, entry = rng.choice(busy)
            epcm_owner = entry[1] if rng.random() < 0.8 \
                else rng.randrange(1, 4)
        else:
            epcm_index = rng.randrange(max(ops.epc_size, 1))
            epcm_owner = rng.randrange(1, 4)
        struct_self = Aggregate(0, (mk_u64(root),))
        args_by_name = {
            "zero_frame": (mk_u64(in_pool_frame),),
            "alloc_frame": (),
            "entry_paddr": (mk_u64(in_pool_frame), mk_u64(index)),
            "read_entry": (mk_u64(in_pool_frame), mk_u64(index)),
            "write_entry": (mk_u64(in_pool_frame), mk_u64(index),
                            mk_u64(rng.getrandbits(64))),
            "walk_terminal": (mk_u64(root), mk_u64(any_va)),
            "get_or_create_next": (mk_u64(root), mk_u64(aligned_va),
                                   mk_u64(config.levels)),
            "map_page": (mk_u64(root), mk_u64(aligned_va),
                         mk_u64(aligned_pa), mk_u64(leaf)),
            "unmap_page": (mk_u64(root), mk_u64(aligned_va)),
            "query": (mk_u64(root), mk_u64(any_va)),
            "translate_page": (mk_u64(root), mk_u64(any_va)),
            "epcm_find_free": (),
            "epcm_alloc_page": (mk_u64(rng.randrange(1, 4)),
                                mk_u64(EPCM_REG), mk_u64(aligned_va)),
            "epcm_release_page": (mk_u64(epcm_index),
                                  mk_u64(epcm_owner)),
            "epcm_owner_of": (mk_u64(epcm_index),),
            "add_epc_page": None,       # built below
            "hc_add_page_checked": None,
            "as_root": (struct_self,),
            "as_map": (struct_self, mk_u64(aligned_va),
                       mk_u64(aligned_pa), mk_u64(leaf)),
            "as_unmap": (struct_self, mk_u64(aligned_va)),
            "as_query": (struct_self, mk_u64(any_va)),
            "as_translate": (struct_self, mk_u64(any_va)),
        }
        if name in ("add_epc_page", "hc_add_page_checked"):
            # Two fresh roots, an ELRANGE, and a candidate va.
            state = model.initial_absstate()
            gpt_root, state = ops.alloc(state)
            ept_root, state = ops.alloc(state)
            el_base = rng.randrange(0, config.va_space // 2, page)
            el_size = rng.choice([page, 2 * page, 4 * page])
            near = rng.choice([el_base, el_base + page,
                               el_base + el_size,
                               rng.randrange(0, config.va_space, page),
                               el_base + rng.randrange(0, 2 * page,
                                                       WORD_BYTES)])
            args = (mk_u64(gpt_root), mk_u64(ept_root), mk_u64(el_base),
                    mk_u64(el_base), mk_u64(el_size), mk_u64(1),
                    mk_u64(near % config.va_space))
            samples.append((args, state))
            continue
        samples.append((args_by_name[name], state))
    return samples


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


@dataclass
class FunctionVerdict:
    """Verification outcome for one corpus function."""

    name: str
    layer: str
    method: str            # "symbolic" | "cosim"
    checked: int
    skipped: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def __str__(self):
        status = "OK " if self.ok else "FAIL"
        return (f"[{status}] {self.layer:12s} {self.name:22s} "
                f"({self.method}, {self.checked} checked)")


def _mir_args_setup(model, name):
    """Setup hook converting struct-valued 'self' args into pointers.

    AddrSpace methods receive ``&self``; the sample carries the struct
    value, and the hook materialises it into object memory and passes a
    concrete pointer — exactly how a caller in a higher layer would have
    allocated it (pointer case 1/3 of Sec. 3.4).
    """
    if name not in _ADDR_SPACE_METHODS:
        return None

    def setup(interp, args):
        from repro.mir.path import Path
        from repro.mir.value import PathPtr
        self_struct = args[0]
        path = Path.global_("__cosim_self")
        interp.memory.allocate(path.base, self_struct)
        return (PathPtr(path),) + tuple(args[1:])

    return setup


#: The layer whose one function is checked with every body below it
#: inlined: the whole-stack check.
WHOLE_STACK_LAYER = "Hypercalls"


def bound_callees(model, name):
    """The direct callees of ``name`` its check runs as specs, sorted.

    Every callee with a verdict of its own is bound — the stateful
    functions and the pure ones — whatever its layer: the call graph is
    acyclic (:meth:`~repro.hyperenclave.mir_model.MirModel.check_call_order`
    forbids upward calls and the corpus has no recursion), so a
    same-layer callee such as ``alloc_frame → zero_frame`` is checked
    on its own and its body is covered by its own verdict.  A function
    of :data:`WHOLE_STACK_LAYER` binds none.
    """
    if model.layer_map[name] == WHOLE_STACK_LAYER:
        return ()
    verified = set(_STATEFUL).union(
        pure_function_names(model.config, model.layout))
    return tuple(sorted(
        verified.intersection(model.program.functions[name]
                              .called_functions())))


def _callee_spec(model, name):
    """The trusted stand-in for callee ``name``: its low spec when it is
    stateful, its pure reference otherwise."""
    if name in _STATEFUL:
        return low_spec_for(model, name)
    reference = pure_reference(name, model.config, model.layout)

    def answer(args):
        try:
            return reference(*args)
        except ValueError as exc:
            # Off the reference's domain (a level out of range), where
            # the MIR body panics: the caller broke the precondition.
            raise SpecPreconditionError(f"{name}: {exc}") from None

    return pure_spec(name, answer, layer=model.layer_map[name])


def _handle_root(interp, handle):
    """The root field behind an ``AddrSpace`` handle."""
    return interp.memory.read(handle.path).field(0)


def cosim_checker(model, name) -> CoSimChecker:
    """The co-simulation checker behind stateful verdict ``name``.

    The MIR side runs ``name``'s body with the layer-0 primitives and
    the specs of its :func:`bound_callees` registered as trusted
    functions; the spec side is :func:`low_spec_for`.  ``as_new``
    returns a handle, so its checker reads the root field back through
    it and compares that with the frame the spec allocates.
    """
    trusted = list(model.trusted) + [
        _callee_spec(model, callee) for callee in bound_callees(model, name)]
    impl = mir_impl(model.program, name, trusted=trusted,
                    setup=_mir_args_setup(model, name),
                    extract=_handle_root if name == "as_new" else None)
    return CoSimChecker(name=name, impl=impl, spec=low_spec_for(model, name))


def _verdict(model, name, samples) -> FunctionVerdict:
    report = cosim_checker(model, name).check(samples)
    return FunctionVerdict(
        name=name, layer=model.layer_map[name], method="cosim",
        checked=report.checked, skipped=report.skipped,
        failures=[str(f) for f in report.failures])


def verify_stateful_function(model, name, seed=0, count=24) -> FunctionVerdict:
    """Co-simulate one stateful corpus function against its low spec.

    The check is layer-modular (:func:`cosim_checker`): ``name``'s own
    body runs against its callees' specs, so a failing verdict names
    the function whose body is wrong, and a code-side panic or broken
    callee precondition is a failure, not a crash.  A callee's body is
    covered by its own verdict and by the whole-stack check of
    ``hc_add_page_checked``, not on every caller's samples.
    """
    return _verdict(model, name,
                    sample_states(model, name, seed=seed, count=count))


def verify_pure_function(model, name) -> FunctionVerdict:
    """Symbolically verify one pure corpus function (panic-freedom + exhaustive bounded equivalence)."""
    domains = default_domains(name, model.config)
    reference = pure_reference(name, model.config, model.layout)
    failures = []
    ok, assertion_failures = verify_assertions(model.program, name, domains)
    if not ok:
        failures.extend(
            f"assertion can fail: {ob.message} with {model_}"
            for ob, model_ in assertion_failures)
    mismatches, stats = check_equivalence(model.program, name, reference,
                                          domains)
    failures.extend(
        f"mismatch at {m}: mir={mv} ref={rv}"
        for m, mv, rv in mismatches[:5])
    return FunctionVerdict(
        name=name, layer=model.layer_map[name], method="symbolic",
        checked=stats["cells"], failures=failures)


@dataclass
class CorpusReport:
    """Verification verdicts for the whole corpus."""

    verdicts: List[FunctionVerdict] = field(default_factory=list)

    @property
    def ok(self):
        return all(v.ok for v in self.verdicts)

    def by_layer(self) -> Dict[str, List[FunctionVerdict]]:
        """Group the verdicts by CCAL layer."""
        grouped = {}
        for verdict in self.verdicts:
            grouped.setdefault(verdict.layer, []).append(verdict)
        return grouped

    def summary(self):
        """Human-readable multi-line report."""
        lines = [f"{len(self.verdicts)} functions verified, "
                 f"{'all OK' if self.ok else 'FAILURES PRESENT'}"]
        lines.extend(str(v) for v in self.verdicts)
        return "\n".join(lines)


def verify_corpus(model, seed=0, cosim_samples=24,
                  include_as_new=True) -> CorpusReport:
    """Verify every corpus function with the appropriate engine."""
    report = CorpusReport()
    for name in pure_function_names(model.config, model.layout):
        report.verdicts.append(verify_pure_function(model, name))
    for name in _STATEFUL:
        report.verdicts.append(
            verify_stateful_function(model, name, seed=seed,
                                     count=cosim_samples))
    if include_as_new:
        report.verdicts.append(_verify_as_new(model))
    return report


def _verify_as_new(model) -> FunctionVerdict:
    """as_new returns a pointer, so it is checked on the boot state
    alone: the handle's root field equals the frame the specification
    allocates, and the abstract state evolved identically."""
    return _verdict(model, "as_new", [((), model.initial_absstate())])
