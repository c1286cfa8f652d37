"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions of each layer (the table
:data:`LAYERS`) with span recorders; nothing under ``src/`` changes.
Spans stay in memory (name, start, end, parent, verdict id) and are
written out by :meth:`Tracer.dump` when the run ends.

Self time uses one cursor per timeline: at every span boundary the time
since the previous boundary is charged to the innermost span that was
running, so the self times of all spans on a timeline add up to the
time the timeline spent inside spans.  A timeline is one OS thread,
except that the deterministic scheduler's fiber threads share the
timeline of the thread running ``DeterministicScheduler.run``: fibers
pass one token, so exactly one of them runs at any instant.

Fiber awareness:

* span stacks inside a scheduler run are keyed by
  ``repro.concurrency.current_vid()``, so a step that moves between the
  loop thread and a fiber keeps one stack;
* a span opened on a fiber with an empty vCPU stack is parented to the
  ``Fiber.start``/``Fiber.resume`` span the loop is blocked in, and an
  inline one to ``DeterministicScheduler.run``;
* while a fiber is parked at a yield (``phys.write``, ``shootdown.ipi``,
  a lock), its open spans are off the cursor, so the other vCPU's work
  is never charged to this vCPU's hypercall.

The arena layer's self time is therefore the handoff cost: blocked
time in ``Fiber.start``/``Fiber.resume`` that no traced layer on the
fiber accounts for.  The benchmark opens a root span (layer
``verdict``) around each verdict; its self time is the verdict time no
traced layer accounts for.
"""

import functools
import gc
import importlib
import inspect
import sys
import threading
import time

perf_counter = time.perf_counter

#: (layer, module, attributes).  ``Class.method`` wraps the method on
#: the class; a bare name wraps the module function and every alias of
#: it in other ``repro`` modules; ``*`` wraps every public function the
#: module defines.
LAYERS = (
    ("explorer", "repro.concurrency.explorer", ("explore",)),
    ("scheduler", "repro.concurrency.scheduler",
     ("DeterministicScheduler.run",)),
    ("arena", "repro.concurrency.arena", ("Fiber.start", "Fiber.resume")),
    ("shootdown", "repro.concurrency.shootdown",
     ("detect_stale_translations",)),
    ("hardware", "repro.hyperenclave.hardware", ("PhysMemory.zero_frame",)),
    ("state", "repro.security.state", ("SystemState.clone",)),
    ("world", "repro.faults.campaign", ("build_interleaved_world",)),
    ("world", "repro.engine.bug_matrix",
     ("build_world", "setup_single", "setup_two_enclaves", "setup_outside",
      "setup_mbuf_overlap", "setup_secure_mbuf")),
    ("invariants", "repro.security.invariants",
     ("check_all_invariants", "check_vcpu_consistency")),
    ("invariants", "repro.engine.memo",
     ("CheckMemo.check_invariants", "CheckMemo.check_vcpu",
      "CheckMemo.observation_digest", "CheckMemo.final_state_diff")),
    ("noninterference", "repro.security.noninterference",
     ("check_schedule_noninterference_prepared",
      "check_theorem_noninterference")),
    ("fingerprint", "repro.engine.fingerprint", ("*",)),
    ("faults", "repro.faults.campaign", ("crash_step_campaign",)),
    ("model", "repro.hyperenclave.mir_model.layers", ("build_model",)),
    ("proofs.symbolic", "repro.verification.code_proofs",
     ("verify_pure_function",)),
    ("proofs.cosim", "repro.verification.code_proofs",
     ("verify_stateful_function",)),
    ("symbolic", "repro.symbolic.execute", ("SymExecutor.run",)),
)

#: Layers of the service path: the generator's HTTP round trips (the
#: one private method every ``ServiceClient`` verb sends through, so
#: retry back-off and ``wait``'s poll sleeps stay out of it) and the
#: daemon's scheduler thread (hosted in-process by the traced run).
SERVICE_LAYERS = (
    ("client", "repro.service.client", ("ServiceClient._once",)),
    ("executor", "repro.service.supervisor", ("ResilientExecutor.map",)),
    ("frontier", "repro.concurrency.explorer",
     ("FrontierState.absorb", "FrontierState.take_wave",
      "FrontierState.result")),
    ("checkpoint", "repro.service.orchestrator",
     ("CampaignStore.save_checkpoint", "CampaignStore.load_checkpoint")),
    ("memolog", "repro.service.store",
     ("MemoStore.extend", "MemoStore.preload_memo")),
    ("provenance", "repro.obs.provenance", ("interleaving_bundle",)),
    ("http", "repro.service.daemon", ("CheckingDaemon.handle",)),
)

class Span:
    """One timed call into a layer."""

    __slots__ = ("sid", "layer", "name", "start", "end", "parent",
                 "verdict", "self_s", "key", "timeline")

    def __init__(self, sid, layer, name, start, parent, verdict, key,
                 timeline):
        self.sid = sid
        self.layer = layer
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.verdict = verdict
        self.self_s = 0.0
        self.key = key
        self.timeline = timeline


class Tracer:
    """In-memory span recorder with per-timeline self-time cursors."""

    def __init__(self):
        self.spans = []
        self.verdict = None
        self.loop_thread = None         # thread inside scheduler.run
        self.blocking = None            # open Fiber.start/resume span
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self.gc_by_timeline = {}
        self.memos = []
        self.explored = []              # (schedules, decisions) per explore
        self._stacks = {}
        self._timelines = {}            # ident -> [last, span, gc shift]
        self._gc_start = {}
        self._patches = []
        self._current_vid = None

    # -- contexts -------------------------------------------------------------

    def _context(self):
        """(stack key, timeline, on a fiber thread) of the caller."""
        ident = threading.get_ident()
        loop = self.loop_thread
        if loop is not None:
            on_fiber = ident != loop and \
                threading.current_thread().name.startswith("fiber-")
            if ident == loop or on_fiber:
                vid = self._current_vid()
                if vid is not None:
                    return ("vcpu", vid), loop, on_fiber
        return ("thread", ident), ident, False

    def _fallback(self, key, on_fiber):
        """Where time goes when a vCPU stack is empty."""
        if key[0] != "vcpu":
            return None
        if on_fiber:
            return self.blocking
        stack = self._stacks.get(("thread", self.loop_thread))
        return stack[-1] if stack else None

    def _switch(self, timeline, now, span):
        state = self._timelines.get(timeline)
        if state is None:
            state = self._timelines[timeline] = [now, None, 0.0]
        current = state[1]
        if current is not None:
            elapsed = now - state[0] - state[2]
            if elapsed > 0:
                current.self_s += elapsed
        state[0] = now
        state[1] = span
        state[2] = 0.0

    # -- spans ----------------------------------------------------------------

    def enter(self, layer, name, key=None):
        """Open a span on the caller's context and move the cursor to it."""
        now = perf_counter()
        context, timeline, on_fiber = self._context()
        key = key or context
        stack = self._stacks.get(key)
        if stack is None:
            stack = self._stacks[key] = []
        parent = stack[-1] if stack else self._fallback(key, on_fiber)
        span = Span(len(self.spans), layer, name, now, parent,
                    self.verdict, key, timeline)
        stack.append(span)
        self.spans.append(span)
        self._switch(timeline, now, span)
        return span

    def exit(self, span):
        """Close ``span``; the cursor returns to its context's top."""
        now = perf_counter()
        span.end = now
        _context, timeline, on_fiber = self._context()
        stack = self._stacks.get(span.key, [])
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        top = stack[-1] if stack else self._fallback(span.key, on_fiber)
        self._switch(timeline, now, top)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(span)
        return traced

    def _wrap_explore(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.enter("explorer", "explore")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(span)
            tracer.explored.append(
                (result.schedules_run,
                 sum(len(run.decisions) for _schedule, run in result.runs)))
            return result
        return traced

    def _wrap_absorb(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(state, wave, outputs):
            span = tracer.enter("frontier", "FrontierState.absorb")
            try:
                return fn(state, wave, outputs)
            finally:
                tracer.exit(span)
                tracer.explored.append(
                    (len(wave), sum(len(result.decisions)
                                    for result, _findings in outputs)))
        return traced

    def _wrap_run(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(sched, *args, **kwargs):
            outer = tracer.loop_thread
            tracer.loop_thread = threading.get_ident()
            span = tracer.enter("scheduler", "DeterministicScheduler.run")
            try:
                return fn(sched, *args, **kwargs)
            finally:
                tracer.exit(span)
                tracer.loop_thread = outer
        return traced

    def _wrap_blocking(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer.blocking
            span = tracer.enter("arena", name,
                                key=("thread", threading.get_ident()))
            tracer.blocking = span
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.blocking = outer
                tracer.exit(span)
        return traced

    def _wrap_park(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(fiber, *args, **kwargs):
            loop = tracer.loop_thread
            tracer._switch(loop, perf_counter(), tracer.blocking)
            try:
                return fn(fiber, *args, **kwargs)
            finally:
                key = ("vcpu", tracer._current_vid())
                stack = tracer._stacks.get(key)
                tracer._switch(loop, perf_counter(),
                               stack[-1] if stack else tracer.blocking)
        return traced

    def wrap_idle(self, condition):
        """Record the daemon scheduler's idle waits on ``condition`` as
        ``idle`` spans (waiting for submissions is not work)."""
        self._patch_instance(condition, "wait",
                             self._wrap("idle", "Condition.wait",
                                        condition.wait))

    def _wrap_memo_init(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(memo, *args, **kwargs):
            fn(memo, *args, **kwargs)
            tracer.memos.append(memo)
        return traced

    # -- gc -------------------------------------------------------------------

    def _on_gc(self, phase, _info):
        ident = threading.get_ident()
        now = perf_counter()
        if phase == "start":
            self._gc_start[ident] = now
            return
        began = self._gc_start.pop(ident, None)
        if began is None or self.verdict is None:
            return
        pause = now - began
        self.gc_pause_s += pause
        self.gc_collections += 1
        timeline = ident
        if self.loop_thread is not None and \
                threading.current_thread().name.startswith("fiber-"):
            timeline = self.loop_thread
        self.gc_by_timeline[timeline] = \
            self.gc_by_timeline.get(timeline, 0.0) + pause
        state = self._timelines.get(timeline)
        if state is not None:
            state[2] += pause

    # -- install / uninstall --------------------------------------------------

    def _patch(self, owner, attr, replacement):
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))
        if inspect.ismodule(owner):
            # aliases imported by name into other repro modules
            for module in list(sys.modules.values()):
                if module is owner or not getattr(
                        module, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, replacement)
                        self._patches.append((module, name, original))

    def _patch_instance(self, obj, attr, replacement):
        setattr(obj, attr, replacement)
        self._patches.append((obj, attr, None))

    def _patch_layer(self, layer, module_name, attrs):
        module = importlib.import_module(module_name)
        for attr in attrs:
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            if method == "*":
                names = [name for name, value in vars(owner).items()
                         if not name.startswith("_")
                         and inspect.isfunction(value)
                         and value.__module__ == module_name]
            else:
                names = [method]
            for name in names:
                fn = vars(owner)[name]
                label = f"{owner_name}.{name}" if owner_name else name
                special = {"explore": self._wrap_explore,
                           "FrontierState.absorb": self._wrap_absorb,
                           "DeterministicScheduler.run": self._wrap_run,
                           }.get(label)
                if special is not None:
                    wrapped = special(fn)
                elif layer == "arena":
                    wrapped = self._wrap_blocking(label, fn)
                else:
                    wrapped = self._wrap(layer, label, fn)
                self._patch(owner, name, wrapped)

    def _patch_monitors(self):
        """The monitor layer: every ``hc_*`` method of ``RustMonitor``
        and of each subclass that overrides one (the planted bugs)."""
        from repro.hyperenclave import buggy  # noqa: F401 - subclasses
        from repro.hyperenclave.monitor import RustMonitor

        todo, seen = [RustMonitor], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            for name, value in list(vars(cls).items()):
                if name.startswith("hc_") and inspect.isfunction(value):
                    self._patch(cls, name, self._wrap(
                        "monitor", f"{cls.__name__}.{name}", value))

    def _patch_matrix_rows(self):
        """Matrix rows hold direct references to their ``setup_*``."""
        from repro.engine import bug_matrix

        originals = {original: getattr(owner, attr)
                     for owner, attr, original in self._patches
                     if owner is bug_matrix}
        rows = bug_matrix.MATRIX
        saved = list(rows)
        rows[:] = [(cls, det, originals.get(arg, arg)
                    if callable(arg) else arg) for cls, det, arg in rows]
        self._patches.append((rows, None, saved))

    def install(self, service=False):
        """Wrap every layer in this process; ``service`` adds the
        client/daemon layers and skips nothing else."""
        from repro.concurrency.arena import Fiber
        from repro.concurrency.scheduler import current_vid

        self._current_vid = current_vid
        for layer, module_name, attrs in LAYERS:
            self._patch_layer(layer, module_name, attrs)
        self._patch_monitors()
        self._patch_matrix_rows()
        self._patch(Fiber, "park", self._wrap_park(vars(Fiber)["park"]))
        from repro.engine.memo import CheckMemo
        self._patch(CheckMemo, "__init__",
                    self._wrap_memo_init(vars(CheckMemo)["__init__"]))
        if service:
            for layer, module_name, attrs in SERVICE_LAYERS:
                self._patch_layer(layer, module_name, attrs)
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        """Restore every wrapped attribute, newest first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            if attr is None:
                owner[:] = original
            elif original is None:
                delattr(owner, attr)        # an instance-level wrapper
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- reading --------------------------------------------------------------

    def layer_totals(self, verdicts):
        """{layer: [self seconds, outermost calls, inclusive seconds]}
        over the spans of the given verdict ids."""
        totals = {}
        for span in self.spans:
            if span.verdict not in verdicts or span.end is None:
                continue
            entry = totals.setdefault(span.layer, [0.0, 0, 0.0])
            entry[0] += span.self_s
            parent = span.parent
            if parent is None or parent.layer != span.layer:
                entry[1] += 1
                entry[2] += span.end - span.start
        return totals

    def dump(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("sid\tlayer\tname\tstart\tend\tparent\tverdict\t"
                     "self_s\n")
            for span in self.spans:
                parent = span.parent.sid if span.parent is not None else ""
                end = f"{span.end:.9f}" if span.end is not None else ""
                fh.write(f"{span.sid}\t{span.layer}\t{span.name}\t"
                         f"{span.start:.9f}\t{end}\t{parent}\t"
                         f"{span.verdict}\t{span.self_s:.9f}\n")
