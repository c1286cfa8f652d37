"""Fingerprint-keyed memoisation of the per-state checkers.

The interleaving explorer's schedules massively reconverge: at
preemption bound 2 the default campaign explores 178 schedules that
reach only a handful of distinct terminal states.  Re-running every
invariant family, the vCPU consistency check, and the noninterference
observation diff on each of them is the dominant non-execution cost —
and it is pure recomputation, because all three are side-effect-free
functions of the monitor state (``enclave_translate`` walks physical
memory directly; nothing touches a TLB or an allocator).

:class:`CheckMemo` caches each by its exact input fingerprints:

* invariant families individually, keyed by the fingerprints of just
  the structures that family reads (:data:`FAMILY_DEPS`) — the
  per-lock-structure dirty tracking: a state whose ``phys`` and
  ``enclaves`` match a certified state re-checks nothing even if its
  ``cpus`` differ;
* the vCPU consistency check, keyed by (cpus, enclaves, phys);
* per-state *observation digests*, keyed by one world's fingerprint
  plus the observing vCPU and principal — the schedule-NI final-state
  pass compares digests first, so the common all-equal case costs one
  V(p, σ) evaluation per distinct *state* instead of one diff per
  distinct *pair* of states;
* observation diffs, keyed by both worlds' combined fingerprints plus
  the observing vCPU and principal (the slow path, reached only when
  the digests disagree and a component-level witness is needed).

Memoisation by fingerprint is hash compaction (as in every stateful
model checker's visited-state table): a 64-bit blake2b collision would
alias two distinct states.  Every interleaving campaign path checks
through a memo — sequential, parallel, durable and service alike — so
the planted-bug matrix and the committed golden digests guard the
other failure mode: a memo bug masking a real violation.
"""

from hashlib import blake2b
from typing import Dict, List, Tuple

from repro.engine.fingerprint import structure_fingerprints
from repro.obs import trace as _trace
from repro.security.invariants import (
    FAMILIES,
    InvariantReport,
    check_vcpu_consistency,
)
from repro.security.noninterference import observation_diff
from repro.security.observation import observe

# The structures each invariant family reads.  Page-table walks are
# functions of physical memory; enclave metadata (roots, ELRANGE, mbuf,
# lifecycle state) comes from the enclave table.  Supersets are sound
# (they only cost extra misses), subsets are not.
FAMILY_DEPS: Dict[str, Tuple[str, ...]] = {
    "elrange-isolation": ("phys", "enclaves"),
    "marshalling-buffer": ("phys", "enclaves"),
    "epcm": ("phys", "enclaves", "epcm"),
    "enclave-invariants": ("phys", "enclaves"),
    "pt-residency": ("phys", "enclaves", "frames"),
}

# What the vCPU consistency check reads: per-core state, enclave
# metadata, and the OS EPT root (folded into the cpus fingerprint).
VCPU_DEPS: Tuple[str, ...] = ("cpus", "enclaves", "phys")


class CheckMemo:
    """Per-process cache for the three per-state checkers.

    With :meth:`enable_journal` every *miss* also appends a
    ``(table, key, value)`` entry to an in-memory journal (tables:
    ``invariants:<family>``, ``vcpu``, ``observation``).  The sharded
    executor drains the journal with each shard's results, and the
    durable orchestrator persists the drained entries to its
    :class:`~repro.service.store.MemoStore` — which :meth:`preload`s
    them back into a fresh memo on the next run, turning repeat
    campaigns into mostly cache hits.  Journaling is off by default
    (one ``is None`` test per miss when off).
    """

    def __init__(self):
        self._families: Dict[str, Dict[Tuple, List[str]]] = {
            name: {} for name, _checker in FAMILIES}
        self._vcpu: Dict[Tuple, Tuple[str, ...]] = {}
        self._obs: Dict[Tuple, Tuple[str, ...]] = {}
        self._obsdig: Dict[Tuple, str] = {}
        self.counters = {"invariants": [0, 0], "vcpu": [0, 0],
                         "observation": [0, 0],
                         "obs_digest": [0, 0]}        # [hits, misses]
        self.journal = None          # list of (table, key, value) or None

    # -- persistence bridging -----------------------------------------------

    def enable_journal(self):
        """Start journalling new entries (idempotent)."""
        if self.journal is None:
            self.journal = []

    def drain_journal(self) -> List[Tuple[str, Tuple, object]]:
        """Take and clear the journalled entries (empty when disabled)."""
        if not self.journal:
            return []
        drained, self.journal = self.journal, []
        return drained

    def _note(self, table: str, key: Tuple, value):
        if self.journal is not None:
            self.journal.append((table, key, value))

    def preload(self, entries) -> int:
        """Install persisted ``(table, key, value)`` entries; returns
        how many were accepted (unknown tables are skipped — a store
        written by a newer engine warms what it can)."""
        loaded = 0
        for table, key, value in entries:
            key = tuple(key)
            if table.startswith("invariants:"):
                family = table.partition(":")[2]
                cache = self._families.get(family)
                if cache is None:
                    continue
                cache[key] = list(value)
            elif table == "vcpu":
                self._vcpu[key] = tuple(value)
            elif table == "observation":
                self._obs[key] = tuple(value)
            elif table == "obsdigest":
                self._obsdig[key] = str(value)
            else:
                continue
            loaded += 1
        return loaded

    # -- invariant families -------------------------------------------------------

    def check_invariants(self, monitor, fps=None) -> InvariantReport:
        """Memoised :func:`~repro.security.invariants.check_all_invariants`:
        identical report, but only families whose dependency structures
        changed since a certified state actually run."""
        fps = fps or structure_fingerprints(monitor)
        report = InvariantReport()
        hits = misses = 0
        for name, checker in FAMILIES:
            key = tuple(fps[dep] for dep in FAMILY_DEPS[name])
            cache = self._families[name]
            if key in cache:
                hits += 1
                self.counters["invariants"][0] += 1
                report.violations[name] = list(cache[key])
            else:
                misses += 1
                self.counters["invariants"][1] += 1
                found = checker(monitor)
                cache[key] = list(found)
                self._note(f"invariants:{name}", key, list(found))
                report.violations[name] = found
        _trace.event("memo", checker="invariants", hits=hits,
                     misses=misses)
        return report

    # -- vCPU consistency ---------------------------------------------------------

    def check_vcpu(self, monitor, fps=None) -> List[str]:
        """Memoised per-vCPU consistency check (list of findings)."""
        fps = fps or structure_fingerprints(monitor)
        key = tuple(fps[dep] for dep in VCPU_DEPS)
        if key in self._vcpu:
            self.counters["vcpu"][0] += 1
            _trace.event("memo", checker="vcpu", hits=1, misses=0)
            return list(self._vcpu[key])
        self.counters["vcpu"][1] += 1
        _trace.event("memo", checker="vcpu", hits=0, misses=1)
        found = check_vcpu_consistency(monitor)
        self._vcpu[key] = tuple(found)
        self._note("vcpu", key, tuple(found))
        return found

    # -- observation digests and diffs ---------------------------------------------

    def observation_digest(self, state, vid, observer, fp=None) -> str:
        """Digest of V(``observer``, state) as seen from vCPU ``vid``.

        :class:`~repro.security.observation.Observation` is a frozen
        dataclass of nested tuples, so its repr is a canonical encoding;
        a 64-bit blake2b of it is subject to the same hash-compaction
        caveat as every other memo table.  Keyed per *state* — the NI
        final-state pass over N distinct terminal states costs N digest
        evaluations instead of O(N²) pairwise diffs.
        """
        from repro.engine.fingerprint import fingerprint
        fp = fp if fp is not None else fingerprint(state.monitor)
        key = (fp, vid, observer)
        if key in self._obsdig:
            self.counters["obs_digest"][0] += 1
            return self._obsdig[key]
        self.counters["obs_digest"][1] += 1
        with state.monitor.on_cpu(vid):
            snapshot = observe(state, observer)
        digest = blake2b(repr(snapshot).encode(),
                         digest_size=8).hexdigest()
        self._obsdig[key] = digest
        self._note("obsdigest", key, digest)
        return digest

    def final_state_diff(self, state_a, state_b, vid, observer,
                         fp_a=None, fp_b=None) -> Tuple[str, ...]:
        """Memoised observation diff of two final states as seen from
        vCPU ``vid`` by ``observer`` (the schedule-NI inner loop).

        The observation function reads only monitor structures plus the
        active/saved per-core state — all covered by the combined
        fingerprints — and the executing-vCPU dispatch is pinned by
        ``on_cpu``, so (fp_a, fp_b, vid, observer) determines the diff.

        Three tiers, fastest first: identical fingerprints mean
        identical states (empty diff, no observation at all); equal
        per-state :meth:`observation_digest` values mean equal
        observations (empty diff, one digest per state amortised across
        every pairing); only digest disagreement — an actual candidate
        violation — runs the component-level pairwise diff that the
        witness message needs.
        """
        from repro.engine.fingerprint import fingerprint
        fp_a = fp_a if fp_a is not None else fingerprint(state_a.monitor)
        fp_b = fp_b if fp_b is not None else fingerprint(state_b.monitor)
        if fp_a == fp_b:
            self.counters["observation"][0] += 1
            _trace.event("memo", checker="observation", hits=1, misses=0)
            return ()
        dig_a = self.observation_digest(state_a, vid, observer, fp_a)
        dig_b = self.observation_digest(state_b, vid, observer, fp_b)
        if dig_a == dig_b:
            self.counters["observation"][0] += 1
            _trace.event("memo", checker="observation", hits=1, misses=0)
            return ()
        key = (fp_a, fp_b, vid, observer)
        if key in self._obs:
            self.counters["observation"][0] += 1
            _trace.event("memo", checker="observation", hits=1, misses=0)
            return self._obs[key]
        self.counters["observation"][1] += 1
        _trace.event("memo", checker="observation", hits=0, misses=1)
        with state_a.monitor.on_cpu(vid), state_b.monitor.on_cpu(vid):
            diff = observation_diff(state_a, state_b, observer)
        self._obs[key] = diff
        self._note("observation", key, diff)
        return diff

    # -- stats ---------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {name: {"hits": hits, "misses": misses}
                for name, (hits, misses) in self.counters.items()}

    def stats_since(self, baseline) -> Dict[str, Dict[str, int]]:
        """Counter deltas relative to a :meth:`stats` snapshot."""
        current = self.stats()
        return {name: {"hits": current[name]["hits"]
                       - baseline[name]["hits"],
                       "misses": current[name]["misses"]
                       - baseline[name]["misses"]}
                for name in current}


def merge_stats(into: Dict, extra: Dict) -> Dict:
    """Accumulate one stats dict into another (shard aggregation)."""
    for name, counts in extra.items():
        slot = into.setdefault(name, {"hits": 0, "misses": 0})
        slot["hits"] += counts.get("hits", 0)
        slot["misses"] += counts.get("misses", 0)
    return into
