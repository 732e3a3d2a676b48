"""Lockstep SIMD batch execution: N identical-topology guests over numpy.

``repro`` keeps running the same program on many near-identical machines —
the noninterference probes execute every fuzz program twice differing only
in the secret page, chaos campaigns sweep replicas, and benchmark fleets
re-run one kernel across guests.  Each of those runs pays full per-step
Python dispatch.  :class:`LockstepBatch` amortizes it: N guests that share
a program, a topology, and a program counter execute *vectorized* — the N
register files are one ``[N, 16]`` uint64 array, the mapped DRAM frames
are ``[N, words]`` arrays, and one fetch/decode per step drives ALU,
load/store, and branch lanes for the whole batch at once.

**The exactness contract is absolute**: a lane's architectural state,
simulated cycle count, fault behaviour, and microarchitectural
timing-state (TLB/cache contents and LRU order, branch-predictor
counters) after a batch run are bit-identical to what ``core.run()``
would have produced on that lane alone.  Only Python-cost counters
(``decoded_hits``/``decoded_misses``, ``tlb_fastpath_hits``, trace
telemetry) may differ — the same carve-out the fast-path and trace
engines already have, and the batch differential oracle in
``repro.fuzz.oracles`` plus the ``repro bench --batch`` gate hold the
engine to it on every run.

How bit-identity survives vectorization:

* **Per-lane microarchitecture, vector operations.**  Every lane keeps
  its own TLB, cache and predictor state inside the batch arrays; numpy
  just applies the same update rule to all lanes at once.  LRU order is
  carried as per-slot timestamps from one global monotonic counter: a
  hit stamps the touched entry newest, a miss fills the
  minimum-stamp victim (empty slots carry stamp -1 and therefore fill
  first) — exactly the dict/list LRU the scalar structures implement.
* **Classify before mutate.**  Each vector step first *peeks* the
  instruction (decode memo — pure) and classifies every lane's outcome
  without touching state.  Lanes that would fault (memory fault,
  division by zero) are peeled off with their exact pre-step state and
  re-execute the whole step on the scalar engine, reproducing the
  reference interpreter's charge-then-fault ordering, fault messages,
  and handler entry to the bit.  Only then do the surviving lanes
  commit fetch charges and execution effects vectorially.
* **Divergence suspends, convergence re-forms.**  A data-dependent
  branch or ``JR`` with mixed targets commits for *all* lanes (the
  predictor update and mispredict penalty are per-lane state), then the
  majority group continues and the minority parks with its rows intact,
  keyed by its program counter.  When the batch reaches that pc the
  parked rows concatenate back in — per-lane state is row-independent,
  so re-forming is exact.  If the active group drains, the largest
  parked group restarts the batch at its pc.
* **Event horizons stop the batch.**  Ops that schedule clock events,
  talk to devices, or mutate translation authority (``DOORBELL``,
  ``WFI``, ``SETTIMER``, ``MAP``/``UNMAP``, ``IRET``, ``IORD``/
  ``IOWR``), invalid opcodes, and uniform fetch faults end vector mode
  *before* executing: every lane is exported and finishes on the scalar
  engine.  Batch-start eligibility (no pending clock events, no armed
  timer, no watchpoints, identical page tables, no writable alias of an
  executable frame) guarantees nothing event-driven can happen inside
  vector mode, which is what makes the per-lane cycle counters plain
  integer adds.

Throughput comes from a deferred-charge fast path: while fetch behaviour
is uniform (same translation most-recently-used in every lane, same
icache line MRU), per-step costs accumulate in scalar pending counters
and flush to the arrays only at divergence points — a hot ALU step is a
dictionary lookup plus one or two numpy ops for the whole batch.

``numpy`` is a hard dependency of the package, but the engine degrades
gracefully anyway: if the import is unavailable or any eligibility check
fails, every lane simply runs on the scalar engine and the result is
flagged in :class:`BatchStats` — callers never lose correctness.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Sequence

try:  # Gate, don't require: scalar fallback keeps every caller correct.
    import numpy as np
except Exception:  # pragma: no cover - exercised only without numpy
    np = None  # type: ignore[assignment]

from repro.hw.cache import Cache
from repro.hw.core import Core, CoreState
from repro.hw.isa import Op, decode
from repro.hw.memory import PAGE_SIZE, Mmu

_WORD_MASK = (1 << 64) - 1
#: Page-table-walk charge on TLB miss (single-level cores).
_WALK_CYCLES = Mmu.WALK_COST * Core.WALK_TOUCH_COST

#: Ops executed vectorially.  Everything else is an event horizon.
_VECTOR_OPS = frozenset({
    Op.NOP, Op.FENCE, Op.MOVI, Op.MOV, Op.ADD, Op.SUB, Op.MUL, Op.AND,
    Op.OR, Op.XOR, Op.SHL, Op.SHR, Op.ADDI, Op.DIV, Op.LOAD, Op.STORE,
    Op.JMP, Op.JAL, Op.JR, Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.RDCYCLE,
    Op.HALT,
})
_BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE})

_EMPTY_SET: frozenset = frozenset()

_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
assert (1 << _PAGE_SHIFT) == PAGE_SIZE

# Splits at the same branch site beyond this count stop rejoining at the
# convergence point and defer the minority instead (see _split).
_SPLIT_DEFER_THRESHOLD = 3


@dataclass
class BatchStats:
    """Telemetry for one :meth:`LockstepBatch.run` (Python-cost only)."""

    lanes: int = 0
    engaged_lanes: int = 0          # lanes that entered vector mode
    scalar_lanes: int = 0           # lanes run entirely on the scalar engine
    fallback_reason: str | None = None  # why the whole batch went scalar
    vector_steps: int = 0           # committed vector step iterations
    lane_steps_vector: int = 0      # sum over lanes of vector-committed steps
    peels: int = 0                  # lanes peeled to scalar on a would-fault
    suspends: int = 0               # lanes parked on divergence
    rejoins: int = 0                # lanes re-formed at a convergence point
    restarts: int = 0               # batch restarted from a parked group
    defers: int = 0                 # lanes deferred off a thrashing branch
    batch_stop: str | None = None   # op/reason that ended vector mode

    def to_dict(self) -> dict:
        return {
            "lanes": self.lanes,
            "engaged_lanes": self.engaged_lanes,
            "scalar_lanes": self.scalar_lanes,
            "fallback_reason": self.fallback_reason,
            "vector_steps": self.vector_steps,
            "lane_steps_vector": self.lane_steps_vector,
            "peels": self.peels,
            "suspends": self.suspends,
            "rejoins": self.rejoins,
            "restarts": self.restarts,
            "defers": self.defers,
            "batch_stop": self.batch_stop,
        }


@dataclass
class BatchResult:
    """Per-lane step counts (``core.run()``-equivalent) plus telemetry."""

    steps: list[int]
    stats: BatchStats


@dataclass
class _CacheSlot:
    """Geometry of one deduplicated cache level (identical across lanes)."""

    num_sets: int
    ways: int
    line_size: int
    hit_latency: int
    miss_latency: int
    objects: list[Cache] = field(default_factory=list)  # per-lane instance


class _Fallback(Exception):
    """Raised during eligibility/import when vector mode cannot engage."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _mmu_signature(mmu: Mmu) -> tuple:
    """Hashable view of a page table (mapping + permissions + lock state)."""
    table = tuple(sorted(
        (vpn, pte.ppn, pte.readable, pte.writable, pte.executable)
        for vpn, pte in mmu._table.items()
    ))
    return (table, mmu.locked)


class LockstepBatch:
    """Execute N cores in vectorized lockstep with exact scalar semantics.

    Build one over already-set-up cores (program loaded, lockdown applied,
    ``resume()`` called) and invoke :meth:`run` in place of per-core
    ``core.run(max_steps)`` calls.  After ``run`` returns, every core and
    its machine are authoritative again — callers capture records exactly
    as they would after scalar runs.
    """

    def __init__(self, cores: Sequence[Core]) -> None:
        self.cores = list(cores)
        self.stats = BatchStats(lanes=len(self.cores))

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------

    def run(self, max_steps: int = 100_000) -> BatchResult:
        """Run every lane for up to ``max_steps`` steps; returns per-lane
        step counts identical to what ``core.run(max_steps)`` would give."""
        n = len(self.cores)
        self._steps_total = [0] * n
        self._max_steps = max_steps
        if n == 0:
            return BatchResult([], self.stats)
        if np is None:
            return self._run_all_scalar("numpy-unavailable")

        eligible: list[int] = []
        for index, core in enumerate(self.cores):
            if self._lane_ineligible(core) is None:
                eligible.append(index)
        if eligible:
            reason = self._batch_ineligible([self.cores[i] for i in eligible])
            if reason is not None:
                return self._run_all_scalar(reason)
        if not eligible:
            return self._run_all_scalar("no-eligible-lanes")

        # Ineligible lanes (parked, mid-WFI, armed timers, ...) run scalar.
        for index, core in enumerate(self.cores):
            if index not in eligible:
                self._steps_total[index] = core.run(max_steps=max_steps)
                self.stats.scalar_lanes += 1

        try:
            self._import_lanes(eligible)
        except _Fallback as exc:
            for index in eligible:
                self._steps_total[index] = self.cores[index].run(
                    max_steps=max_steps)
                self.stats.scalar_lanes += 1
            self.stats.fallback_reason = exc.reason
            return BatchResult(self._steps_total, self.stats)

        self.stats.engaged_lanes = len(eligible)
        self._vector_loop()
        # The compiled step and block closures capture ``self``; dropping
        # them breaks that cycle, so the batch and its lane arrays are
        # freed as soon as the caller lets go, not at the next cyclic GC.
        for closures in (self._fast, self._fast2, self._seq_body):
            closures.clear()

        # Finish every engaged lane on the scalar engine for whatever
        # budget remains (peeled faults, event-horizon ops, parked lanes
        # released after the batch drained, WFI wake-ups, ...).
        for index in eligible:
            done = self._steps_total[index]
            if done < max_steps:
                self._steps_total[index] += self.cores[index].run(
                    max_steps=max_steps - done)
        return BatchResult(self._steps_total, self.stats)

    # ------------------------------------------------------------------
    # Eligibility
    # ------------------------------------------------------------------

    def _lane_ineligible(self, core: Core) -> str | None:
        if core.state is not CoreState.RUNNING:
            return "not-running"
        if core._timer_deadline is not None:
            return "timer-armed"
        if core._watchpoints:
            return "watchpoints"
        if core.speculation is not None:
            return "speculation"
        if core.second_level is not None:
            return "second-level-translation"
        if core.clock.pending:
            return "clock-events-pending"
        if core.bus._link_faults:
            return "bus-link-faults"
        for bank in core.memory_map.banks():
            if bank.faulted:
                return "faulted-bank"
        return None

    def _batch_ineligible(self, cores: list[Core]) -> str | None:
        """Cross-lane checks: same pc, same tables, same geometries."""
        first = cores[0]
        signature = _mmu_signature(first.mmu)
        slots0 = self._slot_layout(first)
        for core in cores[1:]:
            if core.pc != first.pc:
                return "divergent-start-pc"
            if _mmu_signature(core.mmu) != signature:
                return "page-tables-differ"
            if self._slot_layout(core)[:2] != slots0[:2]:
                return "cache-geometry-differs"
            if core.caches.tlb.capacity != first.caches.tlb.capacity:
                return "tlb-capacity-differs"
            predictor = core.caches.branch_predictor
            if (predictor.table_size
                    != first.caches.branch_predictor.table_size
                    or predictor.mispredict_penalty
                    != first.caches.branch_predictor.mispredict_penalty):
                return "predictor-differs"
        for slot in slots0[2]:
            if slot.hit_latency == slot.miss_latency:
                return "degenerate-cache-latency"
        # Writable alias of an executable frame would let a STORE rewrite
        # code under the decode memo; decline rather than track it.
        exec_frames = {pte.ppn for pte in first.mmu._table.values()
                       if pte.executable}
        writable_frames = {pte.ppn for pte in first.mmu._table.values()
                           if pte.writable}
        if exec_frames & writable_frames:
            return "writable-executable-alias"
        return None

    @staticmethod
    def _slot_layout(core: Core) -> tuple:
        """Deduplicated cache levels plus icache/dcache slot index paths."""
        slots: list[Cache] = []
        indices: dict[int, int] = {}
        paths = []
        for levels in (core.caches.icache_levels, core.caches.dcache_levels):
            path = []
            for cache in levels:
                key = id(cache)
                if key not in indices:
                    indices[key] = len(slots)
                    slots.append(cache)
                path.append(indices[key])
            paths.append(tuple(path))
        geometry = tuple(
            (c.num_sets, c.ways, c.line_size, c.hit_latency, c.miss_latency)
            for c in slots
        )
        slot_meta = [
            _CacheSlot(c.num_sets, c.ways, c.line_size,
                       c.hit_latency, c.miss_latency)
            for c in slots
        ]
        return (geometry, tuple(paths), slot_meta, slots)

    # ------------------------------------------------------------------
    # Import: scalar structures -> batch arrays
    # ------------------------------------------------------------------

    def _import_lanes(self, lane_indices: list[int]) -> None:
        cores = [self.cores[i] for i in lane_indices]
        first = cores[0]
        a = len(cores)
        self._lane_ids = list(lane_indices)
        self.pc = first.pc
        self._stamp = 0

        # Translation LUTs (tables verified identical across lanes).
        table = first.mmu._table
        if not table:
            raise _Fallback("empty-page-table")
        max_vpn = max(table)
        size = max_vpn + 1
        self._lut_size = size
        self._mapped = np.zeros(size, dtype=bool)
        self._perm_r = np.zeros(size, dtype=bool)
        self._perm_w = np.zeros(size, dtype=bool)
        self._perm_x = np.zeros(size, dtype=bool)
        self._ppn_lut = np.zeros(size, dtype=np.int64)
        for vpn, pte in table.items():
            self._mapped[vpn] = True
            self._perm_r[vpn] = pte.readable
            self._perm_w[vpn] = pte.writable
            self._perm_x[vpn] = pte.executable
            self._ppn_lut[vpn] = pte.ppn

        # Sparse frame mirror: only frames reachable through the tables.
        frames = sorted({pte.ppn for pte in table.values()})
        self._frame_banks: list[list] = []  # per lane: [(bank, local)] per col
        frame_cols: dict[int, int] = {}
        lane_frames: list[list] = [[] for _ in range(a)]
        for frame in frames:
            per_lane = []
            for core in cores:
                base = frame * PAGE_SIZE
                try:
                    bank, local = core.memory_map.resolve(base)
                    bank_end, local_end = core.memory_map.resolve(
                        base + PAGE_SIZE - 1)
                except Exception:
                    per_lane = None
                    break
                if bank is not bank_end or local_end != local + PAGE_SIZE - 1:
                    per_lane = None
                    break
                if not core.bus.reachable(core.name, bank.name):
                    per_lane = None
                    break
                per_lane.append((bank, local))
            if per_lane is None:
                frame_cols[frame] = -1  # access through it peels
            else:
                frame_cols[frame] = len(lane_frames[0])
                for lane, pair in enumerate(per_lane):
                    lane_frames[lane].append(pair)
        self._frame_banks = lane_frames
        self._n_cols = len(lane_frames[0])
        # vpn -> mirror column (or -1: unmapped / unreachable frame).
        self._col_lut = np.full(size, -1, dtype=np.int64)
        for vpn, pte in table.items():
            self._col_lut[vpn] = frame_cols.get(pte.ppn, -1)
        # Plain-list twins: scalar lookups in the uniform-address path
        # are ~3x cheaper than numpy scalar indexing + bool().
        self._mapped_l = self._mapped.tolist()
        self._perm_r_l = self._perm_r.tolist()
        self._perm_w_l = self._perm_w.tolist()
        self._ppn_lut_l = self._ppn_lut.tolist()
        self._col_lut_l = self._col_lut.tolist()

        mirror = np.zeros((a, self._n_cols * PAGE_SIZE), dtype=np.uint64)
        for lane, pairs in enumerate(lane_frames):
            for col, (bank, local) in enumerate(pairs):
                words = bank._words[local:local + PAGE_SIZE]
                mirror[lane, col * PAGE_SIZE:(col + 1) * PAGE_SIZE] = words
        self.mirror = mirror
        # The decode memo reads lane 0's word and assumes it holds in
        # every lane for the whole run.  Code frames are immutable in
        # vector mode (no writable alias of an executable frame), so it
        # suffices to verify they start identical.
        if a > 1:
            for vpn, pte in table.items():
                if not pte.executable:
                    continue
                col = frame_cols.get(pte.ppn, -1)
                if col < 0:
                    continue
                view = mirror[:, col * PAGE_SIZE:(col + 1) * PAGE_SIZE]
                if not (view == view[0]).all():
                    raise _Fallback("code-differs")
        self._dirty_cols: set[int] = set()
        self._store_counts = np.zeros((a, max(self._n_cols, 1)),
                                      dtype=np.int64)

        # Architectural state.  Registers are kept transposed ([R, N]) so
        # the hot ALU path slices contiguous rows, not strided columns.
        self.regs = np.ascontiguousarray(
            np.array([c.registers for c in cores], dtype=np.uint64).T)
        self.cycles = np.array([c.clock.now for c in cores], dtype=np.int64)
        self.steps = np.zeros(a, dtype=np.int64)
        self.retired = np.array([c.instructions_retired for c in cores],
                                dtype=np.int64)

        # TLBs (timestamp-LRU; -1 = empty slot).
        capacity = first.caches.tlb.capacity
        self.tlb_vpn = np.full((a, capacity), -1, dtype=np.int64)
        self.tlb_ppn = np.zeros((a, capacity), dtype=np.int64)
        self.tlb_stamp = np.full((a, capacity), -1, dtype=np.int64)
        self.tlb_hits = np.zeros(a, dtype=np.int64)
        self.tlb_misses = np.zeros(a, dtype=np.int64)
        for lane, core in enumerate(cores):
            tlb = core.caches.tlb
            for slot, (vpn, entry) in enumerate(tlb._entries.items()):
                self.tlb_vpn[lane, slot] = vpn
                self.tlb_ppn[lane, slot] = entry[0]
                self.tlb_stamp[lane, slot] = self._stamp
                self._stamp += 1
            self.tlb_hits[lane] = tlb.stats.hits
            self.tlb_misses[lane] = tlb.stats.misses

        # Cache levels (timestamp-LRU per set; tag -1 = empty way).
        _geometry, paths, slot_meta, _slots0 = self._slot_layout(first)
        self._icache_path, self._dcache_path = paths
        self._slots = slot_meta
        for lane, core in enumerate(cores):
            for slot, cache in zip(slot_meta, self._slot_layout(core)[3]):
                slot.objects.append(cache)
        self._cache_tag: list = []
        self._cache_stamp: list = []
        self._cache_hits: list = []
        self._cache_misses: list = []
        for index, slot in enumerate(self._slots):
            tags = np.full((a, slot.num_sets, slot.ways), -1, dtype=np.int64)
            stamps = np.full((a, slot.num_sets, slot.ways), -1,
                             dtype=np.int64)
            hits = np.zeros(a, dtype=np.int64)
            misses = np.zeros(a, dtype=np.int64)
            for lane in range(a):
                cache = slot.objects[lane]
                for set_index, lru in cache.lines_snapshot().items():
                    # front = MRU: give it the largest stamp in the set.
                    for pos, tag in enumerate(lru):
                        tags[lane, set_index, pos] = tag
                        stamps[lane, set_index, pos] = (
                            self._stamp + len(lru) - 1 - pos)
                hits[lane] = cache.stats.hits
                misses[lane] = cache.stats.misses
            self._stamp += slot.ways
            self._cache_tag.append(tags)
            self._cache_stamp.append(stamps)
            self._cache_hits.append(hits)
            self._cache_misses.append(misses)

        # Branch predictors.
        self.bp = np.array(
            [c.caches.branch_predictor._counters for c in cores],
            dtype=np.int16)
        self.bp_predictions = np.array(
            [c.caches.branch_predictor.predictions for c in cores],
            dtype=np.int64)
        self.bp_mispredictions = np.array(
            [c.caches.branch_predictor.mispredictions for c in cores],
            dtype=np.int64)
        self._bp_penalty = first.caches.branch_predictor.mispredict_penalty
        self._bp_size = first.caches.branch_predictor.table_size
        # While every lane shares the same branch history, predictor
        # updates run on a scalar Python shadow of the (identical)
        # counters; dirty columns sync to the array at flush points.
        self._bp_dirty: set[int] = set()

        # Active-row bookkeeping: the microarchitectural arrays above are
        # GLOBAL (row = import position, never compacted); `_gidx` maps
        # each active compact row to its global row.  Splitting and
        # re-forming the batch then only moves the small hot arrays
        # (registers, cycles, steps) — cache/TLB/predictor/DRAM state
        # stays put and is addressed through `_gidx`.
        self._gidx = np.arange(a, dtype=np.int64)
        self._bp_refresh()

        self._stamp += 1

        # Deferred uniform charges (flushed before any non-uniform event).
        self._p_cycles = 0
        self._p_steps = 0
        self._p_tlb_hits = 0
        self._p_slot_hits = [0] * len(self._slots)
        #: column -> pending store count (uniform-address stores only).
        self._p_store_counts: dict[int, int] = {}
        self._p_bp_predictions = 0
        self._p_bp_mis = 0

        # Fetch/data fast-path memos.
        l1i = self._slots[self._icache_path[0]]
        self._l1i_hit = l1i.hit_latency
        self._l1i_sets = l1i.num_sets
        self._l1i_line = l1i.line_size
        l1d = self._slots[self._dcache_path[0]]
        self._l1d_hit = l1d.hit_latency
        self._l1d_sets = l1d.num_sets
        self._l1d_line = l1d.line_size
        # The per-set MRU memos below assume fetches and data accesses
        # touch disjoint L1 slots; a unified L1 disables them.
        self._unified_l1 = self._icache_path[0] == self._dcache_path[0]
        self._f_vpn: int | None = None    # vpn newest in every lane's TLB
        #: icache set -> line last fetched through it (MRU in every lane).
        self._f_iline: dict[int, int] = {}
        #: dcache set -> line last accessed through it (MRU in every lane).
        self._f_dline: dict[int, int] = {}
        #: vpn -> per-active-row TLB way holding it (valid until any
        #: insert or membership change; hits never move an entry's slot).
        self._tlb_way: dict[int, "np.ndarray"] = {}
        #: vpn -> ways, in last-touch order: recency bumps deferred to
        #: the next flush (only the final touch of a vpn orders the LRU).
        self._touch_order: dict[int, "np.ndarray"] = {}
        #: True while the active rows are exactly 0..N-1 in order, which
        #: turns mirror gathers/scatters into plain column slices.
        self._gidx_identity = True
        #: pc -> (Instruction, imm_u64, vpn, paddr, line, iset)
        self._code: dict[int, tuple] = {}
        #: pc -> compiled step closure (sequential ops and branches).
        self._fast: dict[int, object] = {}
        #: pc -> data body of a compiled *sequential* op (None for pure
        #: control); marks the pcs ``_build_block`` may fuse.
        self._seq_body: dict[int, object] = {}
        #: pc -> fused block closure.  Blocks prebind register row views,
        #: so every membership change (park, peel, rejoin, export) clears
        #: the whole cache; blocks rebuild lazily, and splits are rare by
        #: construction (a splitting branch defers its minority).
        self._fast2: dict[int, object] = {}
        #: pc -> (cmpf, rs1, rs2, index, target, fall) for compiled
        #: branches, so _build_block can fuse a branch tail inline.
        self._branch_meta: dict[int, tuple] = {}

        self._suspended: dict[int, list[dict]] = {}
        #: Bundles parked with no convergence point: a branch that keeps
        #: splitting the mask (stable partition, e.g. a secret-dependent
        #: loop) stops paying park/rejoin per iteration — the minority is
        #: set aside and restarts as its own uniform batch once the
        #: active set drains.  Lockstep is a throughput heuristic, not a
        #: semantic requirement; any lane execution order is exact.
        self._deferred: list[dict] = []
        #: branch fall-through pc -> times that branch split the mask.
        self._split_seen: dict[int, int] = {}
        self._budget_left = self._max_steps

    def _bp_refresh(self) -> None:
        """Re-arm the scalar predictor shadow if counters are uniform.

        Callers must have flushed pending shadow-dirty columns first
        (every call site sits behind a ``_flush_pending``).
        """
        if len(self._lane_ids):
            rows = self.bp[self._gidx]
            uni = (rows == rows[0]).all(axis=0)
            self._bp_shadow = rows[0].tolist()
            if bool(uni.all()):
                self._bp_nonuniform = _EMPTY_SET
            else:
                # Per-column: one secret-dependent branch must not force
                # every other branch in the program onto the vector path.
                self._bp_nonuniform = set(np.nonzero(~uni)[0].tolist())
            return
        self._bp_nonuniform = _EMPTY_SET
        self._bp_shadow = None

    # ------------------------------------------------------------------
    # Pending-charge bookkeeping
    # ------------------------------------------------------------------

    def _flush_pending(self) -> None:
        g = self._gidx
        if self._touch_order:
            # Apply deferred TLB recency bumps in last-touch order so
            # stamps reproduce the scalar LRU sequence exactly.
            for ways in self._touch_order.values():
                self.tlb_stamp[g, ways] = self._stamp
                self._stamp += 1
            self._touch_order.clear()
        if self._p_cycles:
            self.cycles += self._p_cycles
            self._p_cycles = 0
        if self._p_steps:
            self.steps += self._p_steps
            self.retired += self._p_steps
            self._p_steps = 0
        if self._p_tlb_hits:
            self.tlb_hits[g] += self._p_tlb_hits
            self._p_tlb_hits = 0
        for index, count in enumerate(self._p_slot_hits):
            if count:
                self._cache_hits[index][g] += count
                self._p_slot_hits[index] = 0
        if self._p_store_counts:
            for col, count in self._p_store_counts.items():
                self._store_counts[g, col] += count
            self._p_store_counts.clear()
        if self._p_bp_predictions:
            self.bp_predictions[g] += self._p_bp_predictions
            self._p_bp_predictions = 0
        if self._p_bp_mis:
            self.bp_mispredictions[g] += self._p_bp_mis
            self._p_bp_mis = 0
        if self._bp_dirty:
            for index in self._bp_dirty:
                self.bp[g, index] = self._bp_shadow[index]
            self._bp_dirty.clear()

    # ------------------------------------------------------------------
    # Row management: slicing, parking, export
    # ------------------------------------------------------------------

    #: Hot per-lane arrays that compact with the active set.  Everything
    #: microarchitectural (TLB, caches, predictor, DRAM mirror) lives in
    #: global arrays addressed through ``_gidx`` and never moves, which
    #: makes splitting and re-forming the batch cheap.
    _HOT = ("cycles", "steps", "retired")

    def _take_rows(self, keep: "np.ndarray", out: "np.ndarray") -> dict:
        """Split rows out of the batch; returns the removed rows' bundle."""
        bundle: dict = {"lane_ids": [self._lane_ids[i]
                                     for i in np.nonzero(out)[0]],
                        "gidx": self._gidx[out]}
        for name in self._HOT:
            arr = getattr(self, name)
            bundle[name] = arr[out]
            setattr(self, name, arr[keep])
        bundle["regs"] = self.regs[:, out]  # transposed: lanes are axis 1
        self.regs = np.ascontiguousarray(self.regs[:, keep])
        self._gidx = self._gidx[keep]
        self._lane_ids = [lane for lane, k in zip(self._lane_ids, keep)
                          if k]
        self._gidx_identity = False
        self._tlb_way.clear()  # way memos are aligned to the active order
        # Fused blocks prebind row views of the (now reallocated) regs
        # array; every membership change invalidates them all.
        self._fast2.clear()
        self._recompute_budget()
        return bundle

    def _bundle_all(self) -> dict:
        a = len(self._lane_ids)
        mask = np.ones(a, dtype=bool)
        return self._take_rows(~mask, mask)

    def _recompute_budget(self) -> None:
        if len(self._lane_ids):
            self._budget_left = int(self._max_steps - self.steps.max())
        else:
            self._budget_left = 0

    def _park(self, out: "np.ndarray", pc: int, defer: bool = False) -> None:
        """Suspend diverged rows (step already committed) keyed by pc."""
        # Snapshot the uniform-recency memos: entries that still hold at
        # rejoin time survive the reunion (the parked rows are frozen).
        bundle = self._take_rows(~out, out)
        bundle["pc"] = pc
        bundle["f_vpn"] = self._f_vpn
        bundle["f_iline"] = dict(self._f_iline)
        bundle["f_dline"] = dict(self._f_dline)
        if defer:
            # No convergence point: the bundle sits out until the active
            # set drains, then restarts as an independent batch.
            self._deferred.append(bundle)
            self.stats.defers += len(bundle["lane_ids"])
            return
        self._suspended.setdefault(pc, []).append(bundle)
        # Fused blocks were already dropped wholesale by _take_rows, so a
        # block can never span the new convergence pc; rebuilds respect
        # the updated _suspended map.
        self.stats.suspends += len(bundle["lane_ids"])

    def _rejoin(self, pc: int) -> None:
        bundles = self._suspended.pop(pc)
        for bundle in bundles:
            for name in self._HOT:
                arr = getattr(self, name)
                setattr(self, name, np.concatenate([arr, bundle[name]]))
            self.regs = np.concatenate([self.regs, bundle["regs"]], axis=1)
            self._gidx = np.concatenate([self._gidx, bundle["gidx"]])
            self._lane_ids.extend(bundle["lane_ids"])
            self.stats.rejoins += len(bundle["lane_ids"])
            # A parked row's recency is frozen at park time, so a memo
            # entry survives the reunion iff it is unchanged since then.
            if bundle["f_vpn"] != self._f_vpn:
                self._f_vpn = None
            snap = bundle["f_iline"]
            self._f_iline = {k: v for k, v in self._f_iline.items()
                             if snap.get(k) == v}
            snap = bundle["f_dline"]
            self._f_dline = {k: v for k, v in self._f_dline.items()
                             if snap.get(k) == v}
        # Canonical row order: keeps lane order deterministic and makes
        # a full reunion's gidx the identity (fast mirror slicing).
        order = np.argsort(self._gidx)
        for name in self._HOT:
            setattr(self, name, getattr(self, name)[order])
        self.regs = np.ascontiguousarray(self.regs[:, order])
        self._gidx = self._gidx[order]
        self._lane_ids = [self._lane_ids[i] for i in order.tolist()]
        self._gidx_identity = len(self._gidx) == self.mirror.shape[0]
        self._tlb_way.clear()
        self._fast2.clear()  # reunion reallocated regs: block views stale
        self._bp_refresh()
        self._recompute_budget()

    def _export_bundle(self, bundle: dict, pc: int,
                       halted: "np.ndarray | None" = None) -> None:
        """Write batch rows back into their scalar cores, exactly.

        All heavy array work (LRU ordering, int conversion) happens once
        per bundle via vectorized argsorts + ``.tolist()``; the per-row
        loop only moves plain Python lists into the scalar structures.
        """
        lanes = bundle["lane_ids"]
        gidx = bundle["gidx"]
        glist = gidx.tolist()
        regs_rows = bundle["regs"].T.tolist()
        cycles = bundle["cycles"].tolist()
        steps = bundle["steps"].tolist()
        retired = bundle["retired"].tolist()

        # TLB: ascending-stamp order, empties (-1) sorted first and
        # dropped per row so restore_entries sees LRU-first pairs.
        t_stamps = self.tlb_stamp[gidx]
        order = np.argsort(t_stamps, axis=1, kind="stable")
        tlb_vpns = np.take_along_axis(self.tlb_vpn[gidx], order, 1).tolist()
        tlb_ppns = np.take_along_axis(self.tlb_ppn[gidx], order, 1).tolist()
        tlb_skip = (t_stamps < 0).sum(axis=1).tolist()
        tlb_hits = self.tlb_hits[gidx].tolist()
        tlb_misses = self.tlb_misses[gidx].tolist()

        # Caches: descending-stamp order per set (front = MRU); empties
        # (-1) sort last and are dropped by the per-set valid count.
        cache_sets = []
        cache_counts = []
        cache_hits = []
        cache_misses = []
        for index in range(len(self._slots)):
            stamps = self._cache_stamp[index][gidx]
            order = np.argsort(-stamps, axis=2, kind="stable")
            tags = np.take_along_axis(self._cache_tag[index][gidx], order, 2)
            cache_sets.append(tags.tolist())
            cache_counts.append((stamps >= 0).sum(axis=2).tolist())
            cache_hits.append(self._cache_hits[index][gidx].tolist())
            cache_misses.append(self._cache_misses[index][gidx].tolist())

        bp_rows = self.bp[gidx].tolist()
        bp_pred = self.bp_predictions[gidx].tolist()
        bp_mis = self.bp_mispredictions[gidx].tolist()

        for row, lane in enumerate(lanes):
            core = self.cores[lane]
            core.registers[:] = regs_rows[row]
            core.pc = pc
            core.instructions_retired = retired[row]
            if halted is not None and bool(halted[row]):
                core.state = CoreState.HALTED
            clock = core.clock
            if cycles[row] > clock._now:
                clock._now = cycles[row]

            tlb = core.caches.tlb
            skip = tlb_skip[row]
            tlb.restore_entries(
                list(zip(tlb_vpns[row][skip:], tlb_ppns[row][skip:])))
            tlb.stats.hits = tlb_hits[row]
            tlb.stats.misses = tlb_misses[row]

            position = glist[row]
            for index, slot in enumerate(self._slots):
                cache = slot.objects[position]
                row_sets = cache_sets[index][row]
                row_counts = cache_counts[index][row]
                cache.restore_lines({
                    set_index: tags[:count]
                    for set_index, (tags, count)
                    in enumerate(zip(row_sets, row_counts)) if count})
                cache.stats.hits = cache_hits[index][row]
                cache.stats.misses = cache_misses[index][row]

            predictor = core.caches.branch_predictor
            predictor.restore_counters({
                index: counter for index, counter in enumerate(bp_rows[row])
                if counter != predictor.RESET_COUNTER})
            predictor.predictions = bp_pred[row]
            predictor.mispredictions = bp_mis[row]

            self._export_memory(position)
            self._steps_total[lane] += steps[row]

    def _export_memory(self, position: int) -> None:
        pairs = self._frame_banks[position]
        counts = self._store_counts[position].tolist()
        for col in self._dirty_cols:
            bank, local = pairs[col]
            words = self.mirror[position,
                                col * PAGE_SIZE:(col + 1) * PAGE_SIZE]
            bank._words[local:local + PAGE_SIZE] = words.tolist()
        for col in range(self._n_cols):
            if counts[col]:
                pairs[col][0].write_count += counts[col]

    # ------------------------------------------------------------------
    # The vector step loop
    # ------------------------------------------------------------------

    def _vector_loop(self) -> None:
        stopped = False
        fast2 = self._fast2
        suspended = self._suspended
        while not stopped:
            if not self._lane_ids:
                if not self._restart_from_parked():
                    break
            pc = self.pc
            if pc in suspended:
                self._flush_pending()
                self._rejoin(pc)
            if self._budget_left <= 0:
                self._flush_pending()
                exhausted = self.steps >= self._max_steps
                if exhausted.any():
                    bundle = self._take_rows(~exhausted, exhausted)
                    self._export_bundle(bundle, pc)
                if not self._lane_ids:
                    continue
                if self._budget_left <= 0:
                    continue
            # Hot dispatch: compiled closures / fused blocks run back to
            # back; anything else drops to the generic _step once, then
            # control returns here (decode compiles as it goes).
            while self._lane_ids:
                pc = self.pc
                if pc in suspended or self._budget_left <= 0:
                    break
                fn = fast2.get(pc)
                if fn is None:
                    fn = self._build_block(pc)
                    if fn is not None:
                        fast2[pc] = fn
                if fn is not None:
                    if not fn():
                        stopped = True
                        break
                elif not self._step():
                    stopped = True
                    break
        # Vector mode is over: release anything still parked or deferred.
        self._flush_pending()
        for pc, bundles in list(self._suspended.items()):
            for bundle in bundles:
                self._export_bundle(bundle, pc)
        self._suspended.clear()
        for bundle in self._deferred:
            self._export_bundle(bundle, bundle["pc"])
        self._deferred.clear()

    def _restart_from_parked(self) -> bool:
        """Re-engage the batch from the largest parked group."""
        if self._deferred:
            # Deferred bundles become restartable groups now that the
            # active set has drained; same-pc bundles merge on rejoin.
            for bundle in self._deferred:
                self._suspended.setdefault(bundle["pc"], []).append(bundle)
            self._deferred.clear()
        if not self._suspended:
            return False
        best_pc = None
        best_count = -1
        for pc, bundles in sorted(self._suspended.items()):
            count = sum(len(b["lane_ids"]) for b in bundles)
            if count > best_count:
                best_pc, best_count = pc, count
        self.pc = best_pc
        self._rejoin(best_pc)
        self.stats.restarts += 1
        return True

    def _stop_batch(self, reason: str) -> bool:
        """Event horizon: export every active row pre-step and end."""
        self._flush_pending()
        self.stats.batch_stop = reason
        if self._lane_ids:
            bundle = self._bundle_all()
            self._export_bundle(bundle, self.pc)
        return False

    def _peel(self, fault: "np.ndarray") -> None:
        """Peel would-fault rows pre-step; the scalar engine re-executes
        the whole step (charges, fault message, handler entry) exactly."""
        self._flush_pending()
        bundle = self._take_rows(~fault, fault)
        self._export_bundle(bundle, self.pc)
        self.stats.peels += len(bundle["lane_ids"])

    def _step(self) -> bool:
        """One lockstep step.  Returns False when vector mode ends."""
        pc = self.pc
        fn = self._fast.get(pc)
        if fn is not None:
            return fn()
        entry = self._code.get(pc)
        if entry is None:
            entry = self._decode_at(pc)
            if entry is None:
                return False  # batch stopped inside _decode_at
            fn = self._fast.get(pc)
            if fn is not None:
                return fn()
        ins, imm_u, vpn, paddr, line, iset = entry
        op = ins.op

        if op not in _VECTOR_OPS:
            return self._stop_batch(f"op:{op.name}")

        # -- classify (pure) -------------------------------------------
        if op is Op.LOAD or op is Op.STORE:
            return self._step_memory(ins, imm_u, vpn, paddr, line, iset)
        if op is Op.DIV:
            zero = self.regs[ins.rs2] == 0
            if zero.any():
                self._peel(zero)
                if not len(self._lane_ids):
                    return True
        # -- commit ----------------------------------------------------
        self._fetch_charge(vpn, paddr, line, iset)
        self._p_cycles += Core.BASE_COST
        self._budget_left -= 1
        self.stats.vector_steps += 1
        self.stats.lane_steps_vector += len(self._lane_ids)

        regs = self.regs
        rd = ins.rd
        if op is Op.ADDI:
            if rd:
                regs[rd] = regs[ins.rs1] + imm_u
            self._commit_seq(pc)
        elif op is Op.ADD:
            if rd:
                regs[rd] = regs[ins.rs1] + regs[ins.rs2]
            self._commit_seq(pc)
        elif op in _BRANCH_OPS:
            return self._step_branch(ins, pc)
        elif op is Op.AND:
            if rd:
                regs[rd] = regs[ins.rs1] & regs[ins.rs2]
            self._commit_seq(pc)
        elif op is Op.XOR:
            if rd:
                regs[rd] = regs[ins.rs1] ^ regs[ins.rs2]
            self._commit_seq(pc)
        elif op is Op.OR:
            if rd:
                regs[rd] = regs[ins.rs1] | regs[ins.rs2]
            self._commit_seq(pc)
        elif op is Op.MOVI:
            if rd:
                regs[rd] = imm_u
            self._commit_seq(pc)
        elif op is Op.MOV:
            if rd:
                regs[rd] = regs[ins.rs1]
            self._commit_seq(pc)
        elif op is Op.SUB:
            if rd:
                regs[rd] = regs[ins.rs1] - regs[ins.rs2]
            self._commit_seq(pc)
        elif op is Op.MUL:
            if rd:
                regs[rd] = regs[ins.rs1] * regs[ins.rs2]
            self._p_cycles += 2
            self._commit_seq(pc)
        elif op is Op.DIV:
            if rd:
                regs[rd] = regs[ins.rs1] // regs[ins.rs2]
            self._p_cycles += 10
            self._commit_seq(pc)
        elif op is Op.SHL:
            if rd:
                shift = regs[ins.rs2] & np.uint64(63)
                regs[rd] = regs[ins.rs1] << shift
            self._commit_seq(pc)
        elif op is Op.SHR:
            if rd:
                shift = regs[ins.rs2] & np.uint64(63)
                regs[rd] = regs[ins.rs1] >> shift
            self._commit_seq(pc)
        elif op is Op.NOP or op is Op.FENCE:
            self._commit_seq(pc)
        elif op is Op.HALT:
            self._p_steps += 1
            self.pc = pc + 1
            self._flush_pending()
            halted = np.ones(len(self._lane_ids), dtype=bool)
            bundle = self._bundle_all()
            self._export_bundle(bundle, pc + 1, halted=halted)
            return True  # parked groups may restart the batch
        elif op is Op.JMP:
            self._p_steps += 1
            self.pc = ins.imm
        elif op is Op.JAL:
            if rd:
                regs[rd] = np.uint64((pc + 1) & _WORD_MASK)
            self._p_steps += 1
            self.pc = ins.imm
        elif op is Op.JR:
            return self._step_jr(ins, pc)
        elif op is Op.RDCYCLE:
            self._flush_pending()
            if rd:
                regs[rd] = self.cycles.astype(np.uint64)
            self._p_steps += 1
            self.pc = pc + 1
        else:  # pragma: no cover - _VECTOR_OPS is exhaustive above
            return self._stop_batch(f"op:{op.name}")
        return True

    def _commit_seq(self, pc: int) -> None:
        self._p_steps += 1
        self.pc = pc + 1

    # -- fetch ---------------------------------------------------------

    def _decode_at(self, pc: int):
        """Populate the decode memo (pure: no state is touched)."""
        if pc < 0:
            self._stop_batch("fetch-fault")
            return None
        vpn = pc // PAGE_SIZE
        if vpn >= self._lut_size or not self._mapped[vpn] \
                or not self._perm_x[vpn]:
            self._stop_batch("fetch-fault")
            return None
        col = int(self._col_lut[vpn])
        if col < 0:
            self._stop_batch("fetch-unreachable")
            return None
        offset = pc - vpn * PAGE_SIZE
        words = self.mirror[:, col * PAGE_SIZE + offset]
        if len(words) > 1 and not (words == words[0]).all():
            self._stop_batch("nonuniform-code")
            return None
        try:
            ins = decode(int(words[0]))
        except ValueError:
            self._stop_batch("invalid-opcode")
            return None
        paddr = int(self._ppn_lut[vpn]) * PAGE_SIZE + offset
        line = paddr // self._l1i_line
        entry = (ins, np.uint64(ins.imm & _WORD_MASK), vpn, paddr, line,
                 line % self._l1i_sets)
        self._code[pc] = entry
        self._compile_step(ins, pc, vpn, paddr, line,
                           line % self._l1i_sets)
        return entry

    def _compile_step(self, ins, pc: int, vpn: int, paddr: int,
                      line: int, iset: int) -> None:
        """Compile a sequential op or branch into a specialized closure.

        The closure fuses fetch-charge memo checks, deferred accounting
        and the (in-place, wrap-exact uint64) data operation, removing
        the per-step dispatch chain from the hot path.  Ops that can
        fault or end the batch are left to the generic path.  Sequential
        ops additionally record their data body in ``_seq_body`` so
        ``_build_block`` can fuse straight-line runs.
        """
        if self._unified_l1:
            return  # per-set MRU memos are disabled; generic path
        op = ins.op
        rd, rs1, rs2 = ins.rd, ins.rs1, ins.rs2
        imm_u = np.uint64(ins.imm & _WORD_MASK)
        base_cost = Core.BASE_COST + (2 if op is Op.MUL else 0)
        hit_cost = base_cost + self._l1i_hit
        i0 = self._icache_path[0]
        icache_path = self._icache_path
        stats = self.stats
        next_pc = ins.imm if op in (Op.JMP, Op.JAL) else pc + 1

        if op in _BRANCH_OPS:
            if op is Op.BEQ:
                cmpf = np.equal
            elif op is Op.BNE:
                cmpf = np.not_equal
            elif op is Op.BLT:
                cmpf = np.less
            else:
                cmpf = np.greater_equal
            index = pc % self._bp_size
            target = ins.imm

            def branch_fn():
                s = self
                if vpn != s._f_vpn:
                    s._tlb_touch(vpn)
                    s._f_vpn = vpn
                else:
                    s._p_tlb_hits += 1
                if s._f_iline.get(iset) == line:
                    s._p_cycles += hit_cost
                    s._p_slot_hits[i0] += 1
                else:
                    s._probe_hierarchy_scalar(paddr, icache_path)
                    s._f_iline[iset] = line
                    s._p_cycles += base_cost
                s._budget_left -= 1
                stats.vector_steps += 1
                stats.lane_steps_vector += len(s._lane_ids)
                r = s.regs
                return s._branch_commit(cmpf(r[rs1], r[rs2]), index,
                                        target, next_pc)

            self._fast[pc] = branch_fn
            self._branch_meta[pc] = (cmpf, rs1, rs2, index, target, next_pc)
            return

        if op is Op.LOAD or op is Op.STORE:
            is_store = op is Op.STORE
            imm = ins.imm
            if imm >= 0:
                def mem_fn():
                    s = self
                    # Byte-compare beats a numpy reduction at this width.
                    bb = s.regs[rs1].tobytes()
                    if bb != bb[:8] * (len(bb) >> 3):
                        return s._step_memory(ins, imm_u, vpn, paddr,
                                              line, iset)
                    raw = int.from_bytes(bb[:8], sys.byteorder) + imm
                    return s._memory_uniform(ins, is_store,
                                             raw & _WORD_MASK,
                                             raw > _WORD_MASK,
                                             vpn, paddr, line, iset)
            else:
                magnitude = (-imm) & _WORD_MASK

                def mem_fn():
                    s = self
                    bb = s.regs[rs1].tobytes()
                    if bb != bb[:8] * (len(bb) >> 3):
                        return s._step_memory(ins, imm_u, vpn, paddr,
                                              line, iset)
                    bi = int.from_bytes(bb[:8], sys.byteorder)
                    return s._memory_uniform(ins, is_store,
                                             (bi - magnitude) & _WORD_MASK,
                                             bi < magnitude,
                                             vpn, paddr, line, iset)

            self._fast[pc] = mem_fn
            return

        ufuncs = {Op.ADD: np.add, Op.SUB: np.subtract,
                  Op.MUL: np.multiply, Op.AND: np.bitwise_and,
                  Op.OR: np.bitwise_or, Op.XOR: np.bitwise_xor}
        seq_ops = (Op.NOP, Op.FENCE, Op.JMP, Op.JAL, Op.MOVI, Op.MOV,
                   Op.ADDI, Op.SHL, Op.SHR)
        if op not in ufuncs and op not in seq_ops:
            return  # memory / DIV / event horizon: generic path
        # uint64 arithmetic wraps mod 2**64 natively, so no & MASK pass.
        if rd == 0 or op in (Op.NOP, Op.FENCE, Op.JMP):
            body = None
        elif op in ufuncs:
            uf = ufuncs[op]

            def body(r):
                uf(r[rs1], r[rs2], out=r[rd])
        elif op is Op.ADDI:
            def body(r):
                np.add(r[rs1], imm_u, out=r[rd])
        elif op is Op.MOVI:
            def body(r):
                r[rd].fill(imm_u)
        elif op is Op.MOV:
            def body(r):
                np.copyto(r[rd], r[rs1])
        elif op is Op.JAL:
            link = np.uint64((pc + 1) & _WORD_MASK)

            def body(r):
                r[rd].fill(link)
        elif op is Op.SHL:
            six3 = np.uint64(63)

            def body(r):
                np.left_shift(r[rs1], r[rs2] & six3, out=r[rd])
        elif op is Op.SHR:
            six3 = np.uint64(63)

            def body(r):
                np.right_shift(r[rs1], r[rs2] & six3, out=r[rd])

        def fn():
            s = self
            if vpn != s._f_vpn:
                s._tlb_touch(vpn)
                s._f_vpn = vpn
            else:
                s._p_tlb_hits += 1
            if s._f_iline.get(iset) == line:
                s._p_cycles += hit_cost
                s._p_slot_hits[i0] += 1
            else:
                s._probe_hierarchy_scalar(paddr, icache_path)
                s._f_iline[iset] = line
                s._p_cycles += base_cost
            s._p_steps += 1
            s._budget_left -= 1
            stats.vector_steps += 1
            stats.lane_steps_vector += len(s._lane_ids)
            if body is not None:
                body(s.regs)
            s.pc = next_pc
            return True

        self._fast[pc] = fn
        self._seq_body[pc] = body

    #: Register-register ufuncs a fused block body may contain.
    _UFUNCS = {Op.ADD: np.add, Op.SUB: np.subtract, Op.MUL: np.multiply,
               Op.AND: np.bitwise_and, Op.OR: np.bitwise_or,
               Op.XOR: np.bitwise_xor}

    def _fuse_bodies(self, pcs: list) -> "object | None":
        """Compile a block's data bodies into ONE generated function.

        Register rows are prebound as views of the current ``regs``
        array — safe because every membership change reallocates
        ``regs`` and clears the block cache — so each fused op costs
        exactly one ufunc call: no per-op closure dispatch and no row
        indexing left on the hot path.
        """
        r = self.regs
        ns: dict[str, object] = {}
        lines: list[str] = []
        for j, p in enumerate(pcs):
            if self._seq_body[p] is None:
                continue
            ins = self._code[p][0]
            op, rd, rs1, rs2 = ins.op, ins.rd, ins.rs1, ins.rs2
            ns.setdefault(f"v{rd}", r[rd])
            uf = self._UFUNCS.get(op)
            if uf is not None:
                ns.setdefault(f"v{rs1}", r[rs1])
                ns.setdefault(f"v{rs2}", r[rs2])
                ns[f"f{j}"] = uf
                lines.append(f"f{j}(v{rs1}, v{rs2}, out=v{rd})")
            elif op is Op.ADDI:
                ns.setdefault(f"v{rs1}", r[rs1])
                ns[f"f{j}"] = np.add
                ns[f"c{j}"] = np.uint64(ins.imm & _WORD_MASK)
                lines.append(f"f{j}(v{rs1}, c{j}, out=v{rd})")
            elif op is Op.MOVI:
                ns[f"c{j}"] = np.uint64(ins.imm & _WORD_MASK)
                lines.append(f"v{rd}.fill(c{j})")
            elif op is Op.MOV:
                ns.setdefault(f"v{rs1}", r[rs1])
                ns[f"f{j}"] = np.copyto
                lines.append(f"f{j}(v{rd}, v{rs1})")
            elif op is Op.JAL:
                ns[f"c{j}"] = np.uint64((p + 1) & _WORD_MASK)
                lines.append(f"v{rd}.fill(c{j})")
            else:  # SHL / SHR mask the count exactly like the scalar core
                ns.setdefault(f"v{rs1}", r[rs1])
                ns.setdefault(f"v{rs2}", r[rs2])
                ns[f"f{j}"] = (np.left_shift if op is Op.SHL
                               else np.right_shift)
                ns["c63"] = np.uint64(63)
                lines.append(f"f{j}(v{rs1}, v{rs2} & c63, out=v{rd})")
        if not lines:
            return None
        src = "def _body():\n" + "".join(f"    {ln}\n" for ln in lines)
        exec(src, ns)
        return ns["_body"]

    def _build_block(self, pc: int):
        """Fuse a straight-line run of compiled sequential closures.

        Returns one fused closure covering the run (or the single
        compiled closure when no run starts at ``pc``, or None when the
        pc is not compiled at all).  When every fetch in the run hits
        the L1i/TLB memos the whole run charges and retires in one shot;
        otherwise it falls back to the per-op closures.  Runs never span
        a parked convergence pc, and ``_park`` drops all cached blocks.
        """
        fns = []
        pcs = []
        vpn0 = None
        cur = pc
        while (cur not in self._suspended and len(pcs) < 16
               and cur in self._seq_body):
            entry = self._code[cur]
            ins, vpn = entry[0], entry[2]
            if vpn0 is None:
                vpn0 = vpn
            elif vpn != vpn0:
                break  # single-vpn runs keep the _f_vpn guard scalar
            fns.append(self._fast[cur])
            pcs.append(cur)
            if ins.op in (Op.JMP, Op.JAL):
                break
            cur += 1
        if not fns:
            return self._fast.get(pc)  # branch closure, or None

        k = len(fns)
        last = self._code[pcs[-1]][0]
        end_pc = last.imm if last.op in (Op.JMP, Op.JAL) else pcs[-1] + 1
        total = 0
        guard: dict[int, int] = {}  # iset -> line for every fetch
        for p in pcs:
            ins, _u, _vpn, _paddr, line, iset = self._code[p]
            total += (Core.BASE_COST + (2 if ins.op is Op.MUL else 0)
                      + self._l1i_hit)
            if guard.setdefault(iset, line) != line:
                return fns[0]  # set conflict: memo can't witness both

        # Fold a fall-through branch into the block tail: the whole loop
        # body then commits in a single closure call per iteration.
        tail = None
        if (last.op not in (Op.JMP, Op.JAL) and cur not in self._suspended
                and cur in self._branch_meta):
            _b, _u, b_vpn, _paddr, b_line, b_iset = self._code[cur]
            if (b_vpn == vpn0
                    and guard.setdefault(b_iset, b_line) == b_line):
                tail = self._branch_meta[cur]
        if tail is None and len(fns) == 1:
            return fns[0]
        body_all = self._fuse_bodies(pcs)
        pairs = tuple(guard.items())
        i0 = self._icache_path[0]
        stats = self.stats
        fetch_n = k + (1 if tail is not None else 0)
        if tail is not None:
            total += Core.BASE_COST + self._l1i_hit
            cmpf, rs1, rs2, index, target, fall = tail
            bfn = self._fast[cur]
            tb1 = self.regs[rs1]
            tb2 = self.regs[rs2]

        def fused():
            s = self
            ok = s._budget_left >= fetch_n
            if ok:
                fil = s._f_iline
                for iset, line in pairs:
                    if fil.get(iset) != line:
                        ok = False
                        break
            if not ok:
                for f in fns:
                    f()
                    if s._budget_left <= 0:
                        return True
                if tail is None or s._budget_left <= 0:
                    return True
                return bfn()
            if s._f_vpn != vpn0:
                # A data access made another page MRU: one real touch
                # restores recency, the rest of the run hits the memo.
                s._tlb_touch(vpn0)
                s._f_vpn = vpn0
                s._p_tlb_hits += fetch_n - 1
            else:
                s._p_tlb_hits += fetch_n
            s._p_cycles += total
            s._p_slot_hits[i0] += fetch_n
            s._p_steps += k
            s._budget_left -= fetch_n
            stats.vector_steps += fetch_n
            stats.lane_steps_vector += fetch_n * len(s._lane_ids)
            if body_all is not None:
                body_all()
            if tail is None:
                s.pc = end_pc
                return True
            # The branch step itself is accounted by _branch_commit.
            return s._branch_commit(cmpf(tb1, tb2), index, target, fall)

        return fused

    def _fetch_charge(self, vpn: int, paddr: int, line: int,
                      iset: int) -> None:
        """Commit the fetch's TLB/icache charges for every active row."""
        if vpn != self._f_vpn:
            self._tlb_touch(vpn)
            self._f_vpn = vpn
        else:
            self._p_tlb_hits += 1
        if not self._unified_l1 and self._f_iline.get(iset) == line:
            # Line is still MRU in this L1i set in every lane (only
            # fetches touch the icache): scalar MRU short-circuit.
            self._p_cycles += self._l1i_hit
            self._p_slot_hits[self._icache_path[0]] += 1
        else:
            self._probe_hierarchy_scalar(paddr, self._icache_path)
            if not self._unified_l1:
                self._f_iline[iset] = line

    def _tlb_touch(self, vpn: int) -> None:
        """TLB probe at one vpn common to all lanes.

        Hits never move an entry between ways, so a uniform hit's way
        vector is memoized: repeat probes of the same vpn become one
        stamp scatter.  Any insert can evict a memoized entry, so the
        memo is dropped on every miss path (and on membership changes).
        """
        ways = self._tlb_way.get(vpn)
        if ways is not None:
            # Defer the recency bump: only the LAST touch of each vpn
            # matters for LRU order, so keep an insertion-ordered dict of
            # pending touches and stamp them at the next flush.
            to = self._touch_order
            to.pop(vpn, None)
            to[vpn] = ways
            self._p_tlb_hits += 1
            return
        g = self._gidx
        eq = self.tlb_vpn[g] == vpn
        hit = eq.any(axis=1)
        if bool(hit.all()):
            ways = eq.argmax(axis=1)
            self._tlb_way[vpn] = ways
            to = self._touch_order
            to.pop(vpn, None)
            to[vpn] = ways
            self._p_tlb_hits += 1
            return
        self._flush_pending()
        self.tlb_hits[g] += hit
        self.tlb_misses[g] += ~hit
        hrows = np.nonzero(hit)[0]
        if len(hrows):
            self.tlb_stamp[g[hrows], eq[hrows].argmax(axis=1)] = self._stamp
        mrows = np.nonzero(~hit)[0]
        victims = self.tlb_stamp[g[mrows]].argmin(axis=1)
        self.tlb_vpn[g[mrows], victims] = vpn
        self.tlb_ppn[g[mrows], victims] = int(self._ppn_lut[vpn])
        self.tlb_stamp[g[mrows], victims] = self._stamp
        self.cycles[mrows] += _WALK_CYCLES
        self._stamp += 1
        self._tlb_way.clear()

    def _probe_hierarchy_scalar(self, paddr: int, path: tuple) -> None:
        """Cache-hierarchy probe at one paddr common to all lanes."""
        g = self._gidx
        a = len(g)
        latency = None
        pending = None  # rows still descending (allocated lazily)
        for depth, slot_index in enumerate(path):
            slot = self._slots[slot_index]
            line = paddr // slot.line_size
            set_index = line % slot.num_sets
            tag = line // slot.num_sets
            eq = self._cache_tag[slot_index][g, set_index] == tag
            hit = eq.any(axis=1)
            if depth == 0:
                if bool(hit.all()):
                    # Uniform L1 hit: stamp bump + deferred stats/latency.
                    self._cache_stamp[slot_index][
                        g, set_index, eq.argmax(axis=1)] = self._stamp
                    self._stamp += 1
                    self._p_cycles += slot.hit_latency
                    self._p_slot_hits[slot_index] += 1
                    return
                self._flush_pending()
                latency = np.zeros(a, dtype=np.int64)
                pending = np.ones(a, dtype=bool)
            hit &= pending
            miss = pending & ~hit
            hrows = np.nonzero(hit)[0]
            if len(hrows):
                self._cache_stamp[slot_index][
                    g[hrows], set_index, eq[hrows].argmax(axis=1)
                ] = self._stamp
                self._cache_hits[slot_index][g[hrows]] += 1
                latency[hrows] += slot.hit_latency
            mrows = np.nonzero(miss)[0]
            if len(mrows):
                stamps = self._cache_stamp[slot_index][g[mrows], set_index]
                victims = stamps.argmin(axis=1)
                self._cache_tag[slot_index][
                    g[mrows], set_index, victims] = tag
                self._cache_stamp[slot_index][
                    g[mrows], set_index, victims] = self._stamp
                self._cache_misses[slot_index][g[mrows]] += 1
                latency[mrows] += slot.miss_latency
            self._stamp += 1
            pending = miss
            if not pending.any():
                break
        self.cycles += latency

    # -- memory ops ----------------------------------------------------

    def _step_memory(self, ins, imm_u, f_vpn, f_paddr, f_line,
                     f_iset) -> bool:
        is_store = ins.op is Op.STORE
        base = self.regs[ins.rs1]
        imm = ins.imm
        if imm >= 0:
            addr = base + imm_u
            overflow = addr < base
        else:
            magnitude = np.uint64((-imm) & _WORD_MASK)
            overflow = base < magnitude
            addr = base - magnitude
        if bool((base == base[0]).all()):
            # Same base register value in every lane (same imm always):
            # one scalar translation covers the batch.
            return self._memory_uniform(ins, is_store, int(addr[0]),
                                        bool(overflow[0]),
                                        f_vpn, f_paddr, f_line, f_iset)
        vpn = (addr >> np.uint64(6)).astype(np.int64)
        in_range = ~overflow & (vpn < self._lut_size)
        safe_vpn = np.where(in_range, vpn, 0)
        perm = self._perm_w if is_store else self._perm_r
        ok = in_range & self._mapped[safe_vpn] & perm[safe_vpn]
        col = self._col_lut[safe_vpn]
        fault = ~ok | (col < 0)
        if fault.any():
            self._peel(fault)
            if not len(self._lane_ids):
                return True
            keep = ~fault
            addr, vpn, col = addr[keep], vpn[keep], col[keep]

        # All remaining rows commit this step.
        pc = self.pc
        self._fetch_charge(f_vpn, f_paddr, f_line, f_iset)
        self._p_cycles += Core.BASE_COST
        self._budget_left -= 1
        self._flush_pending()
        self.stats.vector_steps += 1
        self.stats.lane_steps_vector += len(self._lane_ids)

        self._tlb_probe_vector(vpn)
        offset = (addr & np.uint64(PAGE_SIZE - 1)).astype(np.int64)
        paddr = self._ppn_lut[vpn] * PAGE_SIZE + offset
        self._dcache_probe(paddr)

        flat = col * PAGE_SIZE + offset
        if is_store:
            self.mirror[self._gidx, flat] = self.regs[ins.rs2]
            # Global rows are unique, so a plain fancy-index add is exact.
            self._store_counts[self._gidx, col] += 1
            self._dirty_cols.update(col.tolist())
        else:
            if ins.rd:
                self.regs[ins.rd] = self.mirror[self._gidx, flat]
        self.steps += 1
        self.retired += 1
        self.pc = pc + 1
        # Per-lane translations disturb TLB/L1d recency arbitrarily.
        self._f_vpn = None
        self._f_dline.clear()
        return True

    def _memory_uniform(self, ins, is_store: bool, addr0: int,
                        overflow: bool, f_vpn, f_paddr, f_line,
                        f_iset) -> bool:
        """LOAD/STORE whose effective address is identical in all lanes.

        The whole translate/probe pipeline collapses to scalar work plus
        one gather or scatter column; accounting stays pending.
        """
        pc = self.pc
        vpn0 = addr0 >> _PAGE_SHIFT
        if (overflow or vpn0 >= self._lut_size
                or not self._mapped_l[vpn0]
                or not (self._perm_w_l[vpn0] if is_store
                        else self._perm_r_l[vpn0])):
            self._peel(np.ones(len(self._lane_ids), dtype=bool))
            return True
        col0 = self._col_lut_l[vpn0]
        if col0 < 0:
            self._peel(np.ones(len(self._lane_ids), dtype=bool))
            return True

        self._fetch_charge(f_vpn, f_paddr, f_line, f_iset)
        self._p_cycles += Core.BASE_COST
        self._budget_left -= 1
        self.stats.vector_steps += 1
        self.stats.lane_steps_vector += len(self._lane_ids)

        if vpn0 != self._f_vpn:
            self._tlb_touch(vpn0)
            self._f_vpn = vpn0
        else:
            self._p_tlb_hits += 1
        offset = addr0 - (vpn0 << _PAGE_SHIFT)
        paddr0 = self._ppn_lut_l[vpn0] * PAGE_SIZE + offset
        dline = paddr0 // self._l1d_line
        dset = dline % self._l1d_sets
        if not self._unified_l1 and self._f_dline.get(dset) == dline:
            self._p_cycles += self._l1d_hit
            self._p_slot_hits[self._dcache_path[0]] += 1
        else:
            self._probe_hierarchy_scalar(paddr0, self._dcache_path)
            if not self._unified_l1:
                self._f_dline[dset] = dline

        flat = col0 * PAGE_SIZE + offset
        if self._gidx_identity:
            if is_store:
                self.mirror[:, flat] = self.regs[ins.rs2]
                counts = self._p_store_counts
                counts[col0] = counts.get(col0, 0) + 1
                self._dirty_cols.add(col0)
            elif ins.rd:
                self.regs[ins.rd] = self.mirror[:, flat]
        elif is_store:
            self.mirror[self._gidx, flat] = self.regs[ins.rs2]
            counts = self._p_store_counts
            counts[col0] = counts.get(col0, 0) + 1
            self._dirty_cols.add(col0)
        elif ins.rd:
            self.regs[ins.rd] = self.mirror[self._gidx, flat]
        self._p_steps += 1
        self.pc = pc + 1
        return True

    def _tlb_probe_vector(self, vpn: "np.ndarray") -> None:
        g = self._gidx
        eq = self.tlb_vpn[g] == vpn[:, None]
        hit = eq.any(axis=1)
        self.tlb_hits[g] += hit
        self.tlb_misses[g] += ~hit
        hrows = np.nonzero(hit)[0]
        if len(hrows):
            self.tlb_stamp[g[hrows], eq[hrows].argmax(axis=1)] = self._stamp
        mrows = np.nonzero(~hit)[0]
        if len(mrows):
            victims = self.tlb_stamp[g[mrows]].argmin(axis=1)
            self.tlb_vpn[g[mrows], victims] = vpn[mrows]
            self.tlb_ppn[g[mrows], victims] = self._ppn_lut[vpn[mrows]]
            self.tlb_stamp[g[mrows], victims] = self._stamp
            self.cycles[mrows] += _WALK_CYCLES
            self._tlb_way.clear()
        self._stamp += 1

    def _dcache_probe(self, paddr: "np.ndarray") -> None:
        g = self._gidx
        a = len(g)
        latency = np.zeros(a, dtype=np.int64)
        pending = np.ones(a, dtype=bool)
        for slot_index in self._dcache_path:
            slot = self._slots[slot_index]
            line = paddr // slot.line_size
            set_index = line % slot.num_sets
            tag = line // slot.num_sets
            tags = self._cache_tag[slot_index]
            stamps = self._cache_stamp[slot_index]
            block = tags[g, set_index, :]
            eq = block == tag[:, None]
            hit = eq.any(axis=1) & pending
            miss = pending & ~hit
            hrows = np.nonzero(hit)[0]
            if len(hrows):
                ways = eq[hrows].argmax(axis=1)
                stamps[g[hrows], set_index[hrows], ways] = self._stamp
                self._cache_hits[slot_index][g[hrows]] += 1
                latency[hrows] += slot.hit_latency
            mrows = np.nonzero(miss)[0]
            if len(mrows):
                sblock = stamps[g[mrows], set_index[mrows], :]
                victims = sblock.argmin(axis=1)
                tags[g[mrows], set_index[mrows], victims] = tag[mrows]
                stamps[g[mrows], set_index[mrows], victims] = self._stamp
                self._cache_misses[slot_index][g[mrows]] += 1
                latency[mrows] += slot.miss_latency
            self._stamp += 1
            pending = miss
            if not pending.any():
                break
        self.cycles += latency

    # -- control flow --------------------------------------------------

    def _step_branch(self, ins, pc: int) -> bool:
        a_row = self.regs[ins.rs1]
        b_row = self.regs[ins.rs2]
        op = ins.op
        if op is Op.BEQ:
            taken = a_row == b_row
        elif op is Op.BNE:
            taken = a_row != b_row
        elif op is Op.BLT:
            taken = a_row < b_row
        else:
            taken = a_row >= b_row
        return self._branch_commit(taken, pc % self._bp_size, ins.imm,
                                   pc + 1)

    def _branch_commit(self, taken: "np.ndarray", index: int, target: int,
                       fall: int) -> bool:
        """Commit a branch step given per-lane outcomes (fetch charged)."""
        taken_count = np.count_nonzero(taken)
        if taken_count == taken.shape[0]:
            uniform, t0 = True, True
        elif taken_count == 0:
            uniform, t0 = True, False
        else:
            uniform = t0 = False
        if (uniform and self._bp_shadow is not None
                and index not in self._bp_nonuniform):
            # All lanes share predictor history AND agree on the outcome:
            # one scalar counter update stands in for the whole batch.
            ctr = self._bp_shadow[index]
            predicted = ctr >= 2
            if t0:
                if ctr < 3:
                    self._bp_shadow[index] = ctr + 1
                    self._bp_dirty.add(index)
            elif ctr > 0:
                self._bp_shadow[index] = ctr - 1
                self._bp_dirty.add(index)
            self._p_bp_predictions += 1
            if predicted != t0:
                self._p_bp_mis += 1
                self._p_cycles += self._bp_penalty
            self._p_steps += 1
            self.pc = target if t0 else fall
            return True

        # Mixed outcome or non-uniform history: vector path. Flush first
        # so shadow-dirty columns land in self.bp before we read it.
        self._flush_pending()
        g = self._gidx
        counters = self.bp[g, index]
        predicted = counters >= 2
        mispredict = predicted != taken
        self.bp[g, index] = np.where(
            taken, np.minimum(counters + 1, 3), np.maximum(counters - 1, 0))
        self.bp_predictions[g] += 1
        self.bp_mispredictions[g] += mispredict
        self.cycles += mispredict * np.int64(self._bp_penalty)
        self.steps += 1
        self.retired += 1

        if uniform:
            self._bp_refresh()
            self.pc = target if t0 else fall
            return True
        # Mixed outcome: step is committed for everyone; majority (tie:
        # the group holding the lowest lane id) continues, minority parks.
        return self._split(taken, target, fall)

    def _step_jr(self, ins, pc: int) -> bool:
        targets = self.regs[ins.rs1]
        first = int(targets[0])
        self._p_steps += 1
        if (targets == targets[0]).all():
            self.pc = first
            return True
        self._flush_pending()
        values, counts = np.unique(targets, return_counts=True)
        best = counts.max()
        lane_ids = np.asarray(self._lane_ids)
        winner = None
        winner_key = None
        for value, count in zip(values, counts):
            if count != best:
                continue
            key = int(lane_ids[targets == value].min())
            if winner_key is None or key < winner_key:
                winner, winner_key = value, key
        for value in values:
            if value == winner:
                continue
            group = targets == value
            self._park(group, int(value))
            # _park compacted every array: recompute the masks.
            targets = self.regs[ins.rs1]
            values_left = np.unique(targets)
            if len(values_left) == 1:
                break
        self._bp_refresh()
        self.pc = int(winner)
        return True

    def _split(self, taken: "np.ndarray", target_taken: int,
               target_not: int) -> bool:
        taken_count = int(taken.sum())
        not_count = len(taken) - taken_count
        lane_ids = np.asarray(self._lane_ids)
        if taken_count > not_count:
            majority_taken = True
        elif not_count > taken_count:
            majority_taken = False
        else:
            majority_taken = bool(
                lane_ids[taken].min() < lane_ids[~taken].min())
        # A branch that splits the same way every pass (a stable
        # partition, e.g. branching on a per-lane secret inside a loop)
        # would otherwise pay a park/rejoin cycle per iteration.  After a
        # few splits at the same site, defer the minority instead: both
        # halves then run uniform at full vector speed.
        seen = self._split_seen.get(target_not, 0)
        self._split_seen[target_not] = seen + 1
        defer = seen >= _SPLIT_DEFER_THRESHOLD
        if majority_taken:
            self._park(~taken, target_not, defer=defer)
            self.pc = target_taken
        else:
            self._park(taken, target_taken, defer=defer)
            self.pc = target_not
        self._bp_refresh()
        return True

    # ------------------------------------------------------------------
    # Scalar fallback
    # ------------------------------------------------------------------

    def _run_all_scalar(self, reason: str) -> BatchResult:
        self.stats.fallback_reason = reason
        self.stats.scalar_lanes = len(self.cores)
        for index, core in enumerate(self.cores):
            self._steps_total[index] = core.run(max_steps=self._max_steps)
        return BatchResult(self._steps_total, self.stats)


def run_batch(cores: Sequence[Core], max_steps: int = 100_000) -> BatchResult:
    """Convenience wrapper: lockstep-run ``cores`` for ``max_steps``."""
    return LockstepBatch(cores).run(max_steps=max_steps)
