"""The simulated CPU core: model cores and hypervisor cores.

A :class:`Core` executes GISA instructions, charging cycles to the shared
:class:`~repro.clock.VirtualClock` for ALU work, cache hits/misses, TLB
walks, and branch mispredictions.  The management surface (pause, inspect,
single-step, watchpoints, microarchitectural clear, power-down) matches the
control-bus verbs of section 3.2 one-for-one; the control bus merely forwards
to these methods, and only hypervisor-side components hold a control-bus
reference.

Model cores handle their own locally-generated interrupts and exceptions
(division by zero, invalid instructions, memory faults) via an in-core
vector — the Guillotine software hypervisor plays no part, exactly as
section 3.2 prescribes.  A fault with no handler configured parks the core
in ``FAULTED``; on a hypervisor-kind core it instead raises
:class:`~repro.errors.MachineCheck`, which the software hypervisor converts
into a forced transition to offline isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable

from repro.clock import VirtualClock
from repro.errors import (
    BusError,
    CorePoweredDown,
    InvalidInstruction,
    LockdownViolation,
    MachineCheck,
    MemoryFault,
)
from repro.hw.bus import BusMatrix, PhysicalMemoryMap
from repro.hw.cache import BranchPredictor, Cache, Tlb
from repro.hw.isa import Instruction, Op, decode
from repro.hw.memory import Mmu, PageTableEntry, PAGE_SIZE
from repro.hw.trace import (
    TRACE_HEAT_LIMIT,
    TRACE_HEAT_THRESHOLD,
    TRACE_RETRY_BACKOFF,
    VTRACE_CAP,
    compile_trace,
)

#: Exception codes written to r14 when a local handler is invoked.
EXC_DIV0 = 1
EXC_INVALID = 2
EXC_MEMFAULT = 3
EXC_LOCKDOWN = 4
EXC_TIMER = 5

#: Register that receives the exception code on handler entry.
EXC_CODE_REGISTER = 14
#: Register that receives the resume pc on handler entry; IRET jumps to it,
#: so model software can context-switch by rewriting it (section 3.3: a
#: model "may choose to structure its code by distinguishing between OS
#: software and user software ... Guillotine is agnostic").
EXC_RESUME_REGISTER = 13
#: Register that receives the faulting virtual address on memory faults —
#: what a model-internal pager needs to service a demand fault.
EXC_ADDR_REGISTER = 12

_WORD_MASK = (1 << 64) - 1

# Module-level aliases for the fused interpreter fast path in Core.step():
# a plain global load is cheaper than Enum attribute access in the dispatch
# chain that runs once per simulated instruction.
_ADDI = Op.ADDI
_ADD = Op.ADD
_LOAD = Op.LOAD
_STORE = Op.STORE
_BLT = Op.BLT
_BNE = Op.BNE
_BEQ = Op.BEQ
_BGE = Op.BGE
_AND = Op.AND
_XOR = Op.XOR
_OR = Op.OR
_MOVI = Op.MOVI
_MOV = Op.MOV
_SUB = Op.SUB
_SHL = Op.SHL
_SHR = Op.SHR
_NOP = Op.NOP
_FENCE = Op.FENCE
_HALT = Op.HALT


class CoreKind(Enum):
    MODEL = auto()
    HYPERVISOR = auto()


class CoreState(Enum):
    RUNNING = auto()
    PAUSED = auto()
    WFI = auto()         # waiting for interrupt
    HALTED = auto()      # executed HALT
    FAULTED = auto()     # unhandled exception
    POWERED_DOWN = auto()


@dataclass
class CoreCaches:
    """The microarchitectural structures attached to one core.

    ``icache_levels`` / ``dcache_levels`` are ordered nearest-first; shared
    outer levels may appear in several cores' lists.  ``private`` lists the
    levels cleared by the control bus's flush-microarch verb (shared levels
    are flushed at the machine level instead).
    """

    icache_levels: list[Cache]
    dcache_levels: list[Cache]
    tlb: Tlb
    branch_predictor: BranchPredictor
    private: list[Cache] = field(default_factory=list)


@dataclass
class SpeculationConfig:
    """Transient-execution modelling (off by default).

    When set, a mispredicted branch *shadow-executes* up to ``window``
    instructions down the predicted (wrong) path before the squash: shadow
    loads really touch the caches (the Spectre side effect), stores are
    suppressed, and architectural state is untouched.

    ``faulting_loads_forward`` models the Foreshadow/L1TF design flaw the
    paper cites [75]: a shadow load whose *second-level* (EPT) translation
    faults forwards data anyway, using the guest-physical address as if it
    were host-physical.  On the traditional shared-DRAM machine that reads
    hypervisor memory straight through the "isolation"; on Guillotine the
    equivalent wire simply does not exist, so the same gadget gets nothing.
    """

    window: int = 6
    faulting_loads_forward: bool = False


@dataclass
class Watchpoint:
    watchpoint_id: int
    kind: str          # "exec" | "read" | "write"
    start: int         # virtual word address
    length: int

    def covers(self, address: int) -> bool:
        return self.start <= address < self.start + self.length


class Core:
    """One simulated CPU core."""

    #: Base cycle cost of any instruction, before memory/branch penalties.
    BASE_COST = 1
    #: Extra cycles for ringing a doorbell (bus transaction to the LAPIC).
    DOORBELL_COST = 5
    #: Cycles per page-table-walk memory touch on TLB miss.
    WALK_TOUCH_COST = 8
    #: Fast-path interpreter switch (class default; ``repro bench`` flips it
    #: per run to compare against the reference interpreter).  The fast path
    #: changes *Python* cost only — charged cycles, event ordering, fault
    #: behaviour, and every side-channel-visible latency are bit-identical,
    #: and ``python -m repro bench`` asserts exactly that on every run.
    fast_path: bool = True
    #: Superblock trace compilation switch (:mod:`repro.hw.trace`).  Only
    #: consulted by :meth:`run` when ``fast_path`` is on; like the fast
    #: path it changes Python cost only, and ``repro bench --traces off``
    #: plus the fuzz oracle pin the cycle counts bit-identical either way.
    trace_jit: bool = True

    def __init__(
        self,
        name: str,
        kind: CoreKind,
        clock: VirtualClock,
        mmu: Mmu,
        memory_map: PhysicalMemoryMap,
        bus: BusMatrix,
        caches: CoreCaches,
    ) -> None:
        self.name = name
        self.kind = kind
        self.clock = clock
        self.mmu = mmu
        self.memory_map = memory_map
        self.bus = bus
        self.caches = caches

        self.registers = [0] * 16
        self.pc = 0
        self.state = CoreState.PAUSED

        # Local exception/interrupt handling (section 3.2: model software
        # handles its own interrupts and exceptions without the hypervisor).
        self.exception_vector: int | None = None
        self._saved_pc = 0
        self._in_handler = False
        # Core-local timer: armed by SETTIMER, fires at the instruction
        # boundary after its deadline (entirely model-internal; the
        # Guillotine software hypervisor plays no part).
        self._timer_deadline: int | None = None
        self.timer_fires = 0

        # Hooks wired by the machine builder.
        self.doorbell_handler: Callable[[str, int], None] | None = None
        self.sensitive_trap: Callable[["Core", Op, int, int], int] | None = None
        self.on_watchpoint: Callable[["Core", Watchpoint], None] | None = None
        self.on_fault: Callable[["Core", int, str], None] | None = None

        # Second-level (EPT-style) translation, used only by the traditional
        # baseline machine.  Guillotine model cores have no second level:
        # memory isolation is a property of the bus matrix instead, which is
        # the paper's "EPTs are unnecessary" simplification (experiment E12).
        self.second_level: Callable[[int, bool], int] | None = None
        #: The object behind ``second_level`` when it is a generation-
        #: counted EPT (``repro.baseline.ept.Ept``).  With it set, TLB
        #: entries cache the fully-composed translation guarded by the
        #: combined (mmu, ept) generation pair, re-enabling the TLB-hit
        #: fast path and trace compilation on second-level cores.  Custom
        #: ``second_level`` callables that leave this ``None`` keep the
        #: uncached reference behaviour.
        self.second_level_source = None
        #: Extra walk touches charged when a TLB miss crosses two levels.
        self.SECOND_LEVEL_WALK_COST = 2
        #: Transient execution: ``None`` disables speculation entirely.
        self.speculation: SpeculationConfig | None = None
        self.shadow_instructions = 0
        self.shadow_loads_forwarded = 0

        self._watchpoints: dict[int, Watchpoint] = {}
        self._next_watchpoint_id = 1

        self.instructions_retired = 0
        self.faults = 0
        self.last_fault: str | None = None
        self.last_watchpoint: Watchpoint | None = None

        # Fast-path accounting (Python-cost caches; timing-invisible).
        self.decoded_hits = 0
        self.decoded_misses = 0
        self.tlb_fastpath_hits = 0

        # Superblock trace state (repro.hw.trace): virtual-pc -> compiled
        # trace handles, dispatch-count heat for compile triggering, and
        # telemetry counters.  All Python-cost, like the decoded cache.
        self._vtraces: dict[int, object] = {}
        self._trace_heat: dict[int, int] = {}
        self.trace_hits = 0
        self.trace_bailouts = 0
        self.trace_steps = 0

    # ------------------------------------------------------------------
    # State predicates
    # ------------------------------------------------------------------

    @property
    def is_running(self) -> bool:
        return self.state is CoreState.RUNNING

    @property
    def is_halted(self) -> bool:
        """Halted in the control-bus sense: not actively executing."""
        return self.state in (
            CoreState.PAUSED,
            CoreState.HALTED,
            CoreState.FAULTED,
            CoreState.WFI,
        )

    @property
    def is_powered_down(self) -> bool:
        return self.state is CoreState.POWERED_DOWN

    def _require_power(self) -> None:
        if self.is_powered_down:
            raise CorePoweredDown(f"core {self.name} is powered down")

    # ------------------------------------------------------------------
    # Management verbs (invoked via the control bus)
    # ------------------------------------------------------------------

    def pause(self) -> None:
        """Forcibly pause; idempotent for already-halted cores."""
        self._require_power()
        if self.state in (CoreState.RUNNING, CoreState.WFI):
            self.state = CoreState.PAUSED

    def resume(self) -> None:
        self._require_power()
        if self.state in (CoreState.PAUSED, CoreState.WFI):
            self.state = CoreState.RUNNING

    def single_step(self) -> None:
        """Execute exactly one instruction from the paused state."""
        self._require_power()
        if self.state is not CoreState.PAUSED:
            raise InvalidInstruction(
                f"single-step requires a paused core (state={self.state.name})"
            )
        self.state = CoreState.RUNNING
        self.step()
        if self.state is CoreState.RUNNING:
            self.state = CoreState.PAUSED

    def inspect_state(self) -> dict:
        """ISA-level snapshot; only legal on a halted core."""
        self._require_power()
        if self.is_running:
            raise InvalidInstruction("cannot inspect a running core")
        return {
            "name": self.name,
            "kind": self.kind.name,
            "state": self.state.name,
            "pc": self.pc,
            "registers": list(self.registers),
            "mmu_locked": self.mmu.locked,
            "instructions_retired": self.instructions_retired,
            "last_fault": self.last_fault,
        }

    def capture_architectural_state(self) -> dict:
        """Everything a migrated guest's core must carry to keep executing
        cycle-identically on another machine: the architectural register
        state, exception/timer machinery, retirement counters, and the
        timing-architectural microarch contents (TLB, and the sparse
        snapshots of the private caches and branch predictor: non-empty
        sets, counters off their reset value).  The timer deadline is
        stored *relative* to the current virtual time so restore works at
        any absolute clock value.  Python-level accelerators (decoded
        cache, superblock traces) are deliberately absent — they re-warm
        without cycle effects."""
        return {
            "registers": list(self.registers),
            "pc": self.pc,
            "state": self.state.name,
            "exception_vector": self.exception_vector,
            "saved_pc": self._saved_pc,
            "in_handler": self._in_handler,
            "timer_remaining": (
                None if self._timer_deadline is None
                else self._timer_deadline - self.clock.now),
            "timer_fires": self.timer_fires,
            "instructions_retired": self.instructions_retired,
            "faults": self.faults,
            "last_fault": self.last_fault,
            "tlb": self.caches.tlb.entries_snapshot(),
            "branch_predictor": self.caches.branch_predictor.counters_snapshot(),
            "private_caches": {
                cache.name: cache.lines_snapshot()
                for cache in self.caches.private
            },
        }

    def restore_architectural_state(self, state: dict) -> None:
        """Install a :meth:`capture_architectural_state` snapshot.

        The MMU and DRAM banks must already hold the checkpointed image;
        this call only rebuilds core-local state.  The predictor and each
        named cache are reset before their snapshot goes in, so an entry
        the snapshot omits is at its power-on value.  Decoded-instruction
        and trace caches are dropped (stale physical indices), which is
        purely a Python-cost event."""
        self.registers = [int(v) & _WORD_MASK for v in state["registers"]]
        self.pc = int(state["pc"])
        self.state = CoreState[state["state"]]
        vector = state["exception_vector"]
        self.exception_vector = None if vector is None else int(vector)
        self._saved_pc = int(state["saved_pc"])
        self._in_handler = bool(state["in_handler"])
        remaining = state["timer_remaining"]
        self._timer_deadline = (
            None if remaining is None else self.clock.now + int(remaining))
        self.timer_fires = int(state["timer_fires"])
        self.instructions_retired = int(state["instructions_retired"])
        self.faults = int(state["faults"])
        self.last_fault = state["last_fault"]
        self.caches.tlb.invalidate()
        self.caches.tlb.restore_entries(
            [(vpn, ppn) for vpn, ppn in state["tlb"]])
        self.caches.branch_predictor.restore_counters(
            state["branch_predictor"])
        by_name = {cache.name: cache for cache in self.caches.private}
        for name, lines in state["private_caches"].items():
            if name not in by_name:
                raise ValueError(f"checkpoint names unknown cache {name!r}")
            by_name[name].restore_lines(lines)
        self._vtraces.clear()
        self._trace_heat.clear()

    def poke_register(self, register: int, value: int) -> None:
        self._require_power()
        if self.is_running:
            raise InvalidInstruction("cannot modify a running core")
        if not 0 <= register < 16:
            raise ValueError(f"register r{register} out of range")
        if register != 0:
            self.registers[register] = value & _WORD_MASK

    def poke_pc(self, value: int) -> None:
        self._require_power()
        if self.is_running:
            raise InvalidInstruction("cannot modify a running core")
        self.pc = value

    def set_watchpoint(self, kind: str, start: int, length: int = 1) -> int:
        if kind not in ("exec", "read", "write"):
            raise ValueError(f"unknown watchpoint kind {kind!r}")
        watchpoint = Watchpoint(self._next_watchpoint_id, kind, start, length)
        self._watchpoints[watchpoint.watchpoint_id] = watchpoint
        self._next_watchpoint_id += 1
        return watchpoint.watchpoint_id

    def clear_watchpoint(self, watchpoint_id: int) -> None:
        self._watchpoints.pop(watchpoint_id, None)

    def flush_microarch(self) -> None:
        """Clear private caches, TLB, and branch predictor (covert-channel
        hygiene verb from section 3.2)."""
        self._require_power()
        for cache in self.caches.private:
            cache.flush()
        self.caches.tlb.invalidate()
        self.caches.branch_predictor.flush()
        self.invalidate_decoded()

    def invalidate_decoded(self) -> None:
        """Drop decoded-instruction cache entries and compiled traces for
        every bank this core can address (microarch-clear hygiene; also
        invoked by the control bus on lockdown changes)."""
        for bank in self.memory_map.banks():
            bank.decoded.clear()
            bank.invalidate_all_traces()
        self._vtraces.clear()
        self._trace_heat.clear()

    def power_down(self) -> None:
        """Power off; only legal from a halted state."""
        if self.is_running:
            raise InvalidInstruction("cannot power down a running core")
        self.state = CoreState.POWERED_DOWN

    def power_up(self) -> None:
        """Power on into the paused state with cleared microarch state."""
        if not self.is_powered_down:
            return
        self.state = CoreState.PAUSED
        self.registers = [0] * 16
        for cache in self.caches.private:
            cache.flush()
        self.caches.tlb.invalidate()
        self.caches.branch_predictor.flush()
        self.invalidate_decoded()

    def scrub(self) -> None:
        """Factory-reset every piece of tenant-visible core state.

        Machine-pool reuse (``repro serve``): a released core must be
        indistinguishable from a freshly built one before the next tenant's
        lease.  Architectural state, exception/timer machinery, telemetry
        counters, and all microarchitectural structures (including their
        stats) are wiped.  The MMU is *replaced*, not cleared: lockdown is
        deliberately one-way on a live MMU, so reuse gets a fresh object.
        Builder wiring (hooks, speculation config, second level) survives —
        it is machine configuration, not tenant state.
        """
        self._require_power()
        self.state = CoreState.PAUSED
        self.registers = [0] * 16
        self.pc = 0
        self.exception_vector = None
        self._saved_pc = 0
        self._in_handler = False
        self._timer_deadline = None
        self.timer_fires = 0
        self.shadow_instructions = 0
        self.shadow_loads_forwarded = 0
        self._watchpoints.clear()
        self._next_watchpoint_id = 1
        self.instructions_retired = 0
        self.faults = 0
        self.last_fault = None
        self.last_watchpoint = None
        self.decoded_hits = 0
        self.decoded_misses = 0
        self.tlb_fastpath_hits = 0
        self._vtraces.clear()
        self._trace_heat.clear()
        self.trace_hits = 0
        self.trace_bailouts = 0
        self.trace_steps = 0
        self.mmu = Mmu(f"{self.name}.mmu")
        for cache in self.caches.private:
            cache.flush()
            cache.stats.hits = 0
            cache.stats.misses = 0
        tlb = self.caches.tlb
        tlb.invalidate()
        tlb.stats.hits = 0
        tlb.stats.misses = 0
        predictor = self.caches.branch_predictor
        predictor.flush()
        predictor.predictions = 0
        predictor.mispredictions = 0
        self.invalidate_decoded()

    # ------------------------------------------------------------------
    # Memory access (through MMU, TLB, caches, bus)
    # ------------------------------------------------------------------

    def _translate(self, vaddr: int, *, write: bool = False,
                   execute: bool = False) -> int:
        vpn = vaddr // PAGE_SIZE
        entry = self.caches.tlb.lookup_entry(vpn)
        second = self.second_level
        if entry is not None:
            # TLB hit: never charges a walk (exactly as before).  If the
            # cached PTE is still current — same MMU table generation and,
            # for second-level cores, same EPT generation — authority can
            # be checked from the cached entry and the Python page walk
            # skipped entirely.
            if self.fast_path and entry[1] is not None:
                if second is None:
                    current = entry[2] == self.mmu.generation
                else:
                    source = self.second_level_source
                    generation = entry[2]
                    current = (
                        source is not None
                        and type(generation) is tuple
                        and generation[0] == self.mmu.generation
                        and generation[1] == source.generation
                    )
                if current:
                    pte = entry[1]
                    if (pte.executable if execute
                            else pte.writable if write else pte.readable):
                        self.tlb_fastpath_hits += 1
                        return entry[0] * PAGE_SIZE + (vaddr - vpn * PAGE_SIZE)
                    # Permission failure: delegate to the MMU (and EPT) so
                    # the fault message and counters are byte-for-byte the
                    # slow path's.
            # Stale or untrusted entry: authority comes from the live MMU
            # (and EPT).  Still a TLB hit timing-wise — no walk charged.
            paddr = self.mmu.translate(vaddr, write=write, execute=execute)
            if second is not None:
                paddr = second(paddr, write)
                if self.fast_path:
                    composed = self._composed_pte(vpn, paddr)
                    if composed is not None:
                        self.caches.tlb.refresh_entry(
                            vpn, paddr // PAGE_SIZE, composed,
                            (self.mmu.generation,
                             self.second_level_source.generation),
                        )
            elif self.fast_path:
                self.caches.tlb.refresh_entry(
                    vpn, paddr // PAGE_SIZE, self.mmu.lookup(vpn),
                    self.mmu.generation,
                )
            return paddr
        # TLB miss: full translate, charge the walk, fill the TLB.
        paddr = self.mmu.translate(vaddr, write=write, execute=execute)
        if second is not None:
            paddr = second(paddr, write)
            walk_levels = Mmu.WALK_COST * (1 + self.SECOND_LEVEL_WALK_COST)
            # Two-dimensional page walk: each guest level is itself
            # translated, multiplying the touches (Bhargava et al.).
            self.clock.tick(walk_levels * self.WALK_TOUCH_COST)
            composed = (self._composed_pte(vpn, paddr)
                        if self.fast_path else None)
            if composed is not None:
                # Generation-counted EPT: cache the fully-composed
                # translation with effective (first-level AND EPT)
                # permissions, guarded by the (mmu, ept) generation pair.
                self.caches.tlb.insert(
                    vpn, paddr // PAGE_SIZE, pte=composed,
                    generation=(self.mmu.generation,
                                self.second_level_source.generation),
                )
            else:
                # Opaque second level: the host ppn depends on state no
                # generation counter covers, so no PTE is cached.
                self.caches.tlb.insert(vpn, paddr // PAGE_SIZE)
        else:
            self.clock.tick(Mmu.WALK_COST * self.WALK_TOUCH_COST)
            self.caches.tlb.insert(vpn, paddr // PAGE_SIZE,
                                   pte=self.mmu.lookup(vpn),
                                   generation=self.mmu.generation)
        return paddr

    def _composed_pte(self, vpn: int, host_paddr: int) -> PageTableEntry | None:
        """Effective permissions for one just-translated page on a
        second-level core: first-level PTE perms AND the EPT's writable
        bit, with the final host frame.  ``None`` when the second level is
        not a generation-counted EPT (nothing safe to cache)."""
        source = self.second_level_source
        if source is None:
            return None
        pte = self.mmu.lookup(vpn)
        if pte is None:
            return None
        ept_entry = source.frame_entry(pte.ppn)
        if ept_entry is None:
            return None
        return PageTableEntry(
            ppn=host_paddr // PAGE_SIZE,
            readable=pte.readable,
            writable=pte.writable and ept_entry[1],
            executable=pte.executable,
        )

    @staticmethod
    def _hierarchy_latency(levels: list[Cache], paddr: int) -> int:
        """Nearest-first cache lookup: stop at the first hit."""
        total = 0
        for level in levels:
            hit_latency = level.hit_latency
            latency = level.access(paddr)
            total += latency
            if latency == hit_latency:
                return total
        return total

    def _resolve_checked(self, paddr: int):
        """Resolve a physical address, turning a bus abort into a fault.

        A guest ``MAP`` may point a page at a frame number beyond every
        DRAM window; the access through it must surface as an
        architectural :class:`MemoryFault` (delivered like any other
        memory fault, identically on all three engines), never as a
        Python-level :class:`BusError` escaping the simulation."""
        try:
            return self.memory_map.resolve(paddr)
        except BusError as exc:
            raise MemoryFault(str(exc), paddr) from exc

    def read_word(self, vaddr: int) -> int:
        paddr = self._translate(vaddr)
        self.clock.tick(self._hierarchy_latency(self.caches.dcache_levels, paddr))
        bank, local = self._resolve_checked(paddr)
        self.bus.assert_reachable(self.name, bank.name)
        value = bank.read(local)
        if self._watchpoints:
            self._check_data_watchpoints("read", vaddr)
        return value

    def write_word(self, vaddr: int, value: int) -> None:
        paddr = self._translate(vaddr, write=True)
        self.clock.tick(self._hierarchy_latency(self.caches.dcache_levels, paddr))
        bank, local = self._resolve_checked(paddr)
        self.bus.assert_reachable(self.name, bank.name)
        bank.write(local, value)
        if self._watchpoints:
            self._check_data_watchpoints("write", vaddr)

    def _fetch(self) -> Instruction:
        paddr = self._translate(self.pc, execute=True)
        self.clock.tick(self._hierarchy_latency(self.caches.icache_levels, paddr))
        bank, local = self._resolve_checked(paddr)
        self.bus.assert_reachable(self.name, bank.name)
        if self.fast_path:
            instruction = bank.decoded.get(local)
            if instruction is not None:
                self.decoded_hits += 1
                return instruction
            self.decoded_misses += 1
        word = bank.read(local)
        try:
            instruction = decode(word)
        except ValueError as exc:
            raise InvalidInstruction(str(exc)) from exc
        if self.fast_path:
            bank.cache_decoded(local, instruction)
        return instruction

    def _check_data_watchpoints(self, kind: str, vaddr: int) -> None:
        for watchpoint in self._watchpoints.values():
            if watchpoint.kind == kind and watchpoint.covers(vaddr):
                self._trigger_watchpoint(watchpoint)

    def _trigger_watchpoint(self, watchpoint: Watchpoint) -> None:
        self.state = CoreState.PAUSED
        self.last_watchpoint = watchpoint
        if self.on_watchpoint is not None:
            self.on_watchpoint(self, watchpoint)

    # ------------------------------------------------------------------
    # Exceptions
    # ------------------------------------------------------------------

    def _enter_handler(self, code: int, resume_pc: int,
                       fault_addr: int | None = None) -> None:
        self._saved_pc = resume_pc
        self.registers[EXC_CODE_REGISTER] = code
        self.registers[EXC_RESUME_REGISTER] = resume_pc
        if fault_addr is not None:
            self.registers[EXC_ADDR_REGISTER] = fault_addr
        self.pc = self.exception_vector
        self._in_handler = True

    def _raise_exception(self, code: int, message: str,
                         fault_addr: int | None = None) -> None:
        self.faults += 1
        self.last_fault = message
        if self.exception_vector is not None and not self._in_handler:
            # Memory faults resume *at* the faulting instruction (so a
            # pager can map the page and retry); everything else resumes
            # after it.
            if code == EXC_MEMFAULT:
                resume = self.pc
            else:
                resume = self.pc + 1
            self._enter_handler(code, resume, fault_addr)
            return
        if self.kind is CoreKind.HYPERVISOR:
            self.state = CoreState.FAULTED
            raise MachineCheck(f"{self.name}: {message}")
        self.state = CoreState.FAULTED
        if self.on_fault is not None:
            self.on_fault(self, code, message)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute one instruction; returns ``True`` if the core is still
        runnable afterwards.

        The body below is the **fused fast path** (docs/PERFORMANCE.md): for
        the overwhelmingly common case — running core, no armed timer, no
        watchpoints, no second translation level, current TLB entry, L1i
        MRU hit, decoded instruction cached — the fetch/translate/dispatch
        pipeline is inlined here with local-variable bindings, replicating
        the exact stat updates, LRU movements, and cycle charges of the
        general path.  Anything unusual falls through to
        :meth:`_step_general`, the reference interpreter, *before* any
        state is mutated, so the two paths are observationally identical
        (``python -m repro bench`` asserts bit-equal cycle counts).
        """
        if (
            self.fast_path
            and self.state is CoreState.RUNNING
            and self._timer_deadline is None
            and not self._watchpoints
        ):
            pc = self.pc
            caches = self.caches
            if self.second_level is None:
                tlb = caches.tlb
                entries = tlb._entries
                vpn = pc // PAGE_SIZE
                entry = entries.get(vpn)
                if (entry is None or entry[1] is None
                        or entry[2] != self.mmu.generation):
                    return self._step_general()
                pte = entry[1]
                if not pte.executable:
                    return self._step_general()
                # Committed to the fast path: replicate Tlb.lookup_entry's
                # LRU move and hit count, then _translate's fast-hit account.
                del entries[vpn]
                entries[vpn] = entry
                tlb.stats.hits += 1
                self.tlb_fastpath_hits += 1
                paddr = entry[0] * PAGE_SIZE + (pc - vpn * PAGE_SIZE)
            else:
                # Second-level (EPT) cores: translation authority and walk
                # charges stay with the general machinery, but the rest of
                # the fetch/dispatch pipeline below is still fused.
                try:
                    paddr = self._translate(pc, execute=True)
                except MemoryFault as exc:
                    self._raise_exception(EXC_MEMFAULT, str(exc))
                    return self.state is CoreState.RUNNING

            # Inline L1i most-recently-used probe (side-effect-free on the
            # non-MRU path, which re-runs through the full hierarchy).
            l1i = caches.icache_levels[0]
            line = paddr // l1i.line_size
            lru = l1i._sets[line % l1i.num_sets]
            if lru and lru[0] == line // l1i.num_sets:
                l1i.stats.hits += 1
                latency = l1i.hit_latency
            else:
                latency = self._hierarchy_latency(caches.icache_levels, paddr)
            # Inline VirtualClock.tick deadline fast path.
            clock = self.clock
            target = clock._now + latency
            if target < clock._next_due:
                clock._now = target
            else:
                clock.run_until(target)

            # Inline PhysicalMemoryMap.resolve last-window hit.
            memory_map = self.memory_map
            last = memory_map._last
            if last is not None and last[1] <= paddr < last[2]:
                bank = last[0]
                local = paddr - last[1]
            else:
                try:
                    bank, local = memory_map.resolve(paddr)
                except BusError as exc:
                    # Same delivery as _step_general's fetch handler: a
                    # guest-mapped frame beyond every DRAM window is an
                    # architectural memory fault, not a simulator crash.
                    self._raise_exception(EXC_MEMFAULT, str(exc))
                    return self.state is CoreState.RUNNING
            # Inline BusMatrix.assert_reachable via the successor cache.
            succ = self.bus._succ_cache.get(self.name)
            if succ is None or bank.name not in succ:
                self.bus.assert_reachable(self.name, bank.name)

            ins = bank.decoded.get(local)
            if ins is None:
                self.decoded_misses += 1
                try:
                    ins = decode(bank.read(local))
                except ValueError as exc:
                    self._raise_exception(EXC_INVALID, str(exc))
                    return self.state is CoreState.RUNNING
                bank.cache_decoded(local, ins)
            else:
                self.decoded_hits += 1

            target = clock._now + self.BASE_COST
            if target < clock._next_due:
                clock._now = target
            else:
                clock.run_until(target)

            # Inline dispatch for the hot ops, direct register-file access
            # (r0 stays hardwired to zero via the ``if rd`` guards).
            op = ins.op
            regs = self.registers
            try:
                if op is _ADDI:
                    rd = ins.rd
                    if rd:
                        regs[rd] = (regs[ins.rs1] + ins.imm) & _WORD_MASK
                    self.pc = pc + 1
                elif op is _ADD:
                    rd = ins.rd
                    if rd:
                        regs[rd] = (regs[ins.rs1] + regs[ins.rs2]) & _WORD_MASK
                    self.pc = pc + 1
                elif op is _LOAD:
                    value = self.read_word(regs[ins.rs1] + ins.imm)
                    rd = ins.rd
                    if rd:
                        regs[rd] = value & _WORD_MASK
                    self.pc = pc + 1
                elif op is _STORE:
                    self.write_word(regs[ins.rs1] + ins.imm, regs[ins.rs2])
                    self.pc = pc + 1
                elif op is _BLT:
                    self._branch(regs[ins.rs1] < regs[ins.rs2], ins.imm)
                elif op is _BNE:
                    self._branch(regs[ins.rs1] != regs[ins.rs2], ins.imm)
                elif op is _BEQ:
                    self._branch(regs[ins.rs1] == regs[ins.rs2], ins.imm)
                elif op is _BGE:
                    self._branch(regs[ins.rs1] >= regs[ins.rs2], ins.imm)
                elif op is _AND:
                    rd = ins.rd
                    if rd:
                        regs[rd] = regs[ins.rs1] & regs[ins.rs2]
                    self.pc = pc + 1
                elif op is _XOR:
                    rd = ins.rd
                    if rd:
                        regs[rd] = regs[ins.rs1] ^ regs[ins.rs2]
                    self.pc = pc + 1
                elif op is _OR:
                    rd = ins.rd
                    if rd:
                        regs[rd] = regs[ins.rs1] | regs[ins.rs2]
                    self.pc = pc + 1
                elif op is _MOVI:
                    rd = ins.rd
                    if rd:
                        regs[rd] = ins.imm & _WORD_MASK
                    self.pc = pc + 1
                elif op is _MOV:
                    rd = ins.rd
                    if rd:
                        regs[rd] = regs[ins.rs1]
                    self.pc = pc + 1
                elif op is _SUB:
                    rd = ins.rd
                    if rd:
                        regs[rd] = (regs[ins.rs1] - regs[ins.rs2]) & _WORD_MASK
                    self.pc = pc + 1
                elif op is _SHL:
                    rd = ins.rd
                    if rd:
                        regs[rd] = (regs[ins.rs1] << (regs[ins.rs2] & 63)) & _WORD_MASK
                    self.pc = pc + 1
                elif op is _SHR:
                    rd = ins.rd
                    if rd:
                        regs[rd] = regs[ins.rs1] >> (regs[ins.rs2] & 63)
                    self.pc = pc + 1
                elif op is _NOP or op is _FENCE:
                    self.pc = pc + 1
                elif op is _HALT:
                    self.state = CoreState.HALTED
                    self.pc = pc + 1
                else:
                    self._execute(ins)
            except LockdownViolation as exc:
                # Must precede MemoryFault: LockdownViolation subclasses it.
                self._raise_exception(EXC_LOCKDOWN, str(exc))
            except MemoryFault as exc:
                self._raise_exception(EXC_MEMFAULT, str(exc),
                                      fault_addr=exc.address)
            except InvalidInstruction as exc:
                self._raise_exception(EXC_INVALID, str(exc))
            except ZeroDivisionError:
                self._raise_exception(EXC_DIV0, "division by zero")
            else:
                self.instructions_retired += 1
            return self.state is CoreState.RUNNING
        return self._step_general()

    def _step_general(self) -> bool:
        """The reference interpreter: one instruction, no inlining.

        ``repro bench`` runs the whole suite with ``fast_path`` off, forcing
        every step through here, and asserts the final cycle counts match
        the fast path bit-for-bit.
        """
        self._require_power()
        # An expired timer wakes a core parked in WFI.
        if (
            self.state is CoreState.WFI
            and self._timer_deadline is not None
            and self.clock.now >= self._timer_deadline
        ):
            self.state = CoreState.RUNNING
        if self.state is not CoreState.RUNNING:
            return False

        # Core-local timer delivery at the instruction boundary.
        if (
            self._timer_deadline is not None
            and self.clock.now >= self._timer_deadline
            and self.exception_vector is not None
            and not self._in_handler
        ):
            self._timer_deadline = None
            self.timer_fires += 1
            self._enter_handler(EXC_TIMER, self.pc)

        # Exec watchpoints fire before the instruction executes (the empty
        # dict is the overwhelmingly common case — skip the iterator).
        if self._watchpoints:
            for watchpoint in self._watchpoints.values():
                if watchpoint.kind == "exec" and watchpoint.covers(self.pc):
                    self._trigger_watchpoint(watchpoint)
                    return False

        try:
            instruction = self._fetch()
        except (MemoryFault, InvalidInstruction) as exc:
            code = EXC_MEMFAULT if isinstance(exc, MemoryFault) else EXC_INVALID
            self._raise_exception(code, str(exc))
            return self.state is CoreState.RUNNING

        self.clock.tick(self.BASE_COST)
        try:
            self._execute(instruction)
        except LockdownViolation as exc:
            # Must precede MemoryFault: LockdownViolation subclasses it.
            self._raise_exception(EXC_LOCKDOWN, str(exc))
        except MemoryFault as exc:
            self._raise_exception(EXC_MEMFAULT, str(exc),
                                  fault_addr=exc.address)
        except InvalidInstruction as exc:
            self._raise_exception(EXC_INVALID, str(exc))
        except ZeroDivisionError:
            self._raise_exception(EXC_DIV0, "division by zero")
        else:
            self.instructions_retired += 1
        return self.state is CoreState.RUNNING

    def run(self, max_steps: int = 100_000) -> int:
        """Run until halt/fault/pause or ``max_steps``; returns steps taken.

        A core parked in WFI gets one wake-up chance per call: if its timer
        has expired, :meth:`step` resumes it; otherwise the call returns
        immediately (the core really is asleep).
        """
        steps = 0
        step = self.step
        running = CoreState.RUNNING
        wfi = CoreState.WFI
        if not (
            self.fast_path
            and self.trace_jit
            and self.speculation is None
            and (self.second_level is None
                 or self.second_level_source is not None)
        ):
            while steps < max_steps:
                state = self.state
                if state is running:
                    step()
                    steps += 1
                    continue
                if state is not wfi:
                    break
                step()
                steps += 1
                if self.state is wfi:
                    break  # still asleep; nothing will change without time
            return steps

        # Trace dispatch loop (repro.hw.trace): identical control flow, but
        # a hot pc with a live compiled trace, no armed timer, no
        # watchpoints, a current executable TLB entry bound to the trace's
        # frame, enough step budget, and clear event horizon executes the
        # whole superblock in one call.  Every other iteration — including
        # all heat counting and compilation — degenerates to step().
        vtraces = self._vtraces
        heat = self._trace_heat
        mmu = self.mmu
        entries = self.caches.tlb._entries
        clock = self.clock
        # For second-level cores the cached generation is the combined
        # (mmu, ept) pair (see _translate) — both must still be current.
        ept = self.second_level_source if self.second_level else None
        # Heat is counted only at block heads: where control arrived by a
        # jump, a branch, a trace exit or run entry.  ``follow`` is the pc
        # the previous single step falls through to; arriving there is the
        # middle of a block, and counting it would compile a suffix
        # superblock for every pc of a hot loop body.
        follow = -1
        while steps < max_steps:
            state = self.state
            if state is not running:
                if state is not wfi:
                    break
                step()
                steps += 1
                if self.state is wfi:
                    break  # still asleep; nothing will change without time
                continue
            if self._timer_deadline is not None or self._watchpoints:
                # Timers fire and watchpoints trigger at instruction
                # boundaries; keep instruction granularity.
                follow = self.pc + 1
                step()
                steps += 1
                continue
            pc = self.pc
            trace = vtraces.get(pc)
            if trace is None:
                if pc != follow:
                    count = heat.get(pc, 0) + 1
                    if count >= TRACE_HEAT_THRESHOLD:
                        compiled = compile_trace(self, pc)
                        if compiled is not None:
                            if len(vtraces) >= VTRACE_CAP:
                                # Drop this core's oldest handle; the bank
                                # registration is bounded separately.
                                del vtraces[next(iter(vtraces))]
                            vtraces[pc] = compiled
                            heat.pop(pc, None)
                        else:
                            # Uncompilable here (op mix, faulted bank, ...):
                            # back off before probing again, so self-modifying
                            # or transiently-faulted code retries at bounded
                            # cost once conditions change.
                            heat[pc] = -TRACE_RETRY_BACKOFF
                    else:
                        if len(heat) >= TRACE_HEAT_LIMIT:
                            heat.clear()
                        heat[pc] = count
                follow = pc + 1
                step()
                steps += 1
                continue
            follow = pc + 1  # unless the trace runs
            if not trace.alive:
                # Invalidated underneath us (store, reload, fault, flush).
                del vtraces[pc]
                heat.pop(pc, None)
                step()
                steps += 1
                continue
            budget = max_steps - steps
            if (
                budget < trace.length
                or clock._now + trace.worst >= clock._next_due
            ):
                # Not enough step budget for even one pass, or a scheduled
                # event could fire mid-trace: single-step up to it.
                step()
                steps += 1
                continue
            entry = entries.get(trace.vpn)
            if ept is None:
                current = entry is not None and entry[2] == mmu.generation
            else:
                generation = entry[2] if entry is not None else None
                current = (
                    type(generation) is tuple
                    and generation[0] == mmu.generation
                    and generation[1] == ept.generation
                )
            if (
                not current
                or entry[1] is None
                or not entry[1].executable
            ):
                # Absent or stale translation: the reference machinery in
                # step() refills (charging the walk) or faults.
                step()
                steps += 1
                continue
            if entry[0] != trace.ppn:
                # Same vpn, different frame: the page was remapped and the
                # trace is bound to code that is no longer at this vpc.
                del vtraces[pc]
                heat.pop(pc, None)
                step()
                steps += 1
                continue
            # Committed: replicate the fetch's Tlb.lookup_entry MRU move
            # (hit counts are batched inside the trace), then run it.
            del entries[trace.vpn]
            entries[trace.vpn] = entry
            self.trace_hits += 1
            steps += trace.fn(self, trace, budget)
            follow = -1
        return steps

    def _reg(self, index: int) -> int:
        return self.registers[index]

    def _set_reg(self, index: int, value: int) -> None:
        if index != 0:  # r0 is hardwired to zero
            self.registers[index] = value & _WORD_MASK

    def _branch(self, taken: bool, target: int) -> None:
        predicted_taken = self.caches.branch_predictor.predict(self.pc)
        penalty = self.caches.branch_predictor.update(self.pc, taken)
        if penalty:
            # Mispredict: the core ran down the wrong path before the
            # squash.  With speculation modelled, that transient work
            # leaves microarchitectural footprints (Spectre [31]).
            if self.speculation is not None:
                wrong_path = target if predicted_taken else self.pc + 1
                self._shadow_execute(wrong_path)
            self.clock.tick(penalty)
        if taken:
            self.pc = target
        else:
            self.pc += 1

    def _shadow_execute(self, start_pc: int) -> None:
        """Run the squashed wrong path: loads touch caches, nothing else
        survives.  Faults abort the window silently (squashed work never
        raises), except that ``faulting_loads_forward`` lets EPT-faulting
        loads forward stale data — the Foreshadow flaw."""
        config = self.speculation
        shadow_regs = list(self.registers)
        pc = start_pc
        for _ in range(config.window):
            try:
                paddr = self._shadow_translate(pc, execute=True)
                bank, local = self.memory_map.resolve(paddr)
                self.bus.assert_reachable(self.name, bank.name)
                instruction = decode(bank.read(local))
            except Exception:
                return
            self.shadow_instructions += 1
            op = instruction.op
            rd, rs1, rs2 = instruction.rd, instruction.rs1, instruction.rs2
            imm = instruction.imm

            def sreg(index: int) -> int:
                return shadow_regs[index]

            def set_sreg(index: int, value: int) -> None:
                if index != 0:
                    shadow_regs[index] = value & _WORD_MASK

            try:
                if op is Op.LOAD:
                    value = self._shadow_load(sreg(rs1) + imm)
                    if value is None:
                        return
                    set_sreg(rd, value)
                elif op is Op.MOVI:
                    set_sreg(rd, imm)
                elif op is Op.MOV:
                    set_sreg(rd, sreg(rs1))
                elif op is Op.ADD:
                    set_sreg(rd, sreg(rs1) + sreg(rs2))
                elif op is Op.SUB:
                    set_sreg(rd, sreg(rs1) - sreg(rs2))
                elif op is Op.MUL:
                    set_sreg(rd, sreg(rs1) * sreg(rs2))
                elif op is Op.AND:
                    set_sreg(rd, sreg(rs1) & sreg(rs2))
                elif op is Op.OR:
                    set_sreg(rd, sreg(rs1) | sreg(rs2))
                elif op is Op.XOR:
                    set_sreg(rd, sreg(rs1) ^ sreg(rs2))
                elif op is Op.SHL:
                    set_sreg(rd, sreg(rs1) << (sreg(rs2) & 63))
                elif op is Op.SHR:
                    set_sreg(rd, sreg(rs1) >> (sreg(rs2) & 63))
                elif op is Op.ADDI:
                    set_sreg(rd, sreg(rs1) + imm)
                elif op in (Op.NOP, Op.FENCE, Op.STORE):
                    pass  # stores are suppressed in the shadow
                else:
                    return  # branches/system ops end the window
            except Exception:
                return
            pc += 1

    def _shadow_translate(self, vaddr: int, *, write: bool = False,
                          execute: bool = False) -> int:
        """Translation for shadow accesses: no TLB churn, no walk charges.

        With ``faulting_loads_forward``, a second-level (EPT) fault is
        swallowed and the guest-physical address forwarded as-is — the
        L1TF/Foreshadow behaviour.  First-level faults always abort.
        """
        paddr = self.mmu.translate(vaddr, write=write, execute=execute)
        if self.second_level is not None:
            try:
                paddr = self.second_level(paddr, write)
            except MemoryFault:
                if not (self.speculation and
                        self.speculation.faulting_loads_forward):
                    raise
                self.shadow_loads_forwarded += 1
        return paddr

    def _shadow_load(self, vaddr: int) -> int | None:
        """A squashed load: real cache footprint, shadow-only value.

        Order matters for the whole Guillotine argument: the *bus* is
        checked before the cache is touched, because a cache line fills
        over a wire — an address with no bus path leaves no footprint,
        transiently or otherwise.
        """
        try:
            paddr = self._shadow_translate(vaddr)
            bank, local = self.memory_map.resolve(paddr)
            self.bus.assert_reachable(self.name, bank.name)
            # The cache touch IS the Spectre side effect.
            self._hierarchy_latency(self.caches.dcache_levels, paddr)
            return bank.read(local)
        except Exception:
            return None

    def _execute(self, ins: Instruction) -> None:
        # Dispatch chain ordered hottest-first (ALU/memory/branch ops from
        # the instruction-mix benchmarks); `is`-comparisons are mutually
        # exclusive, so reordering cannot change semantics.
        op = ins.op
        if op is Op.ADDI:
            self._set_reg(ins.rd, self._reg(ins.rs1) + ins.imm)
            self.pc += 1
        elif op is Op.ADD:
            self._set_reg(ins.rd, self._reg(ins.rs1) + self._reg(ins.rs2))
            self.pc += 1
        elif op is Op.LOAD:
            self._set_reg(ins.rd, self.read_word(self._reg(ins.rs1) + ins.imm))
            self.pc += 1
        elif op is Op.STORE:
            self.write_word(self._reg(ins.rs1) + ins.imm, self._reg(ins.rs2))
            self.pc += 1
        elif op is Op.BLT:
            self._branch(self._reg(ins.rs1) < self._reg(ins.rs2), ins.imm)
        elif op is Op.BNE:
            self._branch(self._reg(ins.rs1) != self._reg(ins.rs2), ins.imm)
        elif op is Op.BEQ:
            self._branch(self._reg(ins.rs1) == self._reg(ins.rs2), ins.imm)
        elif op is Op.BGE:
            self._branch(self._reg(ins.rs1) >= self._reg(ins.rs2), ins.imm)
        elif op is Op.AND:
            self._set_reg(ins.rd, self._reg(ins.rs1) & self._reg(ins.rs2))
            self.pc += 1
        elif op is Op.XOR:
            self._set_reg(ins.rd, self._reg(ins.rs1) ^ self._reg(ins.rs2))
            self.pc += 1
        elif op is Op.OR:
            self._set_reg(ins.rd, self._reg(ins.rs1) | self._reg(ins.rs2))
            self.pc += 1
        elif op is Op.MOVI:
            self._set_reg(ins.rd, ins.imm)
            self.pc += 1
        elif op is Op.MOV:
            self._set_reg(ins.rd, self._reg(ins.rs1))
            self.pc += 1
        elif op is Op.SUB:
            self._set_reg(ins.rd, self._reg(ins.rs1) - self._reg(ins.rs2))
            self.pc += 1
        elif op is Op.SHL:
            self._set_reg(ins.rd, self._reg(ins.rs1) << (self._reg(ins.rs2) & 63))
            self.pc += 1
        elif op is Op.SHR:
            self._set_reg(ins.rd, self._reg(ins.rs1) >> (self._reg(ins.rs2) & 63))
            self.pc += 1
        elif op is Op.NOP or op is Op.FENCE:
            self.pc += 1
        elif op is Op.HALT:
            self.state = CoreState.HALTED
            self.pc += 1
        elif op is Op.MUL:
            self._set_reg(ins.rd, self._reg(ins.rs1) * self._reg(ins.rs2))
            self.clock.tick(2)  # multipliers are slower
            self.pc += 1
        elif op is Op.DIV:
            divisor = self._reg(ins.rs2)
            if divisor == 0:
                raise ZeroDivisionError
            self._set_reg(ins.rd, self._reg(ins.rs1) // divisor)
            self.clock.tick(10)
            self.pc += 1
        elif op is Op.JMP:
            self.pc = ins.imm
        elif op is Op.JAL:
            self._set_reg(ins.rd, self.pc + 1)
            self.pc = ins.imm
        elif op is Op.JR:
            self.pc = self._reg(ins.rs1)
        elif op is Op.RDCYCLE:
            self._set_reg(ins.rd, self.clock.now)
            self.pc += 1
        elif op is Op.DOORBELL:
            self.clock.tick(self.DOORBELL_COST)
            if self.doorbell_handler is None:
                raise InvalidInstruction(
                    f"core {self.name} has no doorbell wiring"
                )
            self.doorbell_handler(self.name, self._reg(ins.rs1))
            self.pc += 1
        elif op is Op.WFI:
            self.state = CoreState.WFI
            self.pc += 1
        elif op in (Op.IORD, Op.IOWR):
            # Port-mapped IO: only exists on traditional (baseline) cores,
            # where it traps to the hypervisor.  Guillotine model cores have
            # no device instructions at all.
            if self.sensitive_trap is None:
                raise InvalidInstruction(
                    f"{op.name} is not implemented by this core's ISA"
                )
            result = self.sensitive_trap(self, op, ins.imm, self._reg(ins.rs1))
            if op is Op.IORD:
                self._set_reg(ins.rd, result)
            self.pc += 1
        elif op is Op.MAP:
            entry = PageTableEntry.from_bits(self._reg(ins.rs2), ins.imm)
            self.mmu.map(self._reg(ins.rs1), entry)
            self.caches.tlb.invalidate(self._reg(ins.rs1))
            self.pc += 1
        elif op is Op.UNMAP:
            self.mmu.unmap(self._reg(ins.rs1))
            self.caches.tlb.invalidate(self._reg(ins.rs1))
            self.pc += 1
        elif op is Op.IRET:
            if not self._in_handler:
                raise InvalidInstruction("IRET outside handler")
            self._in_handler = False
            # Resume wherever the handler left r13 — rewriting it is how a
            # model-internal OS context-switches between its tasks.
            self.pc = self._reg(EXC_RESUME_REGISTER)
        elif op is Op.SETTIMER:
            self._timer_deadline = self.clock.now + self._reg(ins.rs1)
            self.pc += 1
        else:  # pragma: no cover - decode() guarantees known ops
            raise InvalidInstruction(f"unimplemented op {op.name}")

    # ------------------------------------------------------------------
    # Interrupt delivery (IO completion from hypervisor cores, timers)
    # ------------------------------------------------------------------

    def wake(self) -> None:
        """Deliver an interrupt-style wake-up: WFI -> RUNNING."""
        self._require_power()
        if self.state is CoreState.WFI:
            self.state = CoreState.RUNNING
