"""Superblock trace compilation for the fast-path GISA interpreter.

:meth:`Core.run` counts how often each virtual pc dispatches; once a pc is
hot, :func:`compile_trace` walks the straight-line GISA run starting there
(stopping at the first control transfer, page boundary, or bail-listed op)
and fuses it into **one generated Python closure** that executes the whole
block with a single cycle-accounting flush, one TLB-statistics update, and
one perf-counter update per trace instead of per instruction.  A trace whose
terminal branch targets its own head compiles into an in-trace loop, so a
hot GISA loop of any length — down to a one-instruction ``jmp .`` — costs a
handful of Python operations per iteration.

Exactness contract (enforced by ``repro bench`` and the fast-vs-reference
fuzz oracle): simulated cycles, architectural state, fault behaviour, TLB
and cache *content* evolution, and branch-predictor state are bit-identical
to the reference interpreter.  The generated code preserves this by

* charging constant fetch/dispatch cycles in a local accumulator and
  flushing it to the clock before every operation that can observe or
  perturb time (memory ops, trace exit) — legal because the dispatcher
  only enters a trace when ``clock.now + trace.worst < clock._next_due``
  (the event horizon), so no scheduled event can fire mid-trace;
* probing the L1i live at every cache-line-first fetch and folding the
  guaranteed MRU hits (subsequent words of the same line) into constants;
* running LOAD/STORE through the core's real ``read_word``/``write_word``
  (full TLB/walk/D-cache/bus/fault semantics), with ``core.pc`` pointed at
  the faulting instruction first so exception entry is byte-identical;
* re-validating (and MRU-moving) the code page's TLB entry after every
  memory op and at every loop back-edge, bailing out to single-step
  dispatch when the entry was evicted;
* checking ``trace.alive`` after every memory op so a store into the
  trace's own code (or an ECC scrub under it) aborts before a stale fused
  instruction can run — invalidation rides the same hooks as the decoded-
  instruction cache (:class:`repro.hw.memory.Dram`).

Watchpoints and armed timers drop a core to single-step dispatch (checked
per ``run()`` iteration) and speculation disqualifies it entirely.  A core
behind second-level (EPT) translation dispatches traces whenever it has a
``second_level_source``: its cached translations are keyed on the combined
(MMU, EPT) generation, so a change to either table retires them.  Only an
EPT core without that source never dispatches traces.  ``single_step()``
never dispatches traces, so inspection and fault-injection hooks keep
instruction granularity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import BusError, MemoryFault
from repro.hw.isa import (
    Op,
    TRACE_FUSABLE_OPS,
    TRACE_TERMINAL_OPS,
    decode,
)
from repro.hw.memory import Mmu, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hw.core import Core

_WORD_MASK = (1 << 64) - 1

#: Dispatches of a pc (with no trace) before compilation is attempted.
TRACE_HEAT_THRESHOLD = 3
#: Minimum fused instructions (body + terminal) worth a closure for a
#: straight-line superblock.  A self-loop (see :func:`_is_self_loop`)
#: compiles at any length: its in-trace loop amortises the closure call
#: over every iteration, which a superblock that exits after one pass
#: cannot do.
TRACE_MIN_LENGTH = 3
#: Heat entries kept per core before the counting dict is reset.
TRACE_HEAT_LIMIT = 4096
#: Heat value marking "compilation failed here"; the pc must re-dispatch
#: ~TRACE_RETRY_BACKOFF more times before another attempt, so self-modifying
#: code that later becomes compilable is retried at bounded cost.
TRACE_RETRY_BACKOFF = 64
#: Traces kept per core before FIFO eviction of the oldest.
VTRACE_CAP = 128

_CONDITIONAL = {Op.BEQ: "==", Op.BNE: "!=", Op.BLT: "<", Op.BGE: ">="}


class Trace:
    """One compiled superblock, bound to a physical code range."""

    __slots__ = (
        "vpc", "vpn", "ppn", "bank", "start", "length", "worst",
        "fn", "alive", "is_loop", "token",
    )

    def __init__(self, vpc: int, ppn: int, bank, start: int,
                 length: int, worst: int, fn, is_loop: bool) -> None:
        self.vpc = vpc
        self.vpn = vpc // PAGE_SIZE
        self.ppn = ppn
        self.bank = bank
        self.start = start
        self.length = length
        self.worst = worst
        self.fn = fn
        self.alive = True
        self.is_loop = is_loop
        self.token = -1  # assigned by Dram.register_trace


class _Emitter:
    """Builds the generated function source, folding constant cycle
    charges and guaranteed L1i hits until a flush point."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.pending_cycles = 0
        self.pending_l1i_hits = 0

    def emit(self, line: str, indent: int = 2) -> None:
        self.lines.append("    " * indent + line)

    def flush_constants(self, indent: int = 2) -> None:
        if self.pending_cycles:
            self.emit(f"acc += {self.pending_cycles}", indent)
            self.pending_cycles = 0
        if self.pending_l1i_hits:
            self.emit(f"l1s.hits += {self.pending_l1i_hits}", indent)
            self.pending_l1i_hits = 0


def _is_self_loop(vpc: int, terminal) -> bool:
    """True when ``terminal`` is a direct jump or branch back to ``vpc``,
    the superblock's own head: such a trace compiles into an in-trace
    loop (see :func:`_emit_backedge`)."""
    return terminal is not None and terminal.op in (
        Op.JMP, Op.JAL, Op.BEQ, Op.BNE, Op.BLT, Op.BGE
    ) and terminal.imm == vpc


def _discover(core: "Core", vpc: int):
    """Walk the straight-line run at ``vpc``; returns
    ``(body, terminal, ppn, bank, start)`` or ``None`` if uncompilable."""
    vpn, offset = divmod(vpc, PAGE_SIZE)
    pte = core.mmu.lookup(vpn)
    if pte is None or not pte.executable:
        return None
    paddr = pte.ppn * PAGE_SIZE + offset
    if core.second_level is not None:
        # Compose the host-physical address through the generation-counted
        # EPT (side-effect-free peek; the dispatcher guards dispatch on the
        # combined (mmu, ept) generation pair staying current, so the
        # composition cannot go stale under a trace).
        source = core.second_level_source
        if source is None:
            return None
        ept_entry = source.frame_entry(pte.ppn)
        if ept_entry is None:
            return None
        paddr = ept_entry[0] * PAGE_SIZE + offset
    try:
        bank, start = core.memory_map.resolve(paddr)
        core.bus.assert_reachable(core.name, bank.name)
    except (MemoryFault, BusError):
        return None
    ppn = paddr // PAGE_SIZE
    if bank.faulted:
        # Injected faults make the read path data-dependent; compile only
        # from a clean bank (repair kills every trace, re-arming heat).
        return None
    limit = min(PAGE_SIZE - offset, bank.size - start)
    words = bank._words[start:start + limit]
    body = []
    terminal = None
    for word in words:
        try:
            ins = decode(word)
        except ValueError:
            break
        if ins.op in TRACE_TERMINAL_OPS:
            terminal = ins
            break
        if ins.op not in TRACE_FUSABLE_OPS:
            break
        body.append(ins)
    length = len(body) + (1 if terminal is not None else 0)
    if length < TRACE_MIN_LENGTH and not _is_self_loop(vpc, terminal):
        return None
    return body, terminal, ppn, bank, start


def _worst_cycles(core: "Core", body, terminal) -> int:
    """Upper bound on cycles one trace iteration can charge — the event
    horizon the dispatcher and back-edge guards test against."""
    ifetch = sum(level.miss_latency for level in core.caches.icache_levels)
    dcache = sum(level.miss_latency for level in core.caches.dcache_levels)
    walk_levels = Mmu.WALK_COST * (
        1 + core.SECOND_LEVEL_WALK_COST if core.second_level is not None
        else 1
    )
    walk = walk_levels * core.WALK_TOUCH_COST
    worst = 0
    instructions = list(body) + ([terminal] if terminal is not None else [])
    for ins in instructions:
        worst += ifetch + core.BASE_COST
        op = ins.op
        if op is Op.MUL:
            worst += 2
        elif op is Op.LOAD or op is Op.STORE:
            worst += walk + dcache
        elif op in _CONDITIONAL:
            worst += core.caches.branch_predictor.mispredict_penalty
    return worst


def _emit_bail(e: _Emitter, pc: int, count: str, indent: int = 2) -> None:
    """Exit before the iteration's body completed (counted as a bailout)."""
    e.emit(f"core.pc = {pc}", indent)
    e.emit(f"ex = done + {count}", indent)
    e.emit("core.trace_bailouts += 1", indent)
    e.emit("break", indent)


def _emit_tlb_revalidate(e: _Emitter, vpn: int, bail_pc: int,
                         bail_count, indent: int = 2) -> None:
    """Replicate the next fetch's TLB lookup: presence check plus the MRU
    re-insert of ``Tlb.lookup_entry`` (hit stats are batched at exit).
    The entry's payload cannot go stale mid-trace — nothing in a trace
    bumps ``Mmu.generation`` — so eviction is the only hazard."""
    e.emit(f"_e = entries.get({vpn})", indent)
    e.emit("if _e is None:", indent)
    _emit_bail(e, bail_pc, str(bail_count), indent + 1)
    e.emit(f"del entries[{vpn}]", indent)
    e.emit(f"entries[{vpn}] = _e", indent)


def _compile_source(core: "Core", vpc: int, body, terminal,
                    ppn: int, worst: int) -> tuple[str, bool]:
    """Generate the trace function's Python source.  Returns
    ``(source, is_loop)``."""
    caches = core.caches
    l1i = caches.icache_levels[0]
    line_size = l1i.line_size
    num_sets = l1i.num_sets
    hit_latency = l1i.hit_latency
    penalty = caches.branch_predictor.mispredict_penalty
    table_size = caches.branch_predictor.table_size
    vpn = vpc // PAGE_SIZE
    offset = vpc - vpn * PAGE_SIZE
    base_paddr = ppn * PAGE_SIZE + offset
    instructions = list(body) + ([terminal] if terminal is not None else [])
    n = len(instructions)
    has_mem = any(i.op in (Op.LOAD, Op.STORE) for i in body)
    is_loop = _is_self_loop(vpc, terminal)

    e = _Emitter()
    e.emit("def trace_fn(core, trace, budget):", 0)
    e.emit("clock = core.clock", 1)
    e.emit("regs = core.registers", 1)
    e.emit("caches = core.caches", 1)
    e.emit("tlb = caches.tlb", 1)
    e.emit("entries = tlb._entries", 1)
    e.emit("l1i = caches.icache_levels[0]", 1)
    e.emit("sets = l1i._sets", 1)
    e.emit("l1s = l1i.stats", 1)
    e.emit("levels = caches.icache_levels", 1)
    e.emit("hier = core._hierarchy_latency", 1)
    if has_mem:
        e.emit("read_word = core.read_word", 1)
        e.emit("write_word = core.write_word", 1)
    if terminal is not None and terminal.op in _CONDITIONAL:
        e.emit("bp = caches.branch_predictor", 1)
        e.emit("bctr = bp._counters", 1)
    e.emit("done = 0", 1)
    e.emit("acc = 0", 1)
    e.emit("try:", 1)
    e.emit("while True:", 2)

    indent = 3
    for i, ins in enumerate(instructions):
        pc_i = vpc + i
        paddr_i = base_paddr + i
        # -- fetch accounting -----------------------------------------
        if i == 0 or paddr_i % line_size == 0:
            line = paddr_i // line_size
            e.flush_constants(indent)
            e.emit(f"lru = sets[{line % num_sets}]", indent)
            e.emit(f"if lru and lru[0] == {line // num_sets}:", indent)
            e.emit("l1s.hits += 1", indent + 1)
            e.emit(f"acc += {hit_latency}", indent + 1)
            e.emit("else:", indent)
            e.emit(f"acc += hier(levels, {paddr_i})", indent + 1)
        else:
            # Same line as the previous fetch: a guaranteed MRU hit
            # (consecutive lines map to distinct sets, and data traffic
            # never touches the L1i), folded into the constants.
            e.pending_l1i_hits += 1
            e.pending_cycles += hit_latency
        e.pending_cycles += core.BASE_COST
        if terminal is not None and i == n - 1:
            continue  # fetch charged above; op handled below the loop

        op = ins.op
        rd, rs1, rs2, imm = ins.rd, ins.rs1, ins.rs2, ins.imm
        # -- body ops --------------------------------------------------
        if op is Op.ADDI:
            if rd:
                e.emit(f"regs[{rd}] = (regs[{rs1}] + {imm})"
                       f" & {_WORD_MASK}", indent)
        elif op is Op.ADD:
            if rd:
                e.emit(f"regs[{rd}] = (regs[{rs1}] + regs[{rs2}])"
                       f" & {_WORD_MASK}", indent)
        elif op is Op.SUB:
            if rd:
                e.emit(f"regs[{rd}] = (regs[{rs1}] - regs[{rs2}])"
                       f" & {_WORD_MASK}", indent)
        elif op is Op.MUL:
            if rd:
                e.emit(f"regs[{rd}] = (regs[{rs1}] * regs[{rs2}])"
                       f" & {_WORD_MASK}", indent)
            e.pending_cycles += 2
        elif op is Op.AND:
            if rd:
                e.emit(f"regs[{rd}] = regs[{rs1}] & regs[{rs2}]", indent)
        elif op is Op.OR:
            if rd:
                e.emit(f"regs[{rd}] = regs[{rs1}] | regs[{rs2}]", indent)
        elif op is Op.XOR:
            if rd:
                e.emit(f"regs[{rd}] = regs[{rs1}] ^ regs[{rs2}]", indent)
        elif op is Op.SHL:
            if rd:
                e.emit(f"regs[{rd}] = (regs[{rs1}] << (regs[{rs2}] & 63))"
                       f" & {_WORD_MASK}", indent)
        elif op is Op.SHR:
            if rd:
                e.emit(f"regs[{rd}] = regs[{rs1}] >> (regs[{rs2}] & 63)",
                       indent)
        elif op is Op.MOVI:
            if rd:
                e.emit(f"regs[{rd}] = {imm & _WORD_MASK}", indent)
        elif op is Op.MOV:
            if rd:
                e.emit(f"regs[{rd}] = regs[{rs1}]", indent)
        elif op is Op.NOP or op is Op.FENCE:
            pass
        elif op is Op.LOAD or op is Op.STORE:
            # Live memory op: point pc at the instruction (exception entry
            # must see it), flush charged time, then run the real access —
            # full TLB/walk/D-cache/bus/watchfree/fault semantics.
            e.emit(f"core.pc = {pc_i}", indent)
            e.flush_constants(indent)
            e.emit("clock._now += acc", indent)
            e.emit("acc = 0", indent)
            addr = f"regs[{rs1}] + {imm}" if imm else f"regs[{rs1}]"
            if op is Op.LOAD:
                if rd:
                    e.emit(f"regs[{rd}] = read_word({addr})"
                           f" & {_WORD_MASK}", indent)
                else:
                    e.emit(f"read_word({addr})", indent)
            else:
                e.emit(f"write_word({addr}, regs[{rs2}])", indent)
            # A store under the trace (or an ECC scrub on a load) kills
            # it via the bank index; never run a stale fused instruction.
            e.emit("if not trace.alive:", indent)
            _emit_bail(e, pc_i + 1, str(i + 1), indent + 1)
            if i + 1 < n:
                # The data translation may have evicted the code page's
                # TLB entry; mirror the next fetch's lookup or bail so the
                # reference's walk charge happens through single-step.
                _emit_tlb_revalidate(e, vpn, pc_i + 1, i + 1, indent)
        else:  # pragma: no cover - discovery admits only the above
            raise AssertionError(f"unfusable op in trace body: {op.name}")

    # -- terminal ----------------------------------------------------
    if terminal is None:
        e.flush_constants(indent)
        e.emit(f"core.pc = {vpc + n}", indent)
        e.emit(f"ex = done + {n}", indent)
        e.emit("break", indent)
    else:
        op = terminal.op
        rd, rs1, rs2, imm = (terminal.rd, terminal.rs1, terminal.rs2,
                             terminal.imm)
        pc_t = vpc + n - 1
        e.flush_constants(indent)
        if op is Op.HALT:
            e.emit("core.state = _HALTED", indent)
            e.emit(f"core.pc = {vpc + n}", indent)
            e.emit(f"ex = done + {n}", indent)
            e.emit("break", indent)
        elif op in _CONDITIONAL:
            e.emit(f"taken = regs[{rs1}] {_CONDITIONAL[op]} regs[{rs2}]",
                   indent)
            # Inlined BranchPredictor.update (predict() is pure and its
            # value is only consumed under speculation, which disqualifies
            # trace dispatch entirely).
            bidx = pc_t % table_size
            e.emit(f"_c = bctr[{bidx}]", indent)
            e.emit("if taken:", indent)
            e.emit("if _c < 3:", indent + 1)
            e.emit(f"bctr[{bidx}] = _c + 1", indent + 2)
            e.emit("elif _c > 0:", indent)
            e.emit(f"bctr[{bidx}] = _c - 1", indent + 1)
            e.emit("bp.predictions += 1", indent)
            e.emit("if (_c >= 2) != taken:", indent)
            e.emit("bp.mispredictions += 1", indent + 1)
            e.emit(f"acc += {penalty}", indent + 1)
            if is_loop:
                e.emit("if taken:", indent)
                _emit_backedge(e, core, vpc, vpn, n, worst, has_mem,
                               indent + 1)
                e.emit(f"core.pc = {pc_t + 1}", indent)
                e.emit(f"ex = done + {n}", indent)
                e.emit("break", indent)
            else:
                e.emit("if taken:", indent)
                e.emit(f"core.pc = {imm}", indent + 1)
                e.emit("else:", indent)
                e.emit(f"core.pc = {pc_t + 1}", indent + 1)
                e.emit(f"ex = done + {n}", indent)
                e.emit("break", indent)
        elif op is Op.JMP or op is Op.JAL:
            if op is Op.JAL and rd:
                e.emit(f"regs[{rd}] = {pc_t + 1}", indent)
            if is_loop:
                _emit_backedge(e, core, vpc, vpn, n, worst, has_mem, indent)
            else:
                e.emit(f"core.pc = {imm}", indent)
                e.emit(f"ex = done + {n}", indent)
                e.emit("break", indent)
        elif op is Op.JR:
            e.emit(f"core.pc = regs[{rs1}]", indent)
            e.emit(f"ex = done + {n}", indent)
            e.emit("break", indent)
        else:  # pragma: no cover - TERMINAL set is exactly the above
            raise AssertionError(f"unknown terminal {op.name}")

    # -- epilogues ----------------------------------------------------
    flush = [
        "clock._now += acc",
        "tlb.stats.hits += ex",
        "core.tlb_fastpath_hits += ex",
        "core.decoded_hits += ex",
        "core.trace_steps += ex",
    ]
    # Exception epilogues: the in-flight instruction's fetch was charged
    # (exactly as the reference charges it before _execute raises), it
    # counts as a step, but it did not retire.
    for exc_name, handler in (
        ("(_MachineCheck, _BusError)", ["raise"]),
        ("_Lockdown", ["core._raise_exception(4, str(exc))", "return ex"]),
        ("_MemoryFault", ["core._raise_exception(3, str(exc),"
                          " fault_addr=exc.address)", "return ex"]),
    ):
        as_clause = "" if exc_name.startswith("(") else " as exc"
        e.emit(f"except {exc_name}{as_clause}:", 1)
        e.emit(f"ex = done + (core.pc - {vpc}) + 1", 2)
        for line in flush:
            e.emit(line, 2)
        e.emit("core.instructions_retired += ex - 1", 2)
        e.emit("core.trace_bailouts += 1", 2)
        for line in handler:
            e.emit(line, 2)
    for line in flush:
        e.emit(line, 1)
    e.emit("core.instructions_retired += ex", 1)
    e.emit("return ex", 1)
    return "\n".join(e.lines) + "\n", is_loop


def _emit_backedge(e: _Emitter, core: "Core", vpc: int, vpn: int, n: int,
                   worst: int, has_mem: bool, indent: int) -> None:
    """The in-trace loop back-edge: account the finished iteration, then
    re-check budget, event horizon, and (when the body touches memory)
    the code page's TLB entry before starting the next one."""
    e.emit(f"done += {n}", indent)
    e.emit(f"if budget - done < {n}:", indent)
    e.emit(f"core.pc = {vpc}", indent + 1)
    e.emit("ex = done", indent + 1)
    e.emit("break", indent + 1)
    e.emit("clock._now += acc", indent)
    e.emit("acc = 0", indent)
    e.emit(f"if clock._now + {worst} >= clock._next_due:", indent)
    e.emit(f"core.pc = {vpc}", indent + 1)
    e.emit("ex = done", indent + 1)
    e.emit("break", indent + 1)
    if has_mem:
        e.emit(f"_e = entries.get({vpn})", indent)
        e.emit("if _e is None:", indent)
        e.emit(f"core.pc = {vpc}", indent + 1)
        e.emit("ex = done", indent + 1)
        e.emit("break", indent + 1)
        e.emit(f"del entries[{vpn}]", indent)
        e.emit(f"entries[{vpn}] = _e", indent)
    e.emit("continue", indent)


#: Process-wide cache of compiled code objects.  Benches, fuzz campaigns,
#: and the e1 harness build many short-lived machines running identical
#: guest images; the generated source is a pure function of the key below,
#: so the (expensive) codegen + ``compile`` runs once per distinct
#: superblock per process.  Bounded FIFO; Python-cost only.
_CODE_CACHE: dict[tuple, tuple] = {}
_CODE_CACHE_CAP = 512


def compile_trace(core: "Core", vpc: int) -> Trace | None:
    """Compile the superblock at ``vpc`` for ``core`` and register it with
    its backing bank.  Returns ``None`` when the location is uncompilable
    (bad op mix, unmapped, faulted bank, or a straight-line superblock
    shorter than ``TRACE_MIN_LENGTH``; a self-loop compiles at any
    length)."""
    from repro.hw.core import CoreState

    discovered = _discover(core, vpc)
    if discovered is None:
        return None
    body, terminal, ppn, bank, start = discovered
    l1i = core.caches.icache_levels[0]
    bp = core.caches.branch_predictor
    # Everything the generated source depends on (worst is itself derived
    # from the instruction mix plus the cache/walk geometry).
    key = (
        vpc, ppn, tuple(body), terminal,
        l1i.line_size, l1i.num_sets, l1i.hit_latency,
        tuple(level.miss_latency for level in core.caches.icache_levels),
        tuple(level.miss_latency for level in core.caches.dcache_levels),
        bp.mispredict_penalty, bp.table_size,
        core.BASE_COST, core.WALK_TOUCH_COST,
        core.second_level is not None,  # worst-case walk cost differs
    )
    cached = _CODE_CACHE.get(key)
    if cached is None:
        worst = _worst_cycles(core, body, terminal)
        source, is_loop = _compile_source(core, vpc, body, terminal, ppn,
                                          worst)
        code = compile(source, f"<trace @{vpc}>", "exec")
        if len(_CODE_CACHE) >= _CODE_CACHE_CAP:
            _CODE_CACHE.pop(next(iter(_CODE_CACHE)))
        _CODE_CACHE[key] = cached = (code, worst, is_loop)
    code, worst, is_loop = cached
    from repro.errors import LockdownViolation, MachineCheck
    namespace = {
        "_MachineCheck": MachineCheck,
        "_BusError": BusError,
        "_Lockdown": LockdownViolation,
        "_MemoryFault": MemoryFault,
        "_HALTED": CoreState.HALTED,
    }
    exec(code, namespace)
    length = len(body) + (1 if terminal is not None else 0)
    trace = Trace(vpc, ppn, bank, start, length, worst,
                  namespace["trace_fn"], is_loop)
    bank.register_trace(trace)
    return trace
