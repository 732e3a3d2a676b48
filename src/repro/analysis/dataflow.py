"""Forward abstract interpretation over the CFG: an interval domain.

Each of the 16 registers is tracked as an interval ``[lo, hi]`` (``None``
bounds meaning +/- infinity); a singleton interval is a known constant.
That is enough to resolve the computed addresses the lint passes care
about — ``STORE rs1+imm`` targets, ``JR rs1`` targets, and the
``vpn``/``ppn`` operands of ``MAP``/``UNMAP`` — across the whole adversarial
corpus in :mod:`repro.model.programs`, whose kernels materialise addresses
with ``MOVI``/``MUL``/``ADDI`` chains.

The analysis is a standard worklist fixpoint with widening: after a block
has been visited a few times, growing bounds are widened to infinity, so
loops (e.g. the E4 flood loop) converge immediately.

Register 0 is the hardwired zero, as in the core: it is the constant 0 in
every entry state and :func:`transfer` never writes it.

This is the analyzer's only interval fixpoint.  The lint passes read its
per-pc states, and so does the taint engine (:mod:`repro.analysis.taint`),
which runs from :data:`RESET_STATE` in its may mode.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import ControlFlowGraph
from repro.analysis.decoder import BINARY_OPS, DecodedInstruction
from repro.hw.isa import NUM_REGISTERS, Op

#: Block visits before widening kicks in.
_WIDEN_AFTER = 3


@dataclass(frozen=True)
class Interval:
    """An integer interval; ``None`` bounds are infinite."""

    lo: int | None
    hi: int | None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def top() -> "Interval":
        return TOP

    @staticmethod
    def const(value: int) -> "Interval":
        return Interval(value, value)

    # -- queries -----------------------------------------------------------

    @property
    def is_top(self) -> bool:
        return self.lo is None and self.hi is None

    @property
    def is_const(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    @property
    def value(self) -> int:
        if not self.is_const:
            raise ValueError("interval is not a constant")
        assert self.lo is not None
        return self.lo

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def overlaps(self, start: int, stop: int) -> bool:
        """Does this interval intersect ``[start, stop)``?

        A fully unbounded (TOP) interval is treated as *not* overlapping:
        an unknown address is not evidence of an attack, and flagging it
        would false-positive every benign computed store.
        """
        if self.is_top:
            return False
        lo = self.lo if self.lo is not None else start
        hi = self.hi if self.hi is not None else stop - 1
        return lo < stop and hi >= start

    def within(self, start: int, stop: int) -> bool:
        """Is this interval entirely inside ``[start, stop)``?"""
        return (self.lo is not None and self.hi is not None
                and start <= self.lo and self.hi < stop)

    # -- lattice operations ------------------------------------------------

    # Both return ``self`` when the result equals it, so a fixpoint whose
    # states stop moving stops allocating.

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return self if lo == self.lo and hi == self.hi else Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        lo = self.lo
        if newer.lo is None or (lo is not None and newer.lo < lo):
            lo = None
        hi = self.hi
        if newer.hi is None or (hi is not None and newer.hi > hi):
            hi = None
        return self if lo == self.lo and hi == self.hi else Interval(lo, hi)

    # -- arithmetic transfer -----------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else self.lo + other.lo
        hi = None if self.hi is None or other.hi is None else self.hi + other.hi
        return Interval(lo, hi)

    def sub(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.hi is None else self.lo - other.hi
        hi = None if self.hi is None or other.lo is None else self.hi - other.lo
        return Interval(lo, hi)

    def shift(self, imm: int) -> "Interval":
        return self.add(Interval.const(imm))

    def __str__(self) -> str:
        if self.is_top:
            return "T"
        if self.is_const:
            return str(self.lo)
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


TOP = Interval(None, None)

#: One abstract machine state: a tuple of 16 intervals.
State = tuple[Interval, ...]

_ZERO = Interval.const(0)
#: Entry state of a guest whose registers are unknown (admission).
UNKNOWN_STATE: State = (_ZERO,) + (TOP,) * (NUM_REGISTERS - 1)
#: The concrete reset state: every register zero.
RESET_STATE: State = (_ZERO,) * NUM_REGISTERS


def _binop(op: Op, a: Interval, b: Interval) -> Interval:
    if op is Op.ADD:
        return a.add(b)
    if op is Op.SUB:
        return a.sub(b)
    if a.is_const and b.is_const:
        x, y = a.value, b.value
        try:
            if op is Op.MUL:
                return Interval.const(x * y)
            if op is Op.DIV:
                return TOP if y == 0 else Interval.const(x // y)
            if op is Op.AND:
                return Interval.const(x & y)
            if op is Op.OR:
                return Interval.const(x | y)
            if op is Op.XOR:
                return Interval.const(x ^ y)
            if op is Op.SHL:
                return Interval.const(x << min(y, 64)) if y >= 0 else TOP
            if op is Op.SHR:
                return Interval.const(x >> min(y, 64)) if y >= 0 else TOP
        except (OverflowError, ValueError):  # pragma: no cover - giant shifts
            return TOP
    return TOP


def transfer(state: State, decoded: DecodedInstruction) -> State:
    """Abstractly execute one instruction.

    An instruction that writes no general register, or writes r0, returns
    ``state`` itself."""
    ins = decoded.instruction
    if ins is None or ins.rd == 0:
        return state
    op = ins.op
    if op is Op.MOVI:
        value = Interval.const(ins.imm)
    elif op is Op.ADDI:
        value = state[ins.rs1].shift(ins.imm)
    elif op in BINARY_OPS:
        value = _binop(op, state[ins.rs1], state[ins.rs2])
    elif op is Op.MOV:
        value = state[ins.rs1]
    elif op is Op.JAL:
        value = Interval.const(decoded.pc + 1)
    elif op in (Op.LOAD, Op.RDCYCLE, Op.IORD):
        value = TOP
    else:
        # STORE, MAP, UNMAP, DOORBELL, WFI, FENCE, IOWR, SETTIMER,
        # branches, JMP, JR, IRET, HALT, NOP write no general register.
        return state
    regs = list(state)
    regs[ins.rd] = value
    return tuple(regs)


def _join_states(a: State, b: State) -> State:
    if a is b:
        return a
    return tuple(x if x is y else x.join(y) for x, y in zip(a, b))


def _widen_states(old: State, new: State) -> State:
    if old is new:
        return old
    return tuple(x if x is y else x.widen(y) for x, y in zip(old, new))


class DataflowResult:
    """Per-pc abstract states plus address-resolution helpers."""

    def __init__(self, cfg: ControlFlowGraph, pre_states: dict[int, State]) -> None:
        self.cfg = cfg
        self._pre = pre_states

    def state_before(self, pc: int) -> State | None:
        """Abstract register state just before ``pc`` executes (``None``
        when the instruction is statically unreachable)."""
        return self._pre.get(pc)

    def register_before(self, pc: int, register: int) -> Interval:
        state = self._pre.get(pc)
        return TOP if state is None else state[register]

    # -- resolution helpers used by the lint passes ------------------------

    def store_target(self, decoded: DecodedInstruction) -> Interval:
        """Resolved address interval of a ``STORE`` (rs1 + imm)."""
        ins = decoded.instruction
        assert ins is not None and ins.op is Op.STORE
        return self.register_before(decoded.pc, ins.rs1).shift(ins.imm)

    def load_target(self, decoded: DecodedInstruction) -> Interval:
        ins = decoded.instruction
        assert ins is not None and ins.op is Op.LOAD
        return self.register_before(decoded.pc, ins.rs1).shift(ins.imm)

    def jump_target(self, decoded: DecodedInstruction) -> Interval:
        """Resolved target interval of a ``JR``."""
        ins = decoded.instruction
        assert ins is not None and ins.op is Op.JR
        return self.register_before(decoded.pc, ins.rs1)

    def map_arguments(self, decoded: DecodedInstruction) -> tuple[Interval, Interval, int]:
        """``(vpn, ppn, perms)`` intervals/value for a ``MAP``."""
        ins = decoded.instruction
        assert ins is not None and ins.op is Op.MAP
        return (self.register_before(decoded.pc, ins.rs1),
                self.register_before(decoded.pc, ins.rs2),
                ins.imm)

    def unmap_argument(self, decoded: DecodedInstruction) -> Interval:
        ins = decoded.instruction
        assert ins is not None and ins.op is Op.UNMAP
        return self.register_before(decoded.pc, ins.rs1)

    def loop_bound(self, leader: int) -> int | None:
        """Best-effort trip-count bound for the loop containing ``leader``:
        the constant comparison operand of its back-edge branch, if any."""
        block = self.cfg.blocks.get(leader)
        if block is None:
            return None
        terminator = block.terminator
        ins = terminator.instruction
        if ins is None or ins.op not in (Op.BLT, Op.BGE, Op.BEQ, Op.BNE):
            return None
        state = self._pre.get(terminator.pc)
        if state is None:
            return None
        for operand in (ins.rs2, ins.rs1):
            interval = state[operand]
            if interval.is_const:
                return interval.value
        return None


def run_dataflow(cfg: ControlFlowGraph,
                 entry: State = UNKNOWN_STATE) -> DataflowResult:
    """Worklist fixpoint over block-entry states from ``entry`` (whose r0
    must be 0), then one recording pass."""
    entry_states: dict[int, State] = {}
    visits: dict[int, int] = {}
    if cfg.entry in cfg.blocks:
        entry_states[cfg.entry] = entry
        worklist = [cfg.entry]
    else:
        worklist = []

    while worklist:
        leader = worklist.pop()
        state = entry_states[leader]
        for decoded in cfg.blocks[leader]:
            state = transfer(state, decoded)
        for successor in cfg.successors[leader]:
            if not isinstance(successor, int):
                continue
            existing = entry_states.get(successor)
            if existing is None:
                entry_states[successor] = state
                worklist.append(successor)
                continue
            merged = _join_states(existing, state)
            visits[successor] = visits.get(successor, 0) + 1
            if visits[successor] > _WIDEN_AFTER:
                merged = _widen_states(existing, merged)
            if merged is not existing and merged != existing:
                entry_states[successor] = merged
                worklist.append(successor)

    # Recording pass: pin down the pre-state of every reachable pc.
    pre_states: dict[int, State] = {}
    for leader, state in entry_states.items():
        for decoded in cfg.blocks[leader]:
            pre_states[decoded.pc] = state
            state = transfer(state, decoded)
    return DataflowResult(cfg, pre_states)
