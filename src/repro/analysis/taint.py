"""Flow-sensitive information-flow (taint) analysis over GISA programs.

The paper's central claim is architectural: model secrets — weights, KV
cache, RAG contents — must only reach the world through hypervisor-mediated
ports, and covert channels (timing, interrupt rate) must be closed.  Those
are properties of *flows*, not of individual instructions, so the
per-pattern lint passes in :mod:`repro.analysis.passes` cannot express
them.  This module adds the missing rung: a taint lattice over registers
and memory partitions, with a source/sink model derived from the concrete
machine layout.  Addresses come from the interval dataflow
(:mod:`repro.analysis.dataflow`): the taint fixpoint reads the per-pc
interval states of the same :func:`~repro.analysis.dataflow.run_dataflow`
result the lint passes read, so each analysis runs one interval fixpoint.

**Sources.**  Loads whose resolved address interval overlaps a *secret
window* (a weight/RAG/KV DRAM region described by a
:class:`SourceSinkModel`), and ``RDCYCLE`` (the cycle counter — the raw
material of every timing probe).

**Sinks.**  Stores into an *egress window* (the shared-IO mailboxes),
``DOORBELL`` payloads, ``IOWR``, tainted load/store *addresses* (the
cache-set channel), tainted branch conditions / ``JR`` targets /
``DIV`` divisors / ``SETTIMER`` operands (control and fault channels),
and ``MAP``/``UNMAP`` page-table operands.  Two derived covert-channel
checks ride on top: ``DOORBELL`` rate modulated by a tainted branch
(control dependence), and ``SUB`` of two distinct ``RDCYCLE`` reads (a
completed timing measurement).

**Witness paths.**  Every reported flow carries a minimal source→sink
instruction chain: the lattice tracks, per taint label, the shortest
(then lexicographically smallest) pc chain that produced it, so the
report pinpoints the exact instructions an auditor must look at.

**Two soundness modes.**  ``may_mode=False`` (admission reports): entry
registers are unknown (TOP, except the hardwired-zero r0) and a TOP
address *is not evidence* — the analysis only reports flows it can ground
in resolved addresses, so benign programs produce zero findings.
``may_mode=True`` (the fuzz noninterference oracle): the interval
dataflow starts from the concrete reset state (all zero) and a TOP
address *may touch everything* — the flow set
over-approximates every run, so an empty flow set is a machine-checkable
noninterference certificate that the differential fuzzer then tests
against two real executions differing only in the secret page.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import (
    RESET_STATE,
    TOP,
    UNKNOWN_STATE,
    DataflowResult,
    Interval,
    run_dataflow,
)
from repro.analysis.decoder import (
    BINARY_OPS,
    BRANCH_OPS,
    DecodedInstruction,
    decode_stream,
)
from repro.hw.isa import NUM_REGISTERS, Instruction, Op, Program
from repro.hw.memory import PAGE_SIZE

#: The reserved taint label for cycle-counter reads.
TIMER_LABEL = "timer"

#: Hard ceiling on witness-chain length (chains are pc-deduplicated, so
#: this only guards degenerate hand-built programs).
_MAX_CHAIN = 96
#: Worklist-iteration safety valve; the taint lattice is finite so this
#: is unreachable in practice, but an incomplete fixpoint must fail safe.
_MAX_ITERATIONS = 20_000

#: One taint chain: the pcs that carried a label from source to here,
#: source first.
Chain = tuple[int, ...]
#: One taint value: sorted ``(label, witness_chain)`` pairs.  The empty
#: tuple is "untainted" (lattice bottom).
TaintVec = tuple[tuple[str, Chain], ...]

UNTAINTED: TaintVec = ()


# ---------------------------------------------------------------------------
# The taint lattice
# ---------------------------------------------------------------------------

def _chain_key(chain: Chain) -> tuple[int, Chain]:
    return (len(chain), chain)


def taint_source(label: str, pc: int) -> TaintVec:
    """A fresh taint introduced at ``pc``."""
    return ((label, (pc,)),)


def taint_join(a: TaintVec, b: TaintVec) -> TaintVec:
    """Lattice join: union of labels; per label, the minimal witness chain."""
    if not b or a is b:
        return a
    if not a:
        return b
    merged: dict[str, Chain] = dict(a)
    for label, chain in b:
        current = merged.get(label)
        if current is None or _chain_key(chain) < _chain_key(current):
            merged[label] = chain
    return tuple(sorted(merged.items()))


#: The taint lattice has finite height (labels are drawn from the model,
#: chains from the program's pcs), so widening is plain join.
taint_widen = taint_join


def taint_through(vec: TaintVec, pc: int) -> TaintVec:
    """Propagate taint through the instruction at ``pc``, extending each
    witness chain.  A pc already on a chain is not appended again — that
    pins chain length below the program size and makes the fixpoint
    terminate."""
    if not vec:
        return vec
    out = []
    for label, chain in vec:
        if pc in chain or len(chain) >= _MAX_CHAIN:
            out.append((label, chain))
        else:
            out.append((label, chain + (pc,)))
    return tuple(out)


def taint_labels(vec: TaintVec) -> tuple[str, ...]:
    return tuple(label for label, _ in vec)


def has_secret(vec: TaintVec) -> bool:
    """Does ``vec`` carry any non-timer (true secret) label?"""
    return any(label != TIMER_LABEL for label, _ in vec)


# ---------------------------------------------------------------------------
# The source/sink model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MemoryWindow:
    """A labelled virtual-address window ``[start, stop)`` in words."""

    label: str
    start: int
    stop: int


@dataclass(frozen=True)
class SourceSinkModel:
    """Where secrets live and where egress is possible, for one guest layout.

    ``secret_windows``/``egress_windows`` are virtual-address windows under
    the guest's mapping; ``secret_frames``/``egress_frames`` are the
    *physical* frames behind them, so a runtime ``MAP`` that aliases a
    secret or egress frame into a fresh virtual page is caught even though
    the aliased window has a different virtual address.
    """

    secret_windows: tuple[MemoryWindow, ...] = ()
    egress_windows: tuple[MemoryWindow, ...] = ()
    secret_frames: tuple[int, ...] = ()
    egress_frames: tuple[int, ...] = ()
    timer_source: bool = True

    @staticmethod
    def default() -> "SourceSinkModel":
        """Timer-only model: no layout knowledge, ``RDCYCLE`` still tainted."""
        return SourceSinkModel()

    @staticmethod
    def for_guest_layout(
        *,
        code_pages: int,
        data_pages: int,
        base_vpn: int = 0,
        secret_data_pages: int = 0,
        io_pages: int = 0,
        secret_label: str = "weights",
        egress_label: str = "mailbox",
        data_base_frame: int | None = None,
        io_base_frame: int | None = None,
    ) -> "SourceSinkModel":
        """Model for the standard loader layout: code, then data (the last
        ``secret_data_pages`` of which hold secrets), then the IO window."""
        data_vaddr = (base_vpn + code_pages) * PAGE_SIZE
        secrets: list[MemoryWindow] = []
        secret_frames: list[int] = []
        if secret_data_pages:
            first = data_pages - secret_data_pages
            secrets.append(MemoryWindow(
                secret_label,
                data_vaddr + first * PAGE_SIZE,
                data_vaddr + data_pages * PAGE_SIZE,
            ))
            if data_base_frame is not None:
                secret_frames = list(range(data_base_frame + first,
                                           data_base_frame + data_pages))
        egress: list[MemoryWindow] = []
        egress_frames: list[int] = []
        if io_pages:
            io_vaddr = data_vaddr + data_pages * PAGE_SIZE
            egress.append(MemoryWindow(
                egress_label, io_vaddr, io_vaddr + io_pages * PAGE_SIZE))
            if io_base_frame is not None:
                egress_frames = list(range(io_base_frame,
                                           io_base_frame + io_pages))
        return SourceSinkModel(
            secret_windows=tuple(secrets),
            egress_windows=tuple(egress),
            secret_frames=tuple(secret_frames),
            egress_frames=tuple(egress_frames),
        )

    def cache_key(self) -> tuple:
        return (self.secret_windows, self.egress_windows,
                self.secret_frames, self.egress_frames, self.timer_source)


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TaintFlow:
    """One source→sink flow with its minimal witness path."""

    kind: str
    labels: tuple[str, ...]
    sink_pc: int
    witness: tuple[int, ...]    # source pc first, sink pc last
    message: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "labels": list(self.labels),
            "sink_pc": self.sink_pc,
            "witness": list(self.witness),
            "message": self.message,
        }


#: Flow kind -> finding category (``flow-*`` namespaces keep them distinct
#: from the per-pattern lint categories).
FLOW_CATEGORIES = {
    "exfil-mailbox": "flow-exfil",
    "exfil-doorbell": "flow-exfil",
    "exfil-io": "flow-exfil",
    "map-alias": "flow-alias",
    "address-channel": "flow-address",
    "branch-channel": "flow-branch",
    "covert-doorbell": "flow-covert",
    "timing-measurement": "flow-timing",
    "analysis-incomplete": "flow-incomplete",
}


@dataclass(frozen=True)
class TaintResult:
    """Everything the taint fixpoint learned about one program."""

    flows: tuple[TaintFlow, ...]
    converged: bool
    may_mode: bool

    @property
    def clean(self) -> bool:
        """No flows at all — in may mode, a noninterference certificate."""
        return not self.flows


# ---------------------------------------------------------------------------
# The taint fixpoint
# ---------------------------------------------------------------------------

_WORD_SPACE = 1 << 64

#: Index of the catch-all memory partition (code + plain data + everything
#: no window claims).
_OTHER = -1


def _normalize(interval: Interval) -> Interval:
    """Intervals outside the 64-bit word space are unsound (the runtime
    wraps); degrade them to TOP so both modes stay honest about them."""
    if interval.is_top:
        return TOP
    if interval.lo is None or interval.lo < 0:
        return TOP
    if interval.hi is None or interval.hi >= _WORD_SPACE:
        return TOP
    return interval


class _Engine:
    """One taint-analysis run: fixpoint, then a recording sweep."""

    def __init__(self, dataflow: DataflowResult, model: SourceSinkModel,
                 may_mode: bool) -> None:
        self.dataflow = dataflow
        self.cfg = dataflow.cfg
        self.model = model
        self.may = may_mode
        self.windows: tuple[MemoryWindow, ...] = (
            model.secret_windows + model.egress_windows)
        self._secret_count = len(model.secret_windows)
        self.flows: list[TaintFlow] = []
        self._recording = False
        #: (block leader, branch pc, condition taint) for the covert pass.
        self._tainted_branches: list[tuple[int, int, TaintVec]] = []

    # -- address resolution ------------------------------------------------

    def _touched(self, address: Interval) -> list[int]:
        """Window indices (plus :data:`_OTHER`) an address may reference.

        Definite mode treats an unknown address as touching *nothing* (an
        unknown address is not evidence); may mode treats it as touching
        *everything* (it genuinely may)."""
        address = _normalize(address)
        if address.is_top:
            if self.may:
                return list(range(len(self.windows))) + [_OTHER]
            return []
        touched = [
            index for index, window in enumerate(self.windows)
            if address.overlaps(window.start, window.stop)
        ]
        if not any(address.within(w.start, w.stop) for w in self.windows):
            touched.append(_OTHER)
        return touched

    def _secret_indices(self, touched: Iterable[int]) -> list[int]:
        return [i for i in touched if 0 <= i < self._secret_count]

    def _egress_indices(self, touched: Iterable[int]) -> list[int]:
        return [i for i in touched
                if self._secret_count <= i < len(self.windows)]

    # -- flow emission -----------------------------------------------------

    def _emit(self, kind: str, vec: TaintVec, sink_pc: int, message: str,
              via: tuple[int, ...] = ()) -> None:
        if not self._recording or not vec:
            return
        labels = taint_labels(vec)
        chain = min((chain for _, chain in vec), key=_chain_key)
        witness = chain
        for pc in via + (sink_pc,):
            if pc not in witness:
                witness = witness + (pc,)
        self.flows.append(TaintFlow(kind, labels, sink_pc, witness, message))

    def _emit_alias(self, kind: str, label: str, sink_pc: int,
                    message: str) -> None:
        if not self._recording:
            return
        self.flows.append(TaintFlow(kind, (label,), sink_pc, (sink_pc,),
                                    message))

    # -- the transfer function ---------------------------------------------

    def _address(self, decoded: DecodedInstruction, register: int,
                 offset: int = 0) -> Interval:
        """Interval of ``register`` (+ ``offset``) just before ``decoded``."""
        return _normalize(self.dataflow.register_before(
            decoded.pc, register)).shift(offset)

    def step(self, decoded: DecodedInstruction,
             regs: list[TaintVec], mem: list[TaintVec]) -> None:
        """Taint-execute one instruction in place (``regs``/``mem``).

        ``regs[0]`` is never written, so it stays untainted: r0 is the
        hardwired zero."""
        ins = decoded.instruction
        if ins is None:
            return
        op = ins.op
        pc = decoded.pc
        written: TaintVec | None = None      # rd's new taint, if op writes rd

        if op is Op.MOVI or op is Op.JAL or op is Op.IORD:
            written = UNTAINTED
        elif op is Op.MOV or op is Op.ADDI:
            written = taint_through(regs[ins.rs1], pc)
        elif op in BINARY_OPS:
            left, right = regs[ins.rs1], regs[ins.rs2]
            if op is Op.SUB:
                self._check_timing_measurement(pc, left, right)
            if op is Op.DIV and right:
                self._emit(
                    "branch-channel", right, pc,
                    "DIV divisor is tainted: division-fault delivery leaks "
                    "one bit per run")
            written = taint_through(taint_join(left, right), pc)
        elif op is Op.RDCYCLE:
            written = (taint_source(TIMER_LABEL, pc)
                       if self.model.timer_source else UNTAINTED)
        elif op is Op.LOAD:
            address_taint = regs[ins.rs1]
            if address_taint:
                self._emit(
                    "address-channel", address_taint, pc,
                    "load address derives from tainted data "
                    "(cache-set channel)")
            touched = self._touched(self._address(decoded, ins.rs1, ins.imm))
            value: TaintVec = UNTAINTED
            for index in touched:
                value = taint_join(value, mem[index])
            for index in self._secret_indices(touched):
                value = taint_join(
                    value, taint_source(self.windows[index].label, pc))
            written = taint_through(value, pc)
        elif op is Op.STORE:
            address_taint = regs[ins.rs1]
            if address_taint:
                self._emit(
                    "address-channel", address_taint, pc,
                    "store address derives from tainted data "
                    "(cache-set channel)")
            value = regs[ins.rs2]
            touched = self._touched(self._address(decoded, ins.rs1, ins.imm))
            if value:
                for index in self._egress_indices(touched):
                    self._emit(
                        "exfil-mailbox", value, pc,
                        f"tainted value stored into the "
                        f"{self.windows[index].label!r} egress window")
            stored = taint_through(value, pc)
            if stored:
                for index in touched:
                    mem[index] = taint_join(mem[index], stored)
        elif op is Op.DOORBELL:
            payload = regs[ins.rs1]
            if payload:
                self._emit(
                    "exfil-doorbell", payload, pc,
                    "DOORBELL payload is tainted: one word of secret-derived "
                    "data per ring")
        elif op is Op.IOWR:
            value = regs[ins.rs1]
            if value:
                self._emit(
                    "exfil-io", value, pc,
                    "IOWR writes tainted data to a port")
        elif op in BRANCH_OPS:
            condition = taint_join(regs[ins.rs1], regs[ins.rs2])
            if condition:
                self._emit(
                    "branch-channel", condition, pc,
                    "branch condition derives from tainted data "
                    "(control channel)")
                if self._recording:
                    leader = self._leader_of(pc)
                    if leader is not None:
                        self._tainted_branches.append((leader, pc, condition))
        elif op is Op.JR:
            target = regs[ins.rs1]
            if target:
                self._emit(
                    "branch-channel", target, pc,
                    "indirect-jump target derives from tainted data "
                    "(control channel)")
        elif op is Op.SETTIMER:
            delay = regs[ins.rs1]
            if delay:
                self._emit(
                    "branch-channel", delay, pc,
                    "SETTIMER delay derives from tainted data "
                    "(interrupt-timing channel)")
        elif op is Op.MAP:
            self._check_map(decoded, regs)
        elif op is Op.UNMAP:
            argument = regs[ins.rs1]
            if argument:
                self._emit(
                    "address-channel", argument, pc,
                    "UNMAP operand derives from tainted data")
        # WFI, FENCE, JMP, HALT, IRET: no taint effect.
        if written is not None and ins.rd:
            regs[ins.rd] = written

    def _check_timing_measurement(self, pc: int, left: TaintVec,
                                  right: TaintVec) -> None:
        """SUB of two *distinct* RDCYCLE reads is a completed timing
        measurement — the value now in hand is a latency, not a time."""
        left_chain = dict(left).get(TIMER_LABEL)
        right_chain = dict(right).get(TIMER_LABEL)
        if (left_chain is None or right_chain is None
                or left_chain[0] == right_chain[0]):
            return
        vec: TaintVec = ((TIMER_LABEL, min(left_chain, right_chain,
                                           key=_chain_key)),)
        self._emit(
            "timing-measurement", vec, pc,
            "SUB of two RDCYCLE reads completes a timing measurement "
            "(prime+probe shape)")

    def _check_map(self, decoded: DecodedInstruction,
                   regs: list[TaintVec]) -> None:
        """A runtime MAP whose ppn may alias a secret or egress frame gives
        the guest a fresh virtual window onto protected physical memory —
        the one way around the virtual-window source model."""
        ins = decoded.instruction
        assert ins is not None
        operands = taint_join(regs[ins.rs1], regs[ins.rs2])
        if operands:
            self._emit(
                "address-channel", operands, decoded.pc,
                "MAP operand derives from tainted data")
        ppn = self._address(decoded, ins.rs2)
        frames = (tuple((f, "secret") for f in self.model.secret_frames)
                  + tuple((f, "egress") for f in self.model.egress_frames))
        if not frames:
            return
        if ppn.is_top:
            if self.may:
                self._emit_alias(
                    "map-alias", self.model.secret_windows[0].label
                    if self.model.secret_windows else "egress",
                    decoded.pc,
                    "MAP with unresolved ppn may alias a protected frame")
            return
        for frame, role in frames:
            if ppn.overlaps(frame, frame + 1):
                label = ("egress" if role == "egress"
                         else self._frame_label(frame))
                self._emit_alias(
                    "map-alias", label, decoded.pc,
                    f"MAP may alias physical frame {frame} "
                    f"({role} memory) into a fresh virtual window")
                return

    def _frame_label(self, frame: int) -> str:
        index = (self.model.secret_frames.index(frame)
                 if frame in self.model.secret_frames else 0)
        if self.model.secret_windows:
            bounded = min(index, len(self.model.secret_windows) - 1)
            return self.model.secret_windows[bounded].label
        return "secret"

    def _leader_of(self, pc: int) -> int | None:
        block = self.cfg.block_of(pc)
        return None if block is None else block.start

    # -- block transfer ----------------------------------------------------

    def run_block(self, leader: int, regs: tuple[TaintVec, ...],
                  mem: tuple[TaintVec, ...],
                  ) -> tuple[tuple[TaintVec, ...], tuple[TaintVec, ...]]:
        reg_list = list(regs)
        mem_list = list(mem)
        for decoded in self.cfg.blocks[leader]:
            self.step(decoded, reg_list, mem_list)
        return tuple(reg_list), tuple(mem_list)

    # -- the covert-channel post-pass --------------------------------------

    def covert_doorbell_pass(self) -> None:
        """A DOORBELL whose execution is control-dependent on a tainted
        branch modulates the interrupt *rate* by the secret even though the
        payload is clean — the E4-shaped covert channel."""
        doorbells: dict[int, list[int]] = {}
        for leader, block in self.cfg.blocks.items():
            for decoded in block:
                if decoded.op is Op.DOORBELL:
                    doorbells.setdefault(leader, []).append(decoded.pc)
        if not doorbells:
            return
        for leader, branch_pc, condition in self._tainted_branches:
            region = self._influence_region(leader)
            for block_leader in sorted(region & set(doorbells)):
                for doorbell_pc in doorbells[block_leader]:
                    self._emit(
                        "covert-doorbell", condition, doorbell_pc,
                        "doorbell ring is control-dependent on a tainted "
                        "branch (interrupt-rate covert channel)",
                        via=(branch_pc,))

    def _influence_region(self, leader: int) -> set[int]:
        """Blocks executed on some but not all outcomes of the branch
        terminating ``leader``: the symmetric difference of its successors'
        descendant sets (a control-dependence approximation)."""
        reachsets = [
            self.cfg.descendants(successor) | {successor}
            if isinstance(successor, int) else frozenset()
            for successor in self.cfg.successors[leader]
        ]
        region: set[int] = set()
        for i, left in enumerate(reachsets):
            for right in reachsets[i + 1:]:
                region |= left ^ right
        return region


def analyze_taint(
    source: Program | Sequence[int] | Iterable[Instruction] | None = None,
    *,
    model: SourceSinkModel | None = None,
    base_address: int = 0,
    may_mode: bool = False,
    dataflow: DataflowResult | None = None,
) -> TaintResult:
    """Run the taint fixpoint and report all flows.

    Pass either raw ``source`` material or the ``dataflow`` result of a
    definite-mode analysis that already ran (the ``taint-flows`` pass
    hands over the lint passes' result).  From ``source``, the interval
    dataflow runs from :data:`RESET_STATE` in may mode and from
    :data:`UNKNOWN_STATE` otherwise.  See the module docstring for the two
    soundness modes.
    """
    if dataflow is None:
        if source is None:
            raise ValueError("need either source or dataflow")
        cfg = build_cfg(decode_stream(source, base_address), base_address)
        dataflow = run_dataflow(
            cfg, RESET_STATE if may_mode else UNKNOWN_STATE)
    cfg = dataflow.cfg
    if model is None:
        model = SourceSinkModel.default()
    engine = _Engine(dataflow, model, may_mode)

    initial_regs: tuple[TaintVec, ...] = (UNTAINTED,) * NUM_REGISTERS
    initial_mem: tuple[TaintVec, ...] = (
        (UNTAINTED,) * (len(engine.windows) + 1))

    BlockState = tuple[tuple[TaintVec, ...], tuple[TaintVec, ...]]
    entry_states: dict[int, BlockState] = {}
    worklist: deque[int] = deque()
    if cfg.entry in cfg.blocks:
        entry_states[cfg.entry] = (initial_regs, initial_mem)
        worklist.append(cfg.entry)

    converged = True
    iterations = 0
    while worklist:
        iterations += 1
        if iterations > _MAX_ITERATIONS:
            converged = False
            break
        leader = worklist.popleft()
        out_regs, out_mem = engine.run_block(leader, *entry_states[leader])
        for successor in cfg.successors[leader]:
            if not isinstance(successor, int):
                continue
            existing = entry_states.get(successor)
            if existing is None:
                entry_states[successor] = (out_regs, out_mem)
                worklist.append(successor)
                continue
            old_regs, old_mem = existing
            merged = (
                tuple(map(taint_join, old_regs, out_regs)),
                tuple(map(taint_join, old_mem, out_mem)),
            )
            if merged != existing:
                entry_states[successor] = merged
                if successor not in worklist:
                    worklist.append(successor)

    # Recording sweep over the converged states, in pc order.
    engine._recording = True
    for leader in sorted(entry_states):
        engine.run_block(leader, *entry_states[leader])
    engine.covert_doorbell_pass()

    if not converged and may_mode:
        # Fail safe: an incomplete fixpoint cannot certify noninterference.
        engine.flows.append(TaintFlow(
            "analysis-incomplete", (), cfg.entry, (cfg.entry,),
            "taint fixpoint did not converge; no noninterference claim"))

    deduped: dict[tuple[str, tuple[str, ...], int], TaintFlow] = {}
    for flow in engine.flows:
        key = (flow.kind, flow.labels, flow.sink_pc)
        existing_flow = deduped.get(key)
        if (existing_flow is None
                or _chain_key(flow.witness) < _chain_key(
                    existing_flow.witness)):
            deduped[key] = flow
    ordered = sorted(deduped.values(),
                     key=lambda f: (f.sink_pc, f.kind, f.labels))
    return TaintResult(flows=tuple(ordered), converged=converged,
                       may_mode=may_mode)


# ---------------------------------------------------------------------------
# The lint-pass bridge
# ---------------------------------------------------------------------------

def flow_severity(flow: TaintFlow) -> "Severity":
    """Admission severity of one flow.

    Mailbox stores are WARNING — that *is* the paper's sanctioned,
    hypervisor-mediated egress path, worth surfacing but not refusing.
    Doorbell/IO exfiltration, frame aliasing, and completed timing
    measurements are ERROR outright.  Address/branch/covert channels are
    ERROR when true secrets are involved and WARNING when only the timer
    is (a timing *ingredient*, not yet a leak).
    """
    from repro.analysis.passes import Severity

    if flow.kind == "exfil-mailbox":
        return Severity.WARNING
    if flow.kind in ("exfil-doorbell", "exfil-io", "map-alias",
                     "timing-measurement"):
        return Severity.ERROR
    if flow.kind == "analysis-incomplete":
        return Severity.WARNING
    secret = any(label != TIMER_LABEL for label in flow.labels)
    return Severity.ERROR if secret else Severity.WARNING


def flow_to_finding(flow: TaintFlow) -> "Finding":
    from repro.analysis.passes import Finding

    return Finding(
        "taint-flows",
        FLOW_CATEGORIES.get(flow.kind, "flow-exfil"),
        flow_severity(flow),
        flow.sink_pc,
        flow.message,
        {
            "kind": flow.kind,
            "labels": list(flow.labels),
            "witness": list(flow.witness),
            "source_pc": flow.witness[0],
        },
    )


def _register_pass() -> None:
    from repro.analysis.passes import (
        AnalysisContext,
        Finding,
        lint_pass,
    )

    @lint_pass("taint-flows")
    def taint_flows(ctx: AnalysisContext) -> list[Finding]:
        """Information-flow verdict: every secret→egress and covert-channel
        flow, each with a minimal witness path."""
        model = ctx.sources if ctx.sources is not None else (
            SourceSinkModel.default())
        result = analyze_taint(model=model, dataflow=ctx.dataflow)
        return [flow_to_finding(flow) for flow in result.flows]


_register_pass()


from repro.analysis.passes import Finding, Severity  # noqa: E402  (cycle-safe tail import)
