"""The lint-pass registry: typed findings over a decoded guest binary.

Each pass is a function ``(AnalysisContext) -> list[Finding]`` registered
under a stable name.  The pipeline (:func:`analyze_program`) decodes the
image, builds the CFG, runs the dataflow, then every registered pass.  The
finding categories map one-to-one onto the attack corpus in
:mod:`repro.model.programs`:

==============   ==========================================================
``forbidden-io`` ``IORD``/``IOWR`` — no model-core capability ever
                 includes port-mapped IO (section 3.3)
``wx``           W^X violations: stores into the executable image, ``MAP``
                 creating executable or writable-alias pages (the E3
                 injection family)
``selfmod``      an indirect jump lands in a region this program writes —
                 injected code would execute
``doorbell-flood`` a ``DOORBELL`` inside a CFG cycle (the E4 livelock)
``timing-probe`` ``RDCYCLE``-bracketed loads (E2 prime+probe), or a
                 cache-set walking load pattern
``halting``      unreachable code, missing exits, escaping control flow,
                 invalid instruction words
==============   ==========================================================

Severity semantics: ``ERROR`` findings make admission control refuse the
guest under the ``enforce`` policy; ``WARNING``s are logged; ``INFO`` is
advisory.
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.dataflow import DataflowResult, Interval, run_dataflow
from repro.analysis.decoder import DecodedInstruction, decode_stream
from repro.hw.isa import WORD_MASK, Instruction, Op, Program
from repro.hw.memory import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.taint import SourceSinkModel

#: Profile for Guillotine model cores: port IO is an invalid instruction.
PROFILE_GUILLOTINE = "guillotine"
#: Profile for the traditional baseline: port IO traps and is emulated.
PROFILE_BASELINE = "baseline"

#: Loads from one base register with at least this many distinct line-
#: aligned offsets in one block look like cache-set priming.
_PRIME_MIN_LINES = 8
#: Default cache line size (words) for the priming heuristic.
_LINE_WORDS = 4

PERM_W = 0b010
PERM_X = 0b001


class Severity(enum.IntEnum):
    """Finding severities, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error" in tables and JSON
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One statically proven (or suspected) property of a guest binary."""

    pass_name: str
    category: str
    severity: Severity
    pc: int
    message: str
    detail: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "pass": self.pass_name,
            "category": self.category,
            "severity": str(self.severity),
            "pc": self.pc,
            "message": self.message,
            "detail": dict(self.detail),
        }


@dataclass
class AnalysisContext:
    """Everything a pass may look at."""

    decoded: list[DecodedInstruction]
    cfg: ControlFlowGraph
    dataflow: DataflowResult
    profile: str = PROFILE_GUILLOTINE
    base_address: int = 0
    #: Word range of the code *pages* (image rounded up to page size) —
    #: the executable region the MMU lockdown will freeze.
    code_start: int = 0
    code_stop: int = 0
    #: Physical frames the code pages will occupy, when the loader knows
    #: them (admission control does); enables MAP-alias detection by ppn.
    code_frames: range | None = None
    line_words: int = _LINE_WORDS
    #: Source/sink model for the information-flow pass (``None`` means the
    #: timer-only default — see :class:`repro.analysis.taint.SourceSinkModel`).
    sources: "SourceSinkModel | None" = None

    def reachable(self, decoded: DecodedInstruction) -> bool:
        return self.cfg.is_reachable(decoded.pc)

    def reachable_instructions(self) -> Iterable[DecodedInstruction]:
        reachable_leaders = self.cfg.reachable_blocks()
        for leader in sorted(reachable_leaders):
            yield from self.cfg.blocks[leader]

    def in_code_pages(self, interval: Interval) -> bool:
        return interval.overlaps(self.code_start, self.code_stop)


PassFn = Callable[[AnalysisContext], list[Finding]]

_REGISTRY: dict[str, PassFn] = {}


def lint_pass(name: str) -> Callable[[PassFn], PassFn]:
    """Register a pass under ``name`` (used in reports and docs)."""

    def wrap(fn: PassFn) -> PassFn:
        if name in _REGISTRY:
            raise ValueError(f"duplicate pass name {name!r}")
        _REGISTRY[name] = fn
        return fn

    return wrap


def registered_passes() -> dict[str, PassFn]:
    """Name -> pass function, sorted by pass name.

    The order is *explicitly* alphabetical rather than registration order:
    reports list the passes they ran, finding ties sort by encounter order,
    and both must be byte-stable no matter which module got imported first.
    """
    return dict(sorted(_REGISTRY.items()))


# ---------------------------------------------------------------------------
# The passes
# ---------------------------------------------------------------------------

@lint_pass("forbidden-opcodes")
def forbidden_opcodes(ctx: AnalysisContext) -> list[Finding]:
    """Port-mapped IO never appears in legal model-core code (section 3.3)."""
    findings = []
    for decoded in ctx.decoded:
        if decoded.op not in (Op.IORD, Op.IOWR):
            continue
        if ctx.profile == PROFILE_BASELINE:
            severity = Severity.INFO
            message = f"{decoded.op.name} traps to the baseline hypervisor"
        elif ctx.reachable(decoded):
            severity = Severity.ERROR
            message = (f"{decoded.op.name} is an invalid instruction on a "
                       "Guillotine model core")
        else:
            severity = Severity.WARNING
            message = f"unreachable {decoded.op.name} in image"
        findings.append(Finding(
            "forbidden-opcodes", "forbidden-io", severity, decoded.pc,
            message, {"op": decoded.op.name},
        ))
    return findings


@lint_pass("wx-integrity")
def wx_integrity(ctx: AnalysisContext) -> list[Finding]:
    """W^X over the executable image: the whole E3 injection family.

    * a resolved ``STORE`` target inside the code pages;
    * ``MAP`` with executable perms (lockdown forbids new/remapped X pages);
    * ``MAP`` making any code-page vpn writable, or aliasing a code frame;
    * a writable runtime mapping that both receives stores and feeds a
      reachable indirect jump (the alias-injection shape).
    """
    findings = []
    indirect_reachable = any(
        d.is_indirect and ctx.reachable(d) for d in ctx.decoded
    )
    store_targets = [
        (d, ctx.dataflow.store_target(d))
        for d in ctx.reachable_instructions()
        if d.op is Op.STORE
    ]
    for decoded, target in store_targets:
        if ctx.in_code_pages(target):
            findings.append(Finding(
                "wx-integrity", "wx", Severity.ERROR, decoded.pc,
                "store into the executable image (W^X violation)",
                {"target": str(target),
                 "code_pages": [ctx.code_start, ctx.code_stop]},
            ))
    for decoded in ctx.decoded:
        if decoded.op is Op.MAP and ctx.reachable(decoded):
            vpn, ppn, perms = ctx.dataflow.map_arguments(decoded)
            detail = {"vpn": str(vpn), "ppn": str(ppn), "perms": perms}
            if perms & PERM_X:
                findings.append(Finding(
                    "wx-integrity", "wx", Severity.ERROR, decoded.pc,
                    "MAP creates an executable page at runtime "
                    "(lockdown violation)", detail,
                ))
                continue
            if perms & PERM_W:
                if vpn.overlaps(ctx.code_start // PAGE_SIZE,
                                max(ctx.code_stop // PAGE_SIZE, 1)):
                    findings.append(Finding(
                        "wx-integrity", "wx", Severity.ERROR, decoded.pc,
                        "MAP makes a code page writable", detail,
                    ))
                    continue
                if (ctx.code_frames is not None and ppn.is_const
                        and ppn.value in ctx.code_frames):
                    findings.append(Finding(
                        "wx-integrity", "wx", Severity.ERROR, decoded.pc,
                        "MAP aliases a code frame with write permission",
                        detail,
                    ))
                    continue
                if vpn.is_const and indirect_reachable and any(
                    target.overlaps(vpn.value * PAGE_SIZE,
                                    (vpn.value + 1) * PAGE_SIZE)
                    for _, target in store_targets
                ):
                    findings.append(Finding(
                        "wx-integrity", "wx", Severity.ERROR, decoded.pc,
                        "writable runtime mapping receives stores and the "
                        "program performs an indirect jump "
                        "(alias-injection shape)", detail,
                    ))
                    continue
            findings.append(Finding(
                "wx-integrity", "wx", Severity.WARNING, decoded.pc,
                "runtime page-table update by guest code", detail,
            ))
        elif decoded.op is Op.UNMAP and ctx.reachable(decoded):
            vpn = ctx.dataflow.unmap_argument(decoded)
            findings.append(Finding(
                "wx-integrity", "wx", Severity.WARNING, decoded.pc,
                "runtime UNMAP by guest code", {"vpn": str(vpn)},
            ))
    return findings


@lint_pass("selfmod-reachability")
def selfmod_reachability(ctx: AnalysisContext) -> list[Finding]:
    """Write-then-execute: an indirect jump into a stored-to region."""
    findings = []
    stored: list[tuple[int, Interval]] = [
        (d.pc, ctx.dataflow.store_target(d))
        for d in ctx.reachable_instructions()
        if d.op is Op.STORE
    ]
    for decoded in ctx.reachable_instructions():
        if decoded.op is not Op.JR:
            continue
        target = ctx.dataflow.jump_target(decoded)
        if target.is_top:
            findings.append(Finding(
                "selfmod-reachability", "selfmod", Severity.WARNING,
                decoded.pc, "indirect jump with unresolvable target",
                {},
            ))
            continue
        hits = [
            store_pc for store_pc, interval in stored
            if not interval.is_top and (
                (target.lo is not None and interval.contains(target.lo))
                or (interval.lo is not None and target.contains(interval.lo))
            )
        ]
        if hits:
            findings.append(Finding(
                "selfmod-reachability", "selfmod", Severity.ERROR,
                decoded.pc,
                "indirect jump targets a region this program writes "
                "(injected code would execute)",
                {"target": str(target), "stores": hits[:8]},
            ))
    return findings


@lint_pass("doorbell-flood")
def doorbell_flood(ctx: AnalysisContext) -> list[Finding]:
    """A ``DOORBELL`` inside a CFG cycle is the E4 interrupt flood."""
    findings = []
    loop_leaders = ctx.cfg.blocks_in_cycles()
    for leader in sorted(loop_leaders):
        block = ctx.cfg.blocks[leader]
        for decoded in block:
            if decoded.op is not Op.DOORBELL:
                continue
            bound = ctx.dataflow.loop_bound(leader)
            findings.append(Finding(
                "doorbell-flood", "doorbell-flood", Severity.ERROR,
                decoded.pc,
                "doorbell inside a loop (interrupt-flood shape)",
                {"loop_block": leader, "trip_bound": bound},
            ))
    return findings


@lint_pass("timing-probe")
def timing_probe(ctx: AnalysisContext) -> list[Finding]:
    """E2 idioms: RDCYCLE-bracketed loads, and cache-set walking loads."""
    findings = []
    brackets = 0
    first_pc: int | None = None
    reachable_leaders = ctx.cfg.reachable_blocks()
    for leader in sorted(reachable_leaders):
        block = ctx.cfg.blocks[leader]
        last_rdcycle: int | None = None  # register holding the open RDCYCLE
        loads_since = 0
        pairs: set[frozenset[int]] = set()   # {open_reg, close_reg} observed
        for decoded in block:
            ins = decoded.instruction
            if ins is None:
                continue
            if ins.op is Op.RDCYCLE:
                if last_rdcycle is not None and loads_since > 0:
                    pairs.add(frozenset({last_rdcycle, ins.rd}))
                last_rdcycle = ins.rd
                loads_since = 0
            elif ins.op is Op.LOAD:
                loads_since += 1
            elif ins.op is Op.SUB and frozenset({ins.rs1, ins.rs2}) in pairs:
                brackets += 1
                if first_pc is None:
                    first_pc = decoded.pc
    if brackets:
        findings.append(Finding(
            "timing-probe", "timing-probe", Severity.ERROR,
            first_pc if first_pc is not None else ctx.base_address,
            "RDCYCLE-bracketed loads measure memory latency "
            "(prime+probe shape)",
            {"bracket_count": brackets},
        ))

    # Cache-set walking: many line-aligned constant offsets off one base.
    for leader in sorted(reachable_leaders):
        block = ctx.cfg.blocks[leader]
        offsets_by_base: dict[int, set[int]] = {}
        pcs_by_base: dict[int, int] = {}
        for decoded in block:
            ins = decoded.instruction
            if ins is not None and ins.op is Op.LOAD:
                offsets_by_base.setdefault(ins.rs1, set()).add(ins.imm)
                pcs_by_base.setdefault(ins.rs1, decoded.pc)
        for base, offsets in offsets_by_base.items():
            lines = {off // ctx.line_words for off in offsets
                     if off % ctx.line_words == 0}
            if len(lines) >= _PRIME_MIN_LINES and len(offsets) >= _PRIME_MIN_LINES:
                findings.append(Finding(
                    "timing-probe", "timing-probe", Severity.WARNING,
                    pcs_by_base[base],
                    "strided loads walk many cache lines from one base "
                    "(cache-priming shape)",
                    {"base_register": base, "distinct_lines": len(lines)},
                ))
                break
    return findings


@lint_pass("halting")
def halting(ctx: AnalysisContext) -> list[Finding]:
    """Structural hygiene: exits, reachability, decode validity."""
    findings = []
    if ctx.decoded and not ctx.cfg.has_reachable_exit():
        findings.append(Finding(
            "halting", "halting", Severity.WARNING, ctx.base_address,
            "no reachable HALT or WFI: the program cannot exit cleanly",
            {},
        ))
    for leader in sorted(ctx.cfg.unreachable_blocks()):
        findings.append(Finding(
            "halting", "halting", Severity.WARNING, leader,
            "unreachable code", {"block": leader},
        ))
    for decoded in ctx.decoded:
        if not decoded.valid:
            severity = (Severity.ERROR if ctx.reachable(decoded)
                        else Severity.WARNING)
            findings.append(Finding(
                "halting", "halting", severity, decoded.pc,
                f"invalid instruction word: {decoded.error}",
                {"word": decoded.word},
            ))
    for decoded in ctx.cfg.escaping_jumps():
        if ctx.reachable(decoded):
            findings.append(Finding(
                "halting", "halting", Severity.WARNING, decoded.pc,
                "control flow leaves the loaded image",
                {"targets": decoded.static_targets()},
            ))
    return findings


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

@dataclass
class AnalysisReport:
    """Everything the pipeline learned about one guest binary."""

    name: str
    profile: str
    base_address: int
    instructions: int
    findings: list[Finding]
    passes_run: list[str]

    def by_severity(self, severity: Severity) -> list[Finding]:
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> list[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Finding]:
        return self.by_severity(Severity.WARNING)

    @property
    def clean(self) -> bool:
        """No error-severity findings: admissible under ``enforce``."""
        return not self.errors

    def categories(self) -> set[str]:
        return {f.category for f in self.findings}

    def error_categories(self) -> set[str]:
        return {f.category for f in self.errors}

    @property
    def flows(self) -> list[Finding]:
        """Information-flow findings (any severity) — the taint verdict."""
        return [f for f in self.findings if f.pass_name == "taint-flows"]

    @property
    def no_flows(self) -> bool:
        """True when the taint pass proved zero secret→egress flows."""
        return not self.flows

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "profile": self.profile,
            "base_address": self.base_address,
            "instructions": self.instructions,
            "clean": self.clean,
            "no_flows": self.no_flows,
            "passes": list(self.passes_run),
            "findings": [f.to_dict() for f in self.findings],
            "flows": [
                {
                    "kind": f.detail["kind"],
                    "labels": list(f.detail["labels"]),
                    "severity": str(f.severity),
                    "sink_pc": f.pc,
                    "witness": list(f.detail["witness"]),
                }
                for f in self.flows
            ],
        }


#: Bounded report cache: identical guest images (same words, same analysis
#: parameters) skip the whole pipeline on re-admission.
_CACHE_CAP = 128
_CACHE: "OrderedDict[tuple, AnalysisReport]" = OrderedDict()
_CACHE_STATS = {"hits": 0, "misses": 0, "uncacheable": 0}


def analysis_cache_stats() -> dict[str, int]:
    """Hit/miss counters for the :func:`analyze_program` report cache."""
    return {**_CACHE_STATS, "entries": len(_CACHE)}


def reset_analysis_cache() -> None:
    _CACHE.clear()
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def _image_digest(
    source: Program | Sequence[int] | Iterable[Instruction],
) -> str | None:
    """Digest of the program image, when the source is already words.

    Instruction lists may carry unresolved labels, so they are analyzed
    uncached rather than half-assembled here.  Each word is digested as
    the 64-bit word DRAM would hold, as the decoder reads it."""
    if isinstance(source, Program):
        words: Sequence[int] = source.words
    elif isinstance(source, (list, tuple)) and all(
            isinstance(word, int) for word in source):
        words = source
    else:
        return None
    hasher = hashlib.sha256()
    for word in words:
        hasher.update((int(word) & WORD_MASK).to_bytes(8, "little"))
    return hasher.hexdigest()


def _copy_report(report: AnalysisReport) -> AnalysisReport:
    return replace(report, findings=list(report.findings),
                   passes_run=list(report.passes_run))


def analyze_program(
    source: Program | Sequence[int] | Iterable[Instruction],
    *,
    name: str = "guest",
    base_address: int = 0,
    profile: str = PROFILE_GUILLOTINE,
    code_frames: range | None = None,
    line_words: int = _LINE_WORDS,
    passes: Sequence[str] | None = None,
    sources: "SourceSinkModel | None" = None,
) -> AnalysisReport:
    """Run the full pipeline over one guest binary.

    ``source`` may be an assembled :class:`~repro.hw.isa.Program`, raw
    64-bit instruction words, or a list of :class:`Instruction` objects.
    ``code_frames`` — when the loader knows which physical frames the code
    pages will occupy — sharpens MAP-alias detection.  ``sources`` feeds
    the information-flow pass a concrete secret/egress layout; the default
    is the timer-only model.

    Results are cached by image digest and analysis parameters, so
    re-admitting an identical guest image skips re-analysis entirely.
    """
    # Importing the taint module registers its pass; deferred to avoid an
    # import cycle (taint imports this module's registry machinery).
    import repro.analysis.taint  # noqa: F401

    digest = _image_digest(source)
    cache_key: tuple | None = None
    if digest is not None:
        cache_key = (
            digest, name, base_address, profile,
            (code_frames.start, code_frames.stop)
            if code_frames is not None else None,
            line_words,
            tuple(passes) if passes is not None else None,
            sources.cache_key() if sources is not None else None,
        )
        cached = _CACHE.get(cache_key)
        if cached is not None:
            _CACHE_STATS["hits"] += 1
            _CACHE.move_to_end(cache_key)
            return _copy_report(cached)
        _CACHE_STATS["misses"] += 1
    else:
        _CACHE_STATS["uncacheable"] += 1

    decoded = decode_stream(source, base_address)
    cfg = build_cfg(decoded, base_address)
    dataflow = run_dataflow(cfg)
    code_pages = max(1, (len(decoded) + PAGE_SIZE - 1) // PAGE_SIZE)
    ctx = AnalysisContext(
        decoded=decoded,
        cfg=cfg,
        dataflow=dataflow,
        profile=profile,
        base_address=base_address,
        code_start=base_address,
        code_stop=base_address + code_pages * PAGE_SIZE,
        code_frames=code_frames,
        line_words=line_words,
        sources=sources,
    )
    registry = registered_passes()
    selected = list(registry) if passes is None else list(passes)
    findings: list[Finding] = []
    for pass_name in selected:
        findings.extend(registry[pass_name](ctx))
    findings.sort(key=lambda f: (-int(f.severity), f.pc))
    report = AnalysisReport(
        name=name,
        profile=profile,
        base_address=base_address,
        instructions=len(decoded),
        findings=findings,
        passes_run=selected,
    )
    if cache_key is not None:
        _CACHE[cache_key] = _copy_report(report)
        while len(_CACHE) > _CACHE_CAP:
            _CACHE.popitem(last=False)
    return report
