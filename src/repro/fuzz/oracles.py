"""The six differential oracles behind ``repro fuzz``.

Every generated program is executed several ways and the outcomes are
compared:

**Oracle 1 — engine equivalence.**  The fused fast-path interpreter
(:class:`repro.hw.core.Core` with ``fast_path=True``) and the reference
interpreter (``fast_path=False``) must be *cycle- and state-bit-identical*:
same retired-instruction count, same architectural registers, same faults,
same simulated cycle count, same memory contents, same audit-log hash chain.
The only permitted differences are Python-cost counters (``decoded_hits``,
``tlb_fastpath_hits``, …), which are deliberately excluded from the record.

**Oracle 2 — machine agreement.**  For *benign* programs — no
machine-distinguishing instructions, no faults on either side — the
Guillotine machine and the traditional baseline must agree on architectural
state.  When exactly one machine faults, that is *containment asymmetry*
(e.g. the locked Guillotine MMU makes code pages execute-only, so a LOAD
from the code image faults under Guillotine but reads fine on the
baseline); asymmetry is expected behaviour, recorded as coverage, never a
violation.

**Oracle 3 — verdict consistency.**  The static analyzer's verdict must be
consistent with runtime behaviour: admission control (``enforce``) rejects
exactly the programs whose report carries errors, and *no program — admitted
or not — may ever reach a forbidden state on the Guillotine machine*: the
locked code image is immutable, the executable-page set never grows,
hypervisor DRAM is never touched, and the MMU stays locked.  Those runtime
invariants are precisely the paper's containment claims, so a flagged
program that *attempts* its flagged action is either faulted or leaves no
architectural trace.

**Oracle 4 — taint soundness (noninterference).**  The information-flow
analyzer (:mod:`repro.analysis.taint`) runs in *may* mode over the fuzz
source/sink model: the last data page is a secret (weight) window, the
shared-IO window is egress, ``RDCYCLE`` is a timing source.  The program
is then executed twice on the Guillotine machine with the IO window
mapped, differing **only** in the secret page's contents, and everything
the hypervisor/world can observe — IO-window bytes, doorbell counts,
cycle count, step count, end state, fault count, timer fires, the audit
log — is compared.  If the analyzer certified *zero* flows, the two runs
must be observably identical; any difference is a static-analysis
soundness bug.  When the analyzer does report flows, differing
observables are expected (``taint:interference`` coverage) and identical
observables just mean the over-approximation was conservative.

**Oracle 5 — migration equivalence.**  Every program is additionally run
with a mid-flight interruption: after :data:`MIGRATION_SPLIT_STEPS` steps
the machine is checkpointed (:mod:`repro.fleet.checkpoint`), the artifact
is JSON round-tripped exactly as a fleet migration would ship it, restored
onto a scrubbed machine that is not the source, fingerprint-equal to a
fresh build, and execution continues there.  The final record
must be cycle- and state-bit-identical to the uninterrupted run — the only
fields excluded are the audit-log length/digest, because the restored
machine's log legitimately starts a new hash chain (the old one cannot be
replayed, by design).

**Oracle 6 — lockstep batch equivalence.**  The two noninterference
probe lanes (same program, different secret fills) are additionally
executed *together* through the lockstep SIMD batch engine
(:class:`repro.hw.batch.LockstepBatch`), and every lane's full execution
record — cycles, registers, faults, memory digests, audit log, IO bytes —
must be bit-identical to the scalar probe runs.  Divergence handling
(mask splits, scalar peels, re-convergence, deferred lanes) is exactly
the machinery this oracle stresses: a program whose secret-dependent
branch splits the mask must still finish with every lane
indistinguishable from its scalar twin.  Coverage tokens
(``batch:uniform``, ``batch:divergence``, ``batch:reform``,
``batch:defer``, ``batch:fallback``) record which paths the engine took.

All comparisons run on deliberately small machines (one model core, a few
DRAM pages) so a fuzz campaign costs milliseconds per program.  Each run
leases its machine (:func:`repro.hw.machine.lease_machine`): scrubbed
spares, so a process builds only the three it holds at once.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.analysis.taint import SourceSinkModel, analyze_taint
from repro.errors import GuestRejected
from repro.fuzz.gen import DATA_PAGES, IO_PAGES, SECRET_VADDR
from repro.hw.core import Core
from repro.hw.isa import Op, Program
from repro.hw.machine import (
    Machine,
    MachineConfig,
    build_baseline_machine,
    build_guillotine_machine,
    lease_machine,
    release_machine,
)
from repro.hw.memory import PAGE_SIZE, words_digest

#: Default per-run step budget; generated loops are bounded well below it.
DEFAULT_MAX_STEPS = 600

#: Terminal core states a fuzzed run may legitimately end in.
ALLOWED_END_STATES = frozenset(
    {"HALTED", "FAULTED", "RUNNING", "WFI", "PAUSED"}
)

#: Static presence of any of these ops disqualifies a program from the
#: cross-machine architectural comparison: they read the clock, depend on
#: machine wiring (doorbells, devices, MMU lockdown), or park the core.
MACHINE_SENSITIVE_OPS = frozenset(
    {
        "RDCYCLE", "DOORBELL", "IORD", "IOWR", "MAP", "UNMAP",
        "SETTIMER", "WFI", "IRET", "INVALID",
    }
)

#: ExecutionRecord fields compared by oracle 1 (everything observable).
ENGINE_COMPARE_FIELDS = (
    "steps", "state", "pc", "registers", "cycles",
    "instructions_retired", "faults", "last_fault", "timer_fires",
    "mmu_locked", "exec_vpns", "code_digest", "data_digest", "hv_digest",
    "log_len", "log_digest", "doorbell_accepted", "doorbell_throttled",
)

#: ExecutionRecord fields compared by oracle 2 on benign programs.  Cycle
#: counts and fault text are machine-specific (different cache hierarchies,
#: different bank names) and are deliberately absent.
CROSS_COMPARE_FIELDS = (
    "steps", "state", "pc", "registers", "instructions_retired",
    "faults", "data_digest",
)

#: ExecutionRecord fields compared by oracle 5 (checkpoint/restore).  The
#: audit log is excluded by design: a restored machine starts a fresh hash
#: chain, so its length and digest legitimately differ.
CHECKPOINT_COMPARE_FIELDS = tuple(
    name for name in ENGINE_COMPARE_FIELDS
    if name not in ("log_len", "log_digest")
)

#: Step count after which oracle 5 checkpoints the run.  Deep enough that
#: generated hot loops have trace-compiled and warmed the TLB/caches, small
#: enough that most programs are still mid-flight.
MIGRATION_SPLIT_STEPS = 37


#: The fuzz layout's source/sink model, derived from the concrete machine:
#: code page 0 -> frame 0, data pages -> frames 1..DATA_PAGES, the last
#: data page is the secret (weight) window, and the shared-IO window sits
#: at frames ``model_dram_pages..`` under the model core's physical map.
FUZZ_SOURCES = SourceSinkModel.for_guest_layout(
    code_pages=1,
    data_pages=DATA_PAGES,
    secret_data_pages=1,
    io_pages=IO_PAGES,
    data_base_frame=1,
    io_base_frame=64,   # model_dram_pages in fuzz_guillotine_config()
)

#: Deterministic non-zero fill planted into the secret page by the second
#: noninterference probe (golden-ratio multiplicative pattern).
_SECRET_STRIDE = 0x9E3779B97F4A7C15


def fuzz_guillotine_config() -> MachineConfig:
    """Small Guillotine machine used for every fuzz execution."""
    return MachineConfig(
        n_model_cores=1, n_hv_cores=1,
        model_dram_pages=64, hv_dram_pages=16, io_dram_pages=4,
    )


def fuzz_baseline_config() -> MachineConfig:
    """Matching traditional-baseline machine (shared core, shared DRAM)."""
    return MachineConfig(
        n_model_cores=1, n_hv_cores=0,
        model_dram_pages=64, hv_dram_pages=16, io_dram_pages=4,
    )


#: The hv-bank digest of every fuzz run: the hypervisor's DRAM stays zero.
_ZERO_HV_DIGEST = words_digest(
    [0] * (fuzz_guillotine_config().hv_dram_pages * PAGE_SIZE))


@dataclass(frozen=True)
class ExecutionRecord:
    """Everything observable about one program execution.

    The record captures *simulated* architecture only; Python-cost counters
    (decoded-cache hits, TLB fast-path hits) are excluded by construction
    because the two engines legitimately differ on them.
    """

    machine: str            # "guillotine" | "baseline"
    engine: str             # "fast" | "reference"
    steps: int
    state: str
    pc: int
    registers: tuple[int, ...]
    cycles: int
    instructions_retired: int
    faults: int
    last_fault: str | None
    timer_fires: int
    mmu_locked: bool
    exec_vpns: tuple[int, ...]
    code_digest: str
    data_digest: str
    hv_digest: str | None
    log_len: int
    log_digest: str
    doorbell_accepted: int
    doorbell_throttled: int

    def to_dict(self) -> dict:
        return {
            "machine": self.machine,
            "engine": self.engine,
            "steps": self.steps,
            "state": self.state,
            "pc": self.pc,
            "registers": list(self.registers),
            "cycles": self.cycles,
            "instructions_retired": self.instructions_retired,
            "faults": self.faults,
            "last_fault": self.last_fault,
            "timer_fires": self.timer_fires,
            "mmu_locked": self.mmu_locked,
            "exec_vpns": list(self.exec_vpns),
            "code_digest": self.code_digest,
            "data_digest": self.data_digest,
            "hv_digest": self.hv_digest,
            "log_len": self.log_len,
            "log_digest": self.log_digest,
            "doorbell_accepted": self.doorbell_accepted,
            "doorbell_throttled": self.doorbell_throttled,
        }


@dataclass(frozen=True)
class OracleViolation:
    """One oracle disagreement: which oracle, why, and the field deltas."""

    #: "engine" | "machine" | "verdict" | "taint" | "migration" | "batch"
    oracle: str
    reason: str
    mismatches: tuple[tuple[str, str, str], ...] = ()

    def to_dict(self) -> dict:
        return {
            "oracle": self.oracle,
            "reason": self.reason,
            "mismatches": [
                {"field": field, "expected": expected, "actual": actual}
                for field, expected, actual in self.mismatches
            ],
        }


@dataclass(frozen=True)
class ProgramOutcome:
    """The full differential verdict for one program."""

    words: tuple[int, ...]
    fast: ExecutionRecord
    reference: ExecutionRecord
    baseline: ExecutionRecord
    analyzer_errors: tuple[str, ...]
    analyzer_warnings: tuple[str, ...]
    admitted: bool | None   # None when admission was skipped
    cross_compared: bool
    violations: tuple[OracleViolation, ...]
    coverage: frozenset[str]
    #: Flow kinds the *definite-mode* taint pass reported (report-grade).
    taint_flows: tuple[str, ...] = ()
    #: ``True`` = may-mode analysis certified zero flows AND the two
    #: secret-differing probes were observably identical; ``False`` =
    #: flows were predicted (no claim); ``None`` = probes skipped.
    noninterference: bool | None = None

    @property
    def clean(self) -> bool:
        return not self.violations


#: Hypervisor/world-observable fields compared by the noninterference
#: probe.  Registers and the data-page digest are deliberately absent:
#: a guest may hold its own secrets privately — only *egress* must match.
NONINTERFERENCE_FIELDS = (
    "state", "steps", "cycles", "faults", "timer_fires",
    "doorbell_accepted", "doorbell_throttled", "log_len", "log_digest",
)


@dataclass(frozen=True)
class ProbeObservation:
    """What the hypervisor/world can see of one noninterference probe."""

    state: str
    steps: int
    cycles: int
    faults: int
    timer_fires: int
    doorbell_accepted: int
    doorbell_throttled: int
    log_len: int
    log_digest: str
    io_digest: str


def secret_fill(variant: int) -> list[int]:
    """The secret-page contents for probe ``variant`` (0 = all zeros)."""
    if variant == 0:
        return [0] * PAGE_SIZE
    mask = (1 << 64) - 1
    return [(_SECRET_STRIDE * (variant + index + 1)) & mask
            for index in range(PAGE_SIZE)]


def boot_program(machine: Machine, words: Sequence[int], *,
                 variant: int | None = None) -> tuple[Machine, Core, int]:
    """Start ``words`` on ``machine`` under the fixed fuzz layout: one code
    page at vaddr 0 (locked down on the Guillotine machine),
    :data:`~repro.fuzz.gen.DATA_PAGES` data pages at
    :data:`~repro.fuzz.gen.DATA_VADDR`.  The shared IO window is mapped
    only for a noninterference probe (``variant`` given, secret page filled
    with :func:`secret_fill`), so both machine kinds otherwise expose an
    identical virtual address space.  Returns the machine, the started
    core, and the number of code pages."""
    if len(words) > PAGE_SIZE:
        raise ValueError(f"fuzz programs are capped at {PAGE_SIZE} words")
    core = machine.model_cores[0]
    layout = machine.load_program(
        core, Program(list(words), {}), data_pages=DATA_PAGES,
        map_io_region=variant is not None,
    )
    if variant is not None:
        # Under the fuzz layout the mapping is identity (code frame 0, data
        # frames 1..DATA_PAGES), so the secret page's physical bank address
        # equals SECRET_VADDR.  The fill is planted directly into the bank
        # (no bus traffic, no log events), so two probes differ in
        # *nothing* but the secret bytes.
        machine.banks["model_dram"].load_words(
            SECRET_VADDR, secret_fill(variant))
    if machine.control_bus is not None:
        machine.control_bus.lockdown_mmu(
            core.name, 0, layout["code_pages"] - 1
        )
    core.resume()
    return machine, core, layout["code_pages"]


def _lease(stack: ExitStack, machine_kind: str = "guillotine",
           engine: str = "trace") -> Machine:
    """Lease a fuzz machine that ``stack`` releases when it exits."""
    if machine_kind == "guillotine":
        machine = lease_machine(
            build_guillotine_machine, fuzz_guillotine_config(), engine)
    elif machine_kind == "baseline":
        machine = lease_machine(
            build_baseline_machine, fuzz_baseline_config(), engine)
    else:
        raise ValueError(f"unknown machine kind {machine_kind!r}")
    stack.callback(release_machine, machine)
    return machine


def _probe_observation(machine, core, steps: int) -> ProbeObservation:
    """Capture what the hypervisor/world can see of a finished probe."""
    io_bank = machine.banks["io_dram"]
    last = machine.log.last()
    lapic = machine.lapics.get("hv_core0")
    return ProbeObservation(
        state=core.state.name,
        steps=steps,
        cycles=machine.clock.now,
        faults=core.faults,
        timer_fires=core.timer_fires,
        doorbell_accepted=lapic.accepted if lapic is not None else 0,
        doorbell_throttled=lapic.throttled if lapic is not None else 0,
        log_len=len(machine.log),
        log_digest=last.digest if last is not None else "",
        io_digest=io_bank.digest(),
    )


def noninterference_probe(
    words: Sequence[int],
    variant: int,
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ProbeObservation:
    """Execute ``words`` on the Guillotine machine with the IO window
    mapped and the secret page pre-filled with :func:`secret_fill`."""
    return _scalar_probe(words, variant, max_steps=max_steps)[0]


def _scalar_probe(
    words: Sequence[int], variant: int, *, max_steps: int
) -> tuple[ProbeObservation, ExecutionRecord]:
    """One scalar probe run, captured both ways: the noninterference
    observation (oracle 4) and the full execution record (oracle 6's
    bit-identity reference)."""
    with ExitStack() as stack:
        machine, core, code_pages = boot_program(
            _lease(stack), words, variant=variant)
        steps = core.run(max_steps=max_steps)
        return (
            _probe_observation(machine, core, steps),
            _capture_record(machine, "guillotine", "scalar-probe",
                            core, steps, code_pages),
        )


def batch_noninterference_probes(
    words: Sequence[int],
    variants: Sequence[int] = (0, 1),
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
):
    """Run the secret-fill probes as lockstep batch lanes (oracle 6).

    Leases one probe machine per ``variants`` entry — exactly the lanes
    :func:`noninterference_probe` would run one at a time — and executes
    them through :class:`repro.hw.batch.LockstepBatch`.  Returns
    ``(observations, records, stats)``: per-lane probe observations,
    per-lane full execution records (engine ``"batch"``), and the batch
    telemetry (divergence/rejoin/fallback counters used for coverage).
    """
    from repro.hw.batch import LockstepBatch

    with ExitStack() as stack:
        lanes = [boot_program(_lease(stack), words, variant=variant)
                 for variant in variants]
        batch = LockstepBatch([core for _, core, _ in lanes])
        result = batch.run(max_steps=max_steps)
        observations = []
        records = []
        for (machine, core, code_pages), steps in zip(lanes, result.steps):
            observations.append(_probe_observation(machine, core, steps))
            records.append(_capture_record(machine, "guillotine", "batch",
                                           core, steps, code_pages))
    return observations, records, result.stats


def execute_program(
    words: Sequence[int],
    *,
    machine_kind: str = "guillotine",
    fast_path: bool = True,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionRecord:
    """Run ``words`` under the fuzz layout (:func:`boot_program`) and
    capture an execution record.  The fast engine runs traces too."""
    with ExitStack() as stack:
        machine, core, code_pages = boot_program(
            _lease(stack, machine_kind,
                   "trace" if fast_path else "reference"), words)
        steps = core.run(max_steps=max_steps)
        return _capture_record(machine, machine_kind,
                               "fast" if fast_path else "reference",
                               core, steps, code_pages)


def _capture_record(machine, machine_kind: str, engine: str, core,
                    steps: int, code_pages: int) -> ExecutionRecord:
    """Snapshot everything observable about a finished run."""
    bank = machine.banks.get("model_dram") or machine.banks["shared_dram"]
    hv_bank = machine.banks.get("hv_dram")
    last = machine.log.last()
    lapic = machine.lapics.get("hv_core0")
    return ExecutionRecord(
        machine=machine_kind,
        engine=engine,
        steps=steps,
        state=core.state.name,
        pc=core.pc,
        registers=tuple(core.registers),
        cycles=machine.clock.now,
        instructions_retired=core.instructions_retired,
        faults=core.faults,
        last_fault=core.last_fault,
        timer_fires=core.timer_fires,
        mmu_locked=core.mmu.locked,
        exec_vpns=tuple(sorted(core.mmu.executable_vpns())),
        code_digest=bank.digest(0, code_pages * PAGE_SIZE),
        data_digest=bank.digest(code_pages * PAGE_SIZE,
                                DATA_PAGES * PAGE_SIZE),
        hv_digest=hv_bank.digest() if hv_bank is not None else None,
        log_len=len(machine.log),
        log_digest=last.digest if last is not None else "",
        doorbell_accepted=lapic.accepted if lapic is not None else 0,
        doorbell_throttled=lapic.throttled if lapic is not None else 0,
    )


def migration_probe(
    words: Sequence[int],
    *,
    split: int = MIGRATION_SPLIT_STEPS,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> ExecutionRecord:
    """Run ``words`` with a mid-flight checkpoint/restore migration.

    The run is interrupted after ``split`` steps, checkpointed, JSON
    round-tripped (exactly what a fleet migration ships over the wire),
    restored onto a scrubbed machine that is not the source,
    fingerprint-equal to a fresh build, and continued there.  The second leg
    runs only when the first leg stopped on its ``split`` budget — an
    early break (halt, fault, WFI park, or a wake-up check that finds the
    parked core still asleep) is the run's final state, which is
    precisely what an uninterrupted ``run(max_steps)`` would have returned.
    """
    import json

    from repro.fleet.checkpoint import capture_checkpoint, restore_checkpoint

    with ExitStack() as stack:
        machine, core, code_pages = boot_program(_lease(stack), words)
        split = min(split, max_steps)
        progress = core.instructions_retired + core.faults
        steps = core.run(max_steps=split)
        # ``Core.run`` counts the wake-up check on a parked (WFI) core as a
        # step and stops after it.  A counted step that neither retired an
        # instruction nor raised a fault is that check, so a leg that took one
        # stopped on its own, not on its budget, even when ``steps == split``.
        woke_and_parked = core.instructions_retired + core.faults - progress < steps

        checkpoint = json.loads(json.dumps(capture_checkpoint(machine)))
        # Leased while the source is still held, so the target is another
        # machine and only the checkpoint carries state across.
        target = _lease(stack)
        restore_checkpoint(target, checkpoint)
        migrated_core = target.model_cores[0]
        if steps == split and not woke_and_parked and split < max_steps:
            steps += migrated_core.run(max_steps=max_steps - split)
        return _capture_record(target, "guillotine", "migrated",
                               migrated_core, steps, code_pages)


def _compare(expected: ExecutionRecord, actual: ExecutionRecord,
             fields: Iterable[str]) -> tuple[tuple[str, str, str], ...]:
    mismatches = []
    for name in fields:
        left = getattr(expected, name)
        right = getattr(actual, name)
        if left != right:
            mismatches.append((name, repr(left), repr(right)))
    return tuple(mismatches)


def _static_ops(words: Sequence[int]) -> frozenset[str]:
    ops = set()
    for word in words:
        opcode = (word >> 56) & 0xFF
        try:
            ops.add(Op(opcode).name)
        except ValueError:
            ops.add("INVALID")
    return frozenset(ops)


def _fault_class(message: str | None) -> str | None:
    """Coarse fault classification for coverage tokens (addresses vary)."""
    if message is None:
        return None
    lowered = message.lower()
    if "division by zero" in lowered:
        return "div0"
    if "lock" in lowered or "alias" in lowered:
        return "lockdown"
    if ("opcode" in lowered or "not implemented" in lowered
            or "doorbell wiring" in lowered or "iret" in lowered):
        return "invalid"
    return "memfault"


def _check_admission(words: Sequence[int]) -> bool:
    """Load the program through verified admission control; ``True`` means
    the hypervisor admitted it."""
    from repro.hv.hypervisor import GuillotineHypervisor

    with ExitStack() as stack:
        hypervisor = GuillotineHypervisor(_lease(stack),
                                          verify_guests="enforce")
        try:
            hypervisor.load_guest(
                Program(list(words), {}), name="fuzzed",
                data_pages=DATA_PAGES, map_io_region=False,
                sources=FUZZ_SOURCES,
            )
        except GuestRejected:
            return False
        return True


def check_program(
    words: Sequence[int],
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
    admission: bool = True,
    expected_code_digest: str | None = None,
) -> ProgramOutcome:
    """Run every oracle over one program and return the combined verdict."""
    from repro.analysis import analyze_program

    words = tuple(word & ((1 << 64) - 1) for word in words)
    fast = execute_program(words, fast_path=True, max_steps=max_steps)
    reference = execute_program(words, fast_path=False, max_steps=max_steps)
    baseline = execute_program(
        words, machine_kind="baseline", fast_path=True, max_steps=max_steps
    )
    report = analyze_program(words, name="fuzzed", sources=FUZZ_SOURCES)
    analyzer_errors = tuple(sorted({f.category for f in report.errors}))
    analyzer_warnings = tuple(sorted({f.category for f in report.warnings}))
    taint_flows = tuple(sorted({f.detail["kind"] for f in report.flows}))

    violations: list[OracleViolation] = []
    coverage: set[str] = set()

    # -- oracle 1: engine equivalence ----------------------------------
    engine_deltas = _compare(reference, fast, ENGINE_COMPARE_FIELDS)
    if engine_deltas:
        violations.append(OracleViolation(
            oracle="engine",
            reason="fast path diverged from the reference interpreter",
            mismatches=engine_deltas,
        ))

    # -- oracle 2: machine agreement -----------------------------------
    static_ops = _static_ops(words)
    benign = (
        not (static_ops & MACHINE_SENSITIVE_OPS)
        and fast.faults == 0
        and baseline.faults == 0
    )
    if benign:
        cross_deltas = _compare(fast, baseline, CROSS_COMPARE_FIELDS)
        if cross_deltas:
            violations.append(OracleViolation(
                oracle="machine",
                reason="guillotine and baseline disagree on a benign program",
                mismatches=cross_deltas,
            ))
        else:
            coverage.add("machines:agree")
    elif (fast.faults == 0) != (baseline.faults == 0):
        # Expected containment asymmetry (lockdown, missing doorbell wiring,
        # forbidden IO, …) — coverage signal, not a violation.
        coverage.add("machines:asymmetry")

    # -- oracle 3: verdict consistency ---------------------------------
    verdict_deltas: list[tuple[str, str, str]] = []
    if fast.state not in ALLOWED_END_STATES:
        verdict_deltas.append(
            ("state", "one of " + "/".join(sorted(ALLOWED_END_STATES)),
             fast.state)
        )
    if not fast.mmu_locked:
        verdict_deltas.append(("mmu_locked", "True", repr(fast.mmu_locked)))
    if fast.exec_vpns != (0,):
        verdict_deltas.append(("exec_vpns", "(0,)", repr(fast.exec_vpns)))
    if expected_code_digest is None:
        expected_code_digest = words_digest(
            list(words) + [0] * (PAGE_SIZE - len(words)))
    if fast.code_digest != expected_code_digest:
        verdict_deltas.append(
            ("code_digest", expected_code_digest, fast.code_digest)
        )
    if fast.hv_digest != _ZERO_HV_DIGEST:
        verdict_deltas.append(
            ("hv_digest", _ZERO_HV_DIGEST, str(fast.hv_digest)))
    admitted: bool | None = None
    if admission:
        admitted = _check_admission(words)
        should_admit = not analyzer_errors
        if admitted != should_admit:
            verdict_deltas.append(
                ("admitted", repr(should_admit), repr(admitted))
            )
    if verdict_deltas:
        violations.append(OracleViolation(
            oracle="verdict",
            reason="analyzer verdict inconsistent with runtime containment",
            mismatches=tuple(verdict_deltas),
        ))

    # -- oracle 4: taint soundness (noninterference) -------------------
    may_result = analyze_taint(words, model=FUZZ_SOURCES, may_mode=True)
    probe_a, record_a = _scalar_probe(words, 0, max_steps=max_steps)
    probe_b, record_b = _scalar_probe(words, 1, max_steps=max_steps)
    probe_deltas = tuple(
        (name, repr(getattr(probe_a, name)), repr(getattr(probe_b, name)))
        for name in NONINTERFERENCE_FIELDS + ("io_digest",)
        if getattr(probe_a, name) != getattr(probe_b, name)
    )
    noninterference: bool | None
    if may_result.clean:
        noninterference = not probe_deltas
        if probe_deltas:
            violations.append(OracleViolation(
                oracle="taint",
                reason="analyzer certified zero flows but two runs "
                       "differing only in the secret page are "
                       "distinguishable (static taint unsoundness)",
                mismatches=probe_deltas,
            ))
        else:
            coverage.add("taint:noninterference")
    else:
        # Flows predicted: differing probes confirm the prediction,
        # identical probes just mean the over-approximation was safe.
        noninterference = False
        coverage.add("taint:interference" if probe_deltas
                     else "taint:overapprox")

    # -- oracle 5: migration (checkpoint/restore) equivalence ----------
    migrated = migration_probe(words, max_steps=max_steps)
    migration_deltas = _compare(fast, migrated, CHECKPOINT_COMPARE_FIELDS)
    if migration_deltas:
        violations.append(OracleViolation(
            oracle="migration",
            reason="mid-run checkpoint/restore diverged from "
                   "uninterrupted execution",
            mismatches=migration_deltas,
        ))
    else:
        coverage.add("migration:identical")

    # -- oracle 6: lockstep batch equivalence --------------------------
    batch_obs, batch_records, batch_stats = batch_noninterference_probes(
        words, (0, 1), max_steps=max_steps
    )
    batch_deltas: list[tuple[str, str, str]] = []
    for variant, (scalar_obs, scalar_rec, obs, rec) in enumerate(
        zip((probe_a, probe_b), (record_a, record_b),
            batch_obs, batch_records)
    ):
        for name, left, right in _compare(
            scalar_rec, rec, ENGINE_COMPARE_FIELDS
        ):
            batch_deltas.append((f"lane{variant}.{name}", left, right))
        if scalar_obs.io_digest != obs.io_digest:
            batch_deltas.append((
                f"lane{variant}.io_digest",
                scalar_obs.io_digest, obs.io_digest,
            ))
    if batch_deltas:
        violations.append(OracleViolation(
            oracle="batch",
            reason="lockstep batch execution diverged from scalar "
                   "execution of the same probe lanes",
            mismatches=tuple(batch_deltas),
        ))
    else:
        coverage.add("batch:identical")
    if batch_stats.fallback_reason or batch_stats.scalar_lanes:
        coverage.add("batch:fallback")
    if batch_stats.engaged_lanes:
        if batch_stats.suspends or batch_stats.peels:
            coverage.add("batch:divergence")
        else:
            coverage.add("batch:uniform")
    if batch_stats.rejoins:
        coverage.add("batch:reform")
    if batch_stats.defers:
        coverage.add("batch:defer")

    # -- coverage tokens ----------------------------------------------
    coverage.add(f"state:{fast.state}")
    coverage.update(f"op:{name}" for name in static_ops)
    coverage.update(f"analyzer:{cat}" for cat in analyzer_errors)
    coverage.update(f"analyzer:warn:{cat}" for cat in analyzer_warnings)
    coverage.update(f"taint:flow:{kind}" for kind in taint_flows)
    fault = _fault_class(fast.last_fault)
    if fault is not None:
        coverage.add(f"fault:{fault}")
    if fast.timer_fires:
        coverage.add("timer:fired")
    if fast.doorbell_accepted:
        coverage.add("doorbell:accepted")
    if fast.doorbell_throttled:
        coverage.add("doorbell:throttled")
    if admitted is not None:
        coverage.add("admitted" if admitted else "rejected")

    return ProgramOutcome(
        words=words,
        fast=fast,
        reference=reference,
        baseline=baseline,
        analyzer_errors=analyzer_errors,
        analyzer_warnings=analyzer_warnings,
        admitted=admitted,
        cross_compared=benign,
        violations=tuple(violations),
        coverage=frozenset(coverage),
        taint_flows=taint_flows,
        noninterference=noninterference,
    )


def violation_predicate(
    oracles: frozenset[str],
    *,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Callable[[Sequence[int]], bool]:
    """Build a shrinker predicate: ``True`` while a candidate still violates
    every oracle in ``oracles`` (admission re-checked only when the original
    divergence involved the verdict oracle — it is by far the slowest)."""
    need_admission = "verdict" in oracles

    def predicate(candidate: Sequence[int]) -> bool:
        if not candidate:
            return False
        outcome = check_program(
            candidate, max_steps=max_steps, admission=need_admission
        )
        seen = {violation.oracle for violation in outcome.violations}
        return oracles <= seen

    return predicate
