"""Deterministic interpreter performance harness: ``python -m repro bench``.

The fast-path execution engine (docs/PERFORMANCE.md) is only allowed to
change *Python* cost — simulated virtual time must be bit-identical with
the fast path on or off.  This harness enforces that contract while
measuring the win: every benchmark is run

* twice with the fast path **on** (the two final cycle counts must match —
  the determinism check),
* once with the fast path **off**, through the reference interpreter
  (its final cycle count must equal the fast runs' — the equivalence
  check, and its wall time is the speedup denominator).

The suite is a fixed instruction mix exercised on **both** machines: an
ALU loop (pure register traffic), a memory stride (TLB + D-cache
pressure), a doorbell flood (event-queue pressure on the virtual clock),
and the full E1 bring-up harness (sandbox construction + the Figure-1
invariant sweep, Guillotine only — the baseline has no Figure-1 topology
to check).  Results are emitted as ``repro.bench/1`` JSON, written to a
file only when ``--out PATH`` names one.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

from repro.hw import isa
from repro.hw.core import Core
from repro.hw.isa import Program, assemble
from repro.hw.machine import (
    VECTOR_IO_REQUEST,
    MachineConfig,
    build_baseline_machine,
    build_guillotine_machine,
)

#: JSON schema identifier for the bench report (bump on incompatible change).
BENCH_SCHEMA = "repro.bench/1"


@contextmanager
def interpreter_mode(fast: bool):
    """Force every :class:`Core` built inside the block into one interpreter
    mode (machines are constructed per run, so the class default governs)."""
    previous = Core.fast_path
    Core.fast_path = fast
    try:
        yield
    finally:
        Core.fast_path = previous


@contextmanager
def trace_mode(enabled: bool):
    """Force trace compilation on or off for every :class:`Core` built
    inside the block (same class-default mechanism as
    :func:`interpreter_mode`).  Traces only engage under the fast path,
    so ``trace_mode(False)`` inside ``interpreter_mode(True)`` measures
    the decoded-cache fast path alone — the ``--traces off`` baseline the
    CI bench-smoke job compares cycles against."""
    previous = Core.trace_jit
    Core.trace_jit = enabled
    try:
        yield
    finally:
        Core.trace_jit = previous


# ---------------------------------------------------------------------------
# Workload programs
# ---------------------------------------------------------------------------

def alu_loop_program(iterations: int) -> Program:
    """Pure register arithmetic: add/xor/add per iteration plus the branch."""
    return assemble([
        isa.movi(1, 0),
        isa.movi(2, iterations),
        "loop",
        isa.addi(1, 1, 1),
        isa.xor(4, 1, 2),
        isa.add(3, 3, 4),
        isa.blt(1, 2, "loop"),
        isa.halt(),
    ])


def e1_warmup_program(iterations: int, mask: int) -> Program:
    """The E1 warm-up kernel: mixed register arithmetic and strided loads,
    shaped like real model inner-loop code (ALU work feeding addresses,
    a load per iteration, a running checksum).  Heavy enough that the E1
    row actually measures the interpreter instead of sandbox bring-up.
    r7 carries the data-region base (poked by the runner)."""
    return assemble([
        isa.movi(1, 0),              # loop counter
        isa.movi(2, iterations),
        isa.movi(8, mask),           # offset wrap mask (span - 1)
        isa.movi(9, 0),              # raw offset accumulator
        "loop",
        isa.and_(5, 9, 8),
        isa.add(6, 7, 5),
        isa.load(4, 6, 0),
        isa.add(3, 3, 4),            # running checksum
        isa.xor(10, 3, 1),
        isa.addi(9, 9, 17),
        isa.addi(1, 1, 1),
        isa.blt(1, 2, "loop"),
        isa.halt(),
    ])


def memory_stride_program(iterations: int, mask: int, stride: int = 17) -> Program:
    """Strided loads over the data region, wrapped by an AND mask.

    r7 carries the data-region base (poked by the runner); the stride is
    coprime with the page size so successive touches wander across pages
    and cache sets instead of pinning one line.
    """
    return assemble([
        isa.movi(1, 0),              # loop counter
        isa.movi(2, iterations),
        isa.movi(8, mask),           # offset wrap mask (span - 1)
        isa.movi(9, 0),              # raw offset accumulator
        "loop",
        isa.and_(5, 9, 8),
        isa.add(6, 7, 5),
        isa.load(4, 6, 0),
        isa.add(3, 3, 4),
        isa.addi(9, 9, stride),
        isa.addi(1, 1, 1),
        isa.blt(1, 2, "loop"),
        isa.halt(),
    ])


def batch_alu_program() -> Program:
    """Pure register arithmetic, shaped as an endless loop: the batch
    suite bounds every row by a step budget, not a halt."""
    return assemble([
        isa.movi(1, 7),
        isa.movi(3, 1),
        "loop",
        isa.add(2, 2, 1),
        isa.sub(4, 4, 3),
        isa.add(2, 2, 4),
        isa.xor(5, 2, 1),
        isa.add(6, 6, 5),
        isa.sub(2, 2, 3),
        isa.add(4, 4, 2),
        isa.and_(5, 5, 1),
        isa.add(6, 6, 3),
        isa.add(2, 2, 6),
        isa.bne(3, 0, "loop"),
    ])


def batch_memory_program() -> Program:
    """Store/load loop over the first fuzz data page (vaddr 64..127),
    offsets wrapped by an AND mask so no access ever faults."""
    return assemble([
        isa.movi(1, 0),               # word offset within the page
        isa.movi(6, 63),              # wrap mask
        isa.movi(5, 1),
        "loop",
        isa.store(2, 1, 64),
        isa.load(4, 1, 64),
        isa.add(2, 2, 4),
        isa.addi(1, 1, 8),
        isa.and_(1, 1, 6),
        isa.bne(5, 0, "loop"),
    ])


def batch_noninterference_program() -> Program:
    """The noninterference-probe shape: load the secret word, then loop
    over memory traffic with a secret-dependent branch.  Lanes whose
    secret is zero skip the divergent instruction, so a mixed-fill batch
    splits and re-forms (or defers) its mask every iteration — the
    divergence machinery is *in* the measured loop, as it is in real
    fuzz probe sweeps."""
    return assemble([
        isa.movi(1, 128),             # SECRET_VADDR under the fuzz layout
        isa.load(8, 1, 0),            # r8 = secret[0], kept pristine
        isa.add(2, 2, 8),             # r2 = running accumulator
        isa.movi(5, 1),
        isa.movi(6, 63),
        isa.movi(7, 0),
        "loop",
        isa.store(2, 7, 64),
        isa.load(4, 7, 64),
        isa.beq(8, 0, "join"),        # secret-dependent divergence
        isa.addi(4, 4, 3),            # divergent side (nonzero secrets)
        "join",
        isa.add(2, 2, 4),
        isa.xor(2, 2, 8),             # re-inject the secret: the affine
                                      # step alone collapses every lane
                                      # to the same fixed point mod 2^64
        isa.addi(7, 7, 8),
        isa.and_(7, 7, 6),
        isa.bne(5, 0, "loop"),
    ])


# ---------------------------------------------------------------------------
# Benchmark runners — each builds a fresh machine, runs, and reports
# ---------------------------------------------------------------------------

@dataclass
class RunSample:
    """One measured execution of one benchmark."""

    steps: int
    cycles: int
    wall_seconds: float
    decoded_hits: int
    decoded_misses: int
    trace_hits: int = 0
    trace_steps: int = 0
    trace_bailouts: int = 0


def _core_counters(cores) -> tuple[int, int]:
    hits = sum(core.decoded_hits for core in cores)
    misses = sum(core.decoded_misses for core in cores)
    return hits, misses


def _trace_counters(cores) -> tuple[int, int, int]:
    hits = sum(core.trace_hits for core in cores)
    steps = sum(core.trace_steps for core in cores)
    bailouts = sum(core.trace_bailouts for core in cores)
    return hits, steps, bailouts


def _run_single_core(machine, core, program: Program, *, pokes=None,
                     data_pages: int = 4, max_steps: int = 10_000_000,
                     install=None) -> RunSample:
    if install is not None:
        layout = install(program, data_pages)
    else:
        layout = machine.load_program(core, program, data_pages=data_pages)
    if pokes:
        for register, key in pokes.items():
            core.poke_register(register, layout[key])
    core.resume()
    start = time.perf_counter()
    steps = core.run(max_steps=max_steps)
    wall = time.perf_counter() - start
    hits, misses = _core_counters([core])
    trace_hits, trace_steps, trace_bailouts = _trace_counters([core])
    return RunSample(steps, machine.clock.now, wall, hits, misses,
                     trace_hits, trace_steps, trace_bailouts)


def _alu_loop(machine_name: str, iterations: int) -> RunSample:
    program = alu_loop_program(iterations)
    if machine_name == "guillotine":
        machine = build_guillotine_machine(
            MachineConfig(n_model_cores=1, n_hv_cores=1))
        return _run_single_core(machine, machine.model_cores[0], program)
    machine, hypervisor = _baseline()
    return _run_single_core(
        machine, hypervisor.guest_core, program,
        install=lambda p, d: hypervisor.install_guest(p, data_pages=d))


def _memory_stride(machine_name: str, iterations: int) -> RunSample:
    data_pages = 4
    mask = data_pages * 64 - 1  # data span in words, power of two
    program = memory_stride_program(iterations, mask)
    pokes = {7: "data_vaddr"}
    if machine_name == "guillotine":
        machine = build_guillotine_machine(
            MachineConfig(n_model_cores=1, n_hv_cores=1))
        return _run_single_core(machine, machine.model_cores[0], program,
                                pokes=pokes, data_pages=data_pages)
    machine, hypervisor = _baseline()
    return _run_single_core(
        machine, hypervisor.guest_core, program, pokes=pokes,
        data_pages=data_pages,
        install=lambda p, d: hypervisor.install_guest(p, data_pages=d))


def _doorbell_flood(machine_name: str, iterations: int) -> RunSample:
    from repro.model.programs import flood_program

    program = flood_program(iterations)
    if machine_name == "guillotine":
        machine = build_guillotine_machine(
            MachineConfig(n_model_cores=1, n_hv_cores=1))
        return _run_single_core(machine, machine.model_cores[0], program)
    machine, hypervisor = _baseline()
    core = hypervisor.guest_core
    lapic = machine.lapics[core.name]

    def _doorbell(source: str, payload: int) -> None:
        lapic.deliver(source, VECTOR_IO_REQUEST, payload)

    core.doorbell_handler = _doorbell
    return _run_single_core(
        machine, core, program,
        install=lambda p, d: hypervisor.install_guest(p, data_pages=d))


def _e1_harness(machine_name: str, iterations: int) -> RunSample:
    """Full E1: sandbox bring-up, a GISA warm-up kernel, model load,
    mediated service traffic, and the invariant sweep."""
    from repro.core.sandbox import GuillotineSandbox
    from repro.net.network import Host

    start = time.perf_counter()
    steps = 0
    cycles = 0
    hits = misses = 0
    thits = tsteps = tbails = 0
    for index in range(iterations):
        sandbox = GuillotineSandbox.create()
        machine = sandbox.machine
        # Real machine code through the fetch/translate path, on a spare
        # model core, before the console locks the MMUs down.
        core = machine.model_cores[-1]
        layout = machine.load_program(core, e1_warmup_program(1_500, 127),
                                      data_pages=3)
        core.poke_register(7, layout["data_vaddr"])
        core.resume()
        steps += core.run(max_steps=50_000)
        sandbox.network.attach(Host(f"bench-user-{index}"))
        sandbox.console.load_model(f"bench-model-{index}")
        service = sandbox.build_service(replicas=2)
        for query in range(4):
            service.submit(f"bench query {query}",
                           client_host=f"bench-user-{index}")
        service.drain()
        violations = sandbox.check_invariants()
        if violations:
            raise AssertionError(f"E1 invariants violated: {violations}")
        cores = machine.model_cores + machine.hv_cores
        steps += sum(c.instructions_retired for c in machine.hv_cores)
        cycles += machine.clock.now
        run_hits, run_misses = _core_counters(cores)
        hits += run_hits
        misses += run_misses
        run_thits, run_tsteps, run_tbails = _trace_counters(cores)
        thits += run_thits
        tsteps += run_tsteps
        tbails += run_tbails
    wall = time.perf_counter() - start
    return RunSample(steps, cycles, wall, hits, misses,
                     thits, tsteps, tbails)


def _baseline():
    from repro.baseline.hypervisor import TraditionalHypervisor

    machine = build_baseline_machine(
        MachineConfig(n_model_cores=1, n_hv_cores=0))
    return machine, TraditionalHypervisor(machine)


#: (name, machine, runner, full iterations, quick iterations).
SUITE = (
    ("alu_loop", "guillotine", _alu_loop, 20_000, 2_000),
    ("alu_loop", "baseline", _alu_loop, 20_000, 2_000),
    ("memory_stride", "guillotine", _memory_stride, 15_000, 1_500),
    ("memory_stride", "baseline", _memory_stride, 15_000, 1_500),
    ("doorbell_flood", "guillotine", _doorbell_flood, 1_000, 200),
    ("doorbell_flood", "baseline", _doorbell_flood, 1_000, 200),
    ("e1_harness", "guillotine", _e1_harness, 3, 1),
)


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

@dataclass
class BenchResult:
    """One benchmark's verdict: fast timings plus both safety checks."""

    name: str
    machine: str
    steps: int
    cycles: int
    wall_seconds: float
    slow_wall_seconds: float
    deterministic: bool
    cycles_match_slow: bool
    decoded_hit_rate: float
    trace_hits: int = 0
    trace_steps: int = 0
    trace_bailouts: int = 0

    @property
    def trace_step_rate(self) -> float:
        """Fraction of retired steps executed inside compiled traces."""
        return self.trace_steps / self.steps if self.steps else 0.0

    @property
    def steps_per_second(self) -> float:
        return self.steps / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def speedup(self) -> float:
        return (self.slow_wall_seconds / self.wall_seconds
                if self.wall_seconds else 0.0)

    @property
    def passed(self) -> bool:
        return self.deterministic and self.cycles_match_slow

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "machine": self.machine,
            "steps": self.steps,
            "cycles": self.cycles,
            "wall_seconds": round(self.wall_seconds, 6),
            "slow_wall_seconds": round(self.slow_wall_seconds, 6),
            "steps_per_second": round(self.steps_per_second, 1),
            "cycles_per_second": round(self.cycles_per_second, 1),
            "speedup": round(self.speedup, 3),
            "deterministic": self.deterministic,
            "cycles_match_slow": self.cycles_match_slow,
            "decoded_hit_rate": round(self.decoded_hit_rate, 4),
            "trace_hits": self.trace_hits,
            "trace_steps": self.trace_steps,
            "trace_step_rate": round(self.trace_step_rate, 4),
            "trace_bailouts": self.trace_bailouts,
        }


def run_fast_pair(machine_name: str, runner, iterations: int,
                  traces: bool = True) -> tuple[RunSample, RunSample]:
    """Two fast-path executions (the determinism check's raw material)."""
    with interpreter_mode(True), trace_mode(traces):
        return runner(machine_name, iterations), runner(machine_name,
                                                        iterations)


def run_slow_reference(machine_name: str, runner,
                       iterations: int) -> RunSample:
    """One reference-interpreter execution (equivalence + speedup base).

    Traces never engage off the fast path (``Core.run`` gates on both),
    so the reference run needs no ``trace_mode`` wrap."""
    with interpreter_mode(False):
        return runner(machine_name, iterations)


def run_one(suite_index: int, iterations: int, mode: str,
            traces: bool = True) -> dict:
    """The pure, dispatchable bench work unit (one suite row, one
    interpreter mode), returned as spawn-safe sample dicts.

    Simulated steps and cycles are bit-deterministic, so samples measured
    in worker processes combine into the same verdicts as sequential
    ones; only the wall-clock fields (the non-compared section of the
    report) reflect where the sample actually ran."""
    from dataclasses import asdict

    name, machine_name, runner, *_ = SUITE[suite_index]
    if mode == "fast":
        samples = run_fast_pair(machine_name, runner, iterations, traces)
    elif mode == "slow":
        samples = (run_slow_reference(machine_name, runner, iterations),)
    else:
        raise ValueError(f"unknown bench mode {mode!r}")
    return {
        "suite_index": suite_index,
        "name": name,
        "machine": machine_name,
        "mode": mode,
        "samples": [asdict(sample) for sample in samples],
    }


def combine_samples(name: str, machine_name: str, first: RunSample,
                    second: RunSample, reference: RunSample) -> BenchResult:
    """Fold the three measured samples into one benchmark verdict.

    Shared by the sequential driver and ``repro bench --jobs N``, so a
    suite sharded across processes reaches the same verdicts."""
    decoded_accesses = first.decoded_hits + first.decoded_misses
    return BenchResult(
        name=name,
        machine=machine_name,
        steps=first.steps,
        cycles=first.cycles,
        # Best of the two (identical) fast runs: the first pays one-time
        # import and allocator warm-up that is not interpreter cost.
        wall_seconds=min(first.wall_seconds, second.wall_seconds),
        slow_wall_seconds=reference.wall_seconds,
        deterministic=(first.cycles == second.cycles
                       and first.steps == second.steps),
        cycles_match_slow=(first.cycles == reference.cycles
                           and first.steps == reference.steps),
        decoded_hit_rate=(first.decoded_hits / decoded_accesses
                          if decoded_accesses else 0.0),
        trace_hits=first.trace_hits,
        trace_steps=first.trace_steps,
        trace_bailouts=first.trace_bailouts,
    )


def run_benchmark(name: str, machine_name: str, runner, iterations: int,
                  traces: bool = True) -> BenchResult:
    """Fast twice (determinism), slow once (equivalence + speedup)."""
    first, second = run_fast_pair(machine_name, runner, iterations, traces)
    reference = run_slow_reference(machine_name, runner, iterations)
    return combine_samples(name, machine_name, first, second, reference)


# ---------------------------------------------------------------------------
# Lockstep batch suite (``repro bench --batch N``)
# ---------------------------------------------------------------------------

#: (name, program builder) for each batch-suite row.  Every row runs the
#: same per-lane step budget so the aggregate weighs the rows by how slow
#: they actually are, not by hand-picked iteration counts.
BATCH_SUITE = (
    ("batch_alu", batch_alu_program),
    ("batch_memory", batch_memory_program),
    ("batch_noninterference", batch_noninterference_program),
)

#: Steps per lane for every batch row (full / ``--quick``).
BATCH_STEPS = 150_000
BATCH_QUICK_STEPS = 12_000


def _batch_lanes(row_index: int, batch: int):
    """Build ``batch`` probe lanes for one batch-suite row.

    Lanes are the fuzz noninterference-probe machines — same program,
    same topology, different secret fills (``variant = lane % 4``) — so
    the suite measures exactly the replica shape the batch engine was
    built for."""
    words = BATCH_SUITE[row_index][1]().words
    return [probe_lane(words, lane % 4) for lane in range(batch)]


def probe_lane(words, variant: int):
    """A freshly built fuzz noninterference-probe machine running
    ``words`` with secret fill ``variant``: ``(machine, core, code_pages)``
    (:func:`repro.fuzz.oracles.boot_program`)."""
    from repro.fuzz.oracles import boot_program, fuzz_guillotine_config

    return boot_program(build_guillotine_machine(fuzz_guillotine_config()),
                        words, variant=variant)


def _lane_state(machine, core, steps: int) -> dict:
    """Spawn-safe bit-identity record for one finished lane."""
    return {
        "steps": steps,
        "state": core.state.name,
        "pc": core.pc,
        "registers": list(core.registers),
        "cycles": machine.clock.now,
        "instructions_retired": core.instructions_retired,
        "faults": core.faults,
    }


def run_batch_one(row_index: int, batch: int, steps: int, mode: str) -> dict:
    """The dispatchable batch-bench work unit: one suite row, one engine
    leg (``"scalar"`` = per-lane ``core.run``, ``"batch"`` = lockstep).

    Lane states and simulated cycles are bit-deterministic either way —
    that is the contract :func:`combine_batch_samples` re-checks — so
    only the wall-clock field depends on where (and how) the leg ran."""
    name = BATCH_SUITE[row_index][0]
    lanes = _batch_lanes(row_index, batch)
    cores = [core for _, core, _ in lanes]
    stats = None
    start = time.perf_counter()
    if mode == "scalar":
        lane_steps = [core.run(max_steps=steps) for core in cores]
    elif mode == "batch":
        from repro.hw.batch import LockstepBatch

        result = LockstepBatch(cores).run(max_steps=steps)
        lane_steps = result.steps
        stats = result.stats.to_dict()
    else:
        raise ValueError(f"unknown batch bench mode {mode!r}")
    wall = time.perf_counter() - start
    return {
        "row_index": row_index,
        "name": name,
        "mode": mode,
        "batch": batch,
        "steps_per_lane": steps,
        "wall_seconds": wall,
        "guest_steps": sum(lane_steps),
        "lanes": [
            _lane_state(machine, core, lane_steps[position])
            for position, (machine, core, _) in enumerate(lanes)
        ],
        "stats": stats,
    }


@dataclass
class BatchBenchResult:
    """One batch-suite row's verdict: throughput plus the bit-identity
    gate (every lane's architectural state and simulated cycles must
    match its scalar twin exactly)."""

    name: str
    batch: int
    steps_per_lane: int
    guest_steps: int
    cycles: int                   # sum of per-lane simulated cycles
    wall_seconds: float           # lockstep leg
    scalar_wall_seconds: float    # per-lane scalar leg
    bit_identical: bool
    mismatched_lanes: tuple[int, ...]
    stats: dict | None

    @property
    def guest_steps_per_second(self) -> float:
        return (self.guest_steps / self.wall_seconds
                if self.wall_seconds else 0.0)

    @property
    def scalar_guest_steps_per_second(self) -> float:
        return (self.guest_steps / self.scalar_wall_seconds
                if self.scalar_wall_seconds else 0.0)

    @property
    def speedup(self) -> float:
        return (self.scalar_wall_seconds / self.wall_seconds
                if self.wall_seconds else 0.0)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "batch": self.batch,
            "steps_per_lane": self.steps_per_lane,
            "guest_steps": self.guest_steps,
            "cycles": self.cycles,
            "wall_seconds": round(self.wall_seconds, 6),
            "scalar_wall_seconds": round(self.scalar_wall_seconds, 6),
            "guest_steps_per_second": round(self.guest_steps_per_second, 1),
            "scalar_guest_steps_per_second": round(
                self.scalar_guest_steps_per_second, 1),
            "speedup": round(self.speedup, 3),
            "bit_identical": self.bit_identical,
            "mismatched_lanes": list(self.mismatched_lanes),
            "stats": self.stats,
        }


def combine_batch_samples(scalar_unit: dict,
                          batch_unit: dict) -> BatchBenchResult:
    """Fold one row's two legs into a verdict (the bench gate).

    Shared by the sequential driver and ``repro bench --jobs N``, so the
    bit-identity comparison is the same however the legs were sharded."""
    mismatched = tuple(
        position for position, (want, got)
        in enumerate(zip(scalar_unit["lanes"], batch_unit["lanes"]))
        if want != got
    )
    return BatchBenchResult(
        name=scalar_unit["name"],
        batch=scalar_unit["batch"],
        steps_per_lane=scalar_unit["steps_per_lane"],
        guest_steps=scalar_unit["guest_steps"],
        cycles=sum(lane["cycles"] for lane in scalar_unit["lanes"]),
        wall_seconds=batch_unit["wall_seconds"],
        scalar_wall_seconds=scalar_unit["wall_seconds"],
        bit_identical=(not mismatched
                       and scalar_unit["guest_steps"]
                       == batch_unit["guest_steps"]),
        mismatched_lanes=mismatched,
        stats=batch_unit["stats"],
    )


def run_batch_suite(batch: int,
                    quick: bool = False) -> list[BatchBenchResult]:
    """Sequential batch suite: scalar leg then lockstep leg per row."""
    steps = BATCH_QUICK_STEPS if quick else BATCH_STEPS
    results = []
    for row_index in range(len(BATCH_SUITE)):
        scalar_unit = run_batch_one(row_index, batch, steps, "scalar")
        batch_unit = run_batch_one(row_index, batch, steps, "batch")
        results.append(combine_batch_samples(scalar_unit, batch_unit))
    return results


def batch_section(results: list[BatchBenchResult], batch: int) -> dict:
    """The ``batch`` block of a ``repro.bench/1`` report."""
    batch_wall = sum(result.wall_seconds for result in results)
    scalar_wall = sum(result.scalar_wall_seconds for result in results)
    guest_steps = sum(result.guest_steps for result in results)
    return {
        "batch": batch,
        "rows": [result.to_dict() for result in results],
        "totals": {
            "guest_steps": guest_steps,
            "cycles": sum(result.cycles for result in results),
            "wall_seconds": round(batch_wall, 6),
            "scalar_wall_seconds": round(scalar_wall, 6),
            "guest_steps_per_second": round(
                guest_steps / batch_wall, 1) if batch_wall else 0.0,
            "scalar_guest_steps_per_second": round(
                guest_steps / scalar_wall, 1) if scalar_wall else 0.0,
            "aggregate_speedup": round(
                scalar_wall / batch_wall, 3) if batch_wall else 0.0,
            "all_bit_identical": all(r.bit_identical for r in results),
        },
    }


def suite_report(results: list[BenchResult], *, quick: bool,
                 traces: bool = True,
                 batch_results: list[BatchBenchResult] | None = None,
                 batch: int = 0) -> dict:
    """Assemble the ``repro.bench/1`` JSON document."""
    fast_wall = sum(result.wall_seconds for result in results)
    slow_wall = sum(result.slow_wall_seconds for result in results)
    total_steps = sum(result.steps for result in results)
    total_cycles = sum(result.cycles for result in results)
    return {
        "schema": BENCH_SCHEMA,
        "quick": quick,
        "traces": traces,
        "batch": (batch_section(batch_results, batch)
                  if batch_results else None),
        "benchmarks": [result.to_dict() for result in results],
        "totals": {
            "steps": total_steps,
            "cycles": total_cycles,
            "fast_wall_seconds": round(fast_wall, 6),
            "slow_wall_seconds": round(slow_wall, 6),
            "steps_per_second": round(total_steps / fast_wall, 1)
            if fast_wall else 0.0,
            "cycles_per_second": round(total_cycles / fast_wall, 1)
            if fast_wall else 0.0,
            "speedup": round(slow_wall / fast_wall, 3) if fast_wall else 0.0,
            "all_deterministic": all(r.deterministic for r in results),
            "all_cycles_match": all(r.cycles_match_slow for r in results),
        },
    }


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
