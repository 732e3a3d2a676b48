"""Differential tests: :class:`LockstepBatch` vs scalar execution.

The batch engine has exactly one contract — bit-identity.  Every test
here runs the same lanes twice, once per-lane on the scalar engine and
once through the lockstep engine, and compares the *deep* state: every
register, every TLB entry and cache line, predictor counters, DRAM
contents, fault counts, simulated cycles.  The scenarios are chosen to
hit the engine's edges: faults on step 0, immediate all-lane
divergence, re-convergence, stable partitions that cross the defer
threshold, budget cutoffs mid-flight, and batch=1 on all three scalar
engines.
"""

from __future__ import annotations

import pytest

from repro.core.bench import interpreter_mode, trace_mode
from repro.fuzz.oracles import (
    DATA_PAGES,
    SECRET_VADDR,
    fuzz_guillotine_config,
    secret_fill,
)
from repro.hw import isa
from repro.hw.batch import LockstepBatch
from repro.hw.isa import Instruction, Op, Program
from repro.hw.machine import build_guillotine_machine


def _br(op, rs1, rs2, target):
    return Instruction(op, rs1=rs1, rs2=rs2, imm=target)


def _jmp(target):
    return Instruction(Op.JMP, imm=target)


def _words(instructions) -> list[int]:
    return [isa.encode(ins) for ins in instructions]


def _build_lane(words, variant):
    """One guest lane under the fuzz-probe layout (secret per variant)."""
    machine = build_guillotine_machine(fuzz_guillotine_config())
    core = machine.model_cores[0]
    layout = machine.load_program(core, Program(list(words), {}),
                                  data_pages=DATA_PAGES,
                                  map_io_region=True)
    machine.banks["model_dram"].load_words(SECRET_VADDR,
                                           secret_fill(variant))
    if machine.control_bus is not None:
        machine.control_bus.lockdown_mmu(core.name, 0,
                                         layout["code_pages"] - 1)
    core.resume()
    return machine, core


def _deep_state(machine, core) -> dict:
    """Everything observable: architectural AND microarchitectural."""
    bank = machine.banks["model_dram"]
    return {
        "state": core.state.name,
        "pc": core.pc,
        "registers": tuple(core.registers),
        "cycles": machine.clock.now,
        "retired": core.instructions_retired,
        "faults": core.faults,
        "last_fault": core.last_fault,
        "timer_fires": core.timer_fires,
        "tlb": tuple(core.caches.tlb.entries_snapshot()),
        "tlb_stats": (core.caches.tlb.stats.hits,
                      core.caches.tlb.stats.misses),
        "caches": tuple(
            (c.lines_snapshot(), c.stats.hits, c.stats.misses)
            for c in core.caches.icache_levels + core.caches.dcache_levels),
        "bp": core.caches.branch_predictor.counters_snapshot(),
        "bp_stats": (core.caches.branch_predictor.predictions,
                     core.caches.branch_predictor.mispredictions),
        "dram": tuple(bank.snapshot()),
        "write_count": bank.write_count,
        "io": tuple(machine.banks["io_dram"].snapshot()),
    }


def _run_both(words, lanes, max_steps=600):
    """Run scalar and lockstep legs; assert deep bit-identity.

    Returns the batch run's :class:`BatchStats` for scenario-specific
    assertions (the *identity* assertions are common to every test)."""
    scalar = []
    for lane in range(lanes):
        machine, core = _build_lane(words, lane)
        steps = core.run(max_steps=max_steps)
        scalar.append((steps, _deep_state(machine, core)))

    pairs = [_build_lane(words, lane) for lane in range(lanes)]
    result = LockstepBatch([core for _, core in pairs]).run(
        max_steps=max_steps)

    for lane, (machine, core) in enumerate(pairs):
        assert result.steps[lane] == scalar[lane][0], f"lane {lane} steps"
        got = _deep_state(machine, core)
        want = scalar[lane][1]
        for key in want:
            assert got[key] == want[key], f"lane {lane}: {key}"
    return result.stats


# Programs ------------------------------------------------------------------

ALU_LOOP = _words([
    isa.movi(1, 40), isa.movi(2, 0), isa.movi(3, 1),
    isa.add(2, 2, 1), isa.sub(1, 1, 3), _br(Op.BNE, 1, 0, 3),
    isa.halt(),
])

#: Secret-dependent two-way split that re-forms at a common tail.
DIVERGE_REFORM = _words([
    isa.movi(1, SECRET_VADDR),     # 0
    isa.load(2, 1, 0),             # 1  r2 = secret[0]
    _br(Op.BEQ, 2, 0, 5),          # 2  variant 0 -> taken
    isa.addi(3, 3, 7),             # 3  divergent side A
    _jmp(6),                       # 4
    isa.addi(3, 3, 9),             # 5  divergent side B
    isa.addi(4, 4, 1),             # 6  common tail
    isa.addi(4, 4, 2),             # 7
    isa.halt(),                    # 8
])

#: Stable partition: the same lanes take the secret branch on every
#: iteration, so the split count crosses the defer threshold and the
#: minority finishes as its own batch.
DEFER_LOOP = _words([
    isa.movi(1, SECRET_VADDR),     # 0
    isa.load(2, 1, 0),             # 1
    isa.movi(3, 30), isa.movi(5, 1),  # 2-3
    _br(Op.BEQ, 2, 0, 6),          # 4  diverge on the secret
    isa.addi(4, 4, 3),             # 5  divergent side
    isa.add(4, 4, 5),              # 6  convergence
    isa.sub(3, 3, 5),              # 7
    _br(Op.BNE, 3, 0, 4),          # 8
    isa.halt(),                    # 9
])


class TestEdgeCases:
    def test_fault_on_step_zero(self):
        """Every lane faults before the batch retires a single step."""
        words = _words([isa.store(0, 0, 4096), isa.halt()])
        stats = _run_both(words, lanes=3)
        assert stats.peels == 3
        assert stats.vector_steps == 0

    def test_all_lanes_diverge_immediately(self):
        """An indirect jump through the secret scatters every lane to a
        lane-specific pc as the first control transfer."""
        words = _words([
            isa.movi(1, SECRET_VADDR),
            isa.load(2, 1, 0),
            isa.movi(6, 7),
            isa.and_(3, 2, 6),
            isa.jr(3),              # pc := secret & 7, per lane
            isa.addi(4, 4, 1),
            isa.addi(4, 4, 2),
            isa.halt(),
        ])
        stats = _run_both(words, lanes=4, max_steps=120)
        assert stats.suspends + stats.defers + stats.peels >= 1

    def test_divergence_reforms_at_common_tail(self):
        stats = _run_both(DIVERGE_REFORM, lanes=4)
        assert stats.suspends >= 1
        assert stats.rejoins >= 1

    def test_stable_partition_defers_minority(self):
        stats = _run_both(DEFER_LOOP, lanes=8, max_steps=400)
        assert stats.defers >= 1
        assert stats.restarts >= 1

    def test_budget_cutoff_mid_loop(self):
        stats = _run_both(ALU_LOOP, lanes=4, max_steps=37)
        assert stats.batch_stop is None

    def test_budget_cutoff_with_lanes_deferred(self):
        _run_both(DEFER_LOOP, lanes=8, max_steps=73)

    def test_event_horizon_op_stops_the_batch(self):
        words = _words([isa.movi(1, 50), isa.settimer(1),
                        isa.addi(2, 2, 1), isa.halt()])
        stats = _run_both(words, lanes=3)
        assert stats.batch_stop == "op:SETTIMER"

    def test_secret_address_faults_some_lanes(self):
        words = _words([
            isa.movi(1, SECRET_VADDR),
            isa.load(2, 1, 0),
            isa.store(2, 1, 0),
            isa.halt(),
        ])
        _run_both(words, lanes=4)

    def test_div_by_possibly_zero_secret(self):
        words = _words([
            isa.movi(1, SECRET_VADDR),
            isa.load(2, 1, 0),
            isa.movi(3, 1234),
            isa.div(4, 3, 2),
            isa.halt(),
        ])
        _run_both(words, lanes=4)

    def test_memory_sweep(self):
        words = _words([
            isa.movi(1, 64), isa.movi(2, 0), isa.movi(3, 16),
            isa.movi(5, 1),
            isa.store(2, 1, 0),
            isa.load(4, 1, 0),
            isa.add(2, 2, 4),
            isa.addi(1, 1, 8),
            isa.sub(3, 3, 5),
            _br(Op.BNE, 3, 0, 4),
            isa.halt(),
        ])
        _run_both(words, lanes=4)


#: engine name -> (Core.fast_path, Core.trace_jit)
ENGINES = {
    "reference": (False, False),
    "fastpath": (True, False),
    "trace": (True, True),
}


class TestEngineEquivalence:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_batch_of_one_matches_scalar(self, engine):
        """batch=1 is the degenerate case: the lockstep engine must track
        a single scalar core exactly, whichever engine that core runs."""
        fast, traces = ENGINES[engine]
        with interpreter_mode(fast), trace_mode(traces):
            stats = _run_both(DIVERGE_REFORM, lanes=1)
        assert stats.lanes == 1
        assert stats.engaged_lanes == 1

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_divergent_lanes_match_scalar(self, engine):
        fast, traces = ENGINES[engine]
        with interpreter_mode(fast), trace_mode(traces):
            _run_both(DIVERGE_REFORM, lanes=4)


class TestFallback:
    def test_mismatched_code_falls_back_to_scalar(self):
        """Lanes running different programs cannot lockstep; the engine
        must fall back to per-lane scalar execution, still exact."""
        words_a = ALU_LOOP
        words_b = _words([isa.movi(1, 3), isa.addi(1, 1, 1), isa.halt()])

        scalar = []
        for words, variant in ((words_a, 0), (words_b, 1)):
            machine, core = _build_lane(words, variant)
            steps = core.run(max_steps=600)
            scalar.append((steps, _deep_state(machine, core)))

        pairs = [_build_lane(words, variant)
                 for words, variant in ((words_a, 0), (words_b, 1))]
        result = LockstepBatch([core for _, core in pairs]).run(
            max_steps=600)
        assert result.stats.fallback_reason is not None
        assert result.stats.scalar_lanes == 2
        assert result.stats.engaged_lanes == 0
        for lane, (machine, core) in enumerate(pairs):
            assert result.steps[lane] == scalar[lane][0]
            assert _deep_state(machine, core) == scalar[lane][1]
