"""Superblock trace compilation regressions (repro.hw.trace).

Traces are the third execution engine (reference interpreter → decoded-
cache fast path → fused superblocks), and the contract is the same as the
fast path's: simulated cycles, architectural state, fault behaviour, and
microarchitectural statistics must be bit-identical across all three.
These tests pin trace formation (heat threshold, the length floor and
its self-loop exception), trace hits, bailouts, exact invalidation
(self-modification, flush, reload, fault injection), the watchpoint
fallback to single-step dispatch, FIFO eviction on both the decoded
cache and the trace registry, and EPT (baseline-machine) trace dispatch
under generation bumps.
"""

import pytest

from repro.baseline.hypervisor import TraditionalHypervisor
from repro.hw import isa
from repro.hw.core import Core, CoreState
from repro.hw.isa import assemble, encode
from repro.hw.machine import (
    MachineConfig,
    build_baseline_machine,
    build_guillotine_machine,
    machine_fingerprint,
)
from repro.hw.memory import Dram, PAGE_SIZE, PageTableEntry
from repro.hw.trace import TRACE_HEAT_THRESHOLD, TRACE_MIN_LENGTH, VTRACE_CAP

#: The canonical hot loop: 2 setup instructions, a 4-instruction loop
#: body (3 ALU + the back-edge branch), and HALT.
def _loop_program(iterations: int = 10):
    return assemble([
        isa.movi(1, 0), isa.movi(2, iterations),
        "loop",
        isa.addi(1, 1, 1),
        isa.xor(4, 1, 2),
        isa.add(3, 3, 4),
        isa.blt(1, 2, "loop"),
        isa.halt(),
    ])


#: Pinned verdict for ``_loop_program(10)`` on a Guillotine core: total
#: simulated cycles and steps must be identical on every engine, and the
#: trace engine must cover the post-warm-up iterations in one fused run.
PINNED_CYCLES = 216
PINNED_STEPS = 43


def _guillotine():
    machine = build_guillotine_machine(
        MachineConfig(n_model_cores=2, n_hv_cores=1))
    return machine, machine.model_cores[0]


def _baseline():
    machine = build_baseline_machine(
        MachineConfig(n_model_cores=1, n_hv_cores=0))
    return machine, TraditionalHypervisor(machine)


@pytest.fixture(autouse=True)
def _default_engines(monkeypatch):
    """Each test starts from the shipped defaults (fast path + traces)."""
    monkeypatch.setattr(Core, "fast_path", True)
    monkeypatch.setattr(Core, "trace_jit", True)


def _run(program, max_steps=1_000, chunk=None):
    """Run ``program`` for ``max_steps``, in ``Core.run`` calls of at most
    ``chunk`` steps when given (the way serve slices a guest's budget)."""
    machine, core = _guillotine()
    machine.load_program(core, program)
    core.resume()
    chunk = chunk or max_steps
    steps = 0
    while steps < max_steps and core.state is CoreState.RUNNING:
        steps += core.run(max_steps=min(chunk, max_steps - steps))
    return machine, core, steps


def _three_way(program, max_steps=1_000, chunk=None):
    """Run ``program`` under traces, fast-path-only, and the reference
    interpreter; returns the three (machine, core, steps) triples."""
    outcomes = []
    for fast, jit in ((True, True), (True, False), (False, False)):
        Core.fast_path = fast
        Core.trace_jit = jit
        outcomes.append(_run(program, max_steps, chunk))
    return outcomes


def _verdict(machine, core, steps):
    return (steps, machine.clock.now, core.instructions_retired,
            list(core.registers), core.pc, core.state)


def _simulated(machine):
    """``machine_fingerprint`` without the counters of Python-side work
    (decoded cache, traces), which differ between engines by design."""
    fingerprint = machine_fingerprint(machine)
    for core in fingerprint["cores"].values():
        for key in ("decoded_stats", "vtraces", "trace_heat", "trace_stats"):
            del core[key]
    for bank in fingerprint["banks"].values():
        for key in ("decoded_entries", "decoded_evictions", "traces",
                    "traces_compiled", "trace_invalidations"):
            del bank[key]
    return fingerprint


class TestTraceFormation:
    def test_hot_loop_compiles_and_hits_pinned(self):
        machine, core, steps = _run(_loop_program(10))
        assert core.state is CoreState.HALTED
        assert (steps, machine.clock.now) == (PINNED_STEPS, PINNED_CYCLES)
        bank = machine.banks["model_dram"]
        # Heat counts at block heads only: the back-edge makes the loop
        # head hot, the body pcs it falls through to never are, so one
        # superblock compiles and it dispatches.
        assert bank.traces_compiled == 1
        assert core.trace_hits == 1  # the in-trace loop needs one dispatch
        # Warm-up burns TRACE_HEAT_THRESHOLD + 1 single-stepped iterations
        # (16 steps; the first is entered by falling through from the
        # setup, which heats nothing) plus 3 setup/exit steps; the fused
        # loop covers the rest.
        assert core.trace_steps == \
            PINNED_STEPS - 4 * (TRACE_HEAT_THRESHOLD + 1) - 3
        assert core.trace_bailouts == 0

    def test_hot_loop_body_compiles_exactly_one_trace(self):
        """A long loop body compiles one superblock, at its head."""
        body = [isa.addi(3 + i % 5, 3 + i % 5, i) for i in range(9)]
        program = assemble([isa.movi(1, 0), isa.movi(2, 40), "loop",
                            *body, isa.addi(1, 1, 1),
                            isa.blt(1, 2, "loop"), isa.halt()])
        machine, core, _ = _run(program)
        assert core.state is CoreState.HALTED
        bank = machine.banks["model_dram"]
        assert bank.traces_compiled == 1
        (trace,) = bank._traces.values()
        assert trace.start == program.symbols["loop"]
        assert trace.is_loop and core.trace_hits >= 1

    def test_cold_straight_line_code_never_compiles(self):
        program = assemble([isa.movi((i % 11) + 1, i) for i in range(20)]
                           + [isa.halt()])
        machine, core, _ = _run(program)
        assert machine.banks["model_dram"].traces_compiled == 0
        assert core.trace_hits == 0

    def test_reference_engine_never_traces(self):
        Core.fast_path = False
        machine, core, _ = _run(_loop_program(10))
        assert machine.clock.now == PINNED_CYCLES
        assert core.trace_hits == 0
        assert machine.banks["model_dram"].traces_compiled == 0

    def test_trace_jit_off_never_traces(self):
        Core.trace_jit = False
        machine, core, _ = _run(_loop_program(10))
        assert machine.clock.now == PINNED_CYCLES
        assert core.trace_hits == 0
        assert machine.banks["model_dram"].traces_compiled == 0

    def test_three_way_equivalence_on_the_hot_loop(self):
        traced, fast_only, reference = _three_way(_loop_program(50))
        assert _verdict(*traced) == _verdict(*fast_only) == \
            _verdict(*reference)
        assert traced[1].trace_steps > 100  # the trace did the work

    def test_memory_loop_three_way_equivalence(self):
        program = assemble([
            isa.movi(1, 0), isa.movi(2, 30),
            isa.movi(7, PAGE_SIZE), isa.movi(9, 0),
            "loop",
            isa.and_(5, 9, 2),
            isa.add(6, 7, 5),
            isa.load(4, 6, 0),
            isa.add(3, 3, 4),
            isa.addi(9, 9, 7),
            isa.addi(1, 1, 1),
            isa.blt(1, 2, "loop"),
            isa.halt(),
        ])
        traced, fast_only, reference = _three_way(program)
        assert _verdict(*traced) == _verdict(*fast_only) == \
            _verdict(*reference)
        assert traced[1].trace_steps > 0

    def test_max_steps_budget_is_exact(self):
        """A trace must never run past the caller's step budget: stopping
        mid-loop leaves precisely the same state as single-stepping."""
        for budget in (17, 25, 31):
            verdicts = []
            for fast, jit in ((True, True), (False, False)):
                Core.fast_path = fast
                Core.trace_jit = jit
                machine, core, steps = _run(_loop_program(50),
                                            max_steps=budget)
                assert steps == budget
                verdicts.append(_verdict(machine, core, steps))
            assert verdicts[0] == verdicts[1]


#: Self-loops shorter than ``TRACE_MIN_LENGTH``: a terminal that jumps or
#: branches back to its own head makes even a one-instruction superblock
#: an in-trace loop.  The data page sits at ``PAGE_SIZE`` (one code page).
SHORT_SELF_LOOPS = {
    "addi-bne-counted": [
        isa.movi(1, 0), isa.movi(2, 400),
        "loop", isa.addi(1, 1, 1), isa.bne(1, 2, "loop"),
        isa.halt(),
    ],
    "jmp-self": ["loop", isa.jmp("loop")],
    "bne-self": [
        isa.movi(1, 0), isa.movi(2, 1),
        "loop", isa.bne(1, 2, "loop"),
        isa.halt(),
    ],
    "jal-self": ["loop", isa.jal(5, "loop")],
    "load-bne": [
        isa.movi(1, 0), isa.movi(2, 1), isa.movi(7, PAGE_SIZE),
        "loop", isa.load(4, 7, 3), isa.bne(1, 2, "loop"),
        isa.halt(),
    ],
    "store-beq": [
        isa.movi(7, PAGE_SIZE), isa.movi(8, 0x5A5A),
        "loop", isa.store(8, 7, 5), isa.beq(0, 0, "loop"),
        isa.halt(),
    ],
}


class TestShortSelfLoops:
    @pytest.mark.parametrize("name", sorted(SHORT_SELF_LOOPS))
    def test_three_way_equivalence(self, name):
        """Budgets either side of serve's 64-step slice, and the whole run
        sliced into 64- and 7-step ``Core.run`` calls."""
        program = assemble(SHORT_SELF_LOOPS[name])
        for budget, chunk in ((1, None), (2, None), (63, None), (64, None),
                              (65, None), (1_000, None), (1_000, 64),
                              (1_000, 7)):
            traced, fast_only, reference = _three_way(program, budget, chunk)
            case = f"budget {budget}, chunk {chunk}"
            assert _verdict(*traced) == _verdict(*fast_only) == \
                _verdict(*reference), case
            assert _simulated(traced[0]) == _simulated(fast_only[0]) == \
                _simulated(reference[0]), case
            if budget > 2:  # budgets 1 and 2 end before the head is hot
                core = traced[1]
                assert core.trace_steps > 0, case
                assert any(trace.is_loop and trace.length < TRACE_MIN_LENGTH
                           for trace in core._vtraces.values()), case

    def test_event_mid_spin_sees_the_same_state_on_every_engine(self):
        """A clock callback that lands inside the fused spin observes the
        same time, pc and registers on every engine, and its register
        write steers the rest of the run identically."""
        program = assemble(SHORT_SELF_LOOPS["addi-bne-counted"])
        seen = []
        runs = []
        for fast, jit in ((True, True), (True, False), (False, False)):
            Core.fast_path = fast
            Core.trace_jit = jit
            machine, core = _guillotine()
            machine.load_program(core, program)
            core.resume()

            def interrupt(machine=machine, core=core):
                seen.append((machine.clock.now, core.pc,
                             list(core.registers)))
                core.registers[2] = core.registers[1] + 5  # stop soon

            machine.clock.call_at(machine.clock.now + 1_001, interrupt)
            steps = core.run(max_steps=5_000)
            runs.append((machine, core, steps))
        assert len(seen) == 3 and seen[0] == seen[1] == seen[2]
        traced, fast_only, reference = runs
        assert _verdict(*traced) == _verdict(*fast_only) == \
            _verdict(*reference)
        assert _simulated(traced[0]) == _simulated(fast_only[0]) == \
            _simulated(reference[0])
        core = traced[1]
        assert core.state is CoreState.HALTED
        assert core.registers[1] == seen[0][2][1] + 5  # cut short
        assert core.trace_steps > 0

    def test_hot_two_instruction_block_that_is_not_a_self_loop(self):
        """The length floor still holds for a short superblock that exits
        its trace: ``addi; jmp tail`` is hot but jumps elsewhere."""
        program = assemble([
            isa.movi(1, 0), isa.movi(2, 200),
            "loop", isa.addi(1, 1, 1), isa.jmp("tail"),
            "tail", isa.bne(1, 2, "loop"),
            isa.halt(),
        ])
        machine, core, steps = _run(program)
        assert core.state is CoreState.HALTED
        assert steps == 2 + 3 * 200 + 1
        assert machine.banks["model_dram"].traces_compiled == 0
        assert core.trace_steps == 0


#: Two hot loops one after the other: one superblock each.
def _two_loop_program():
    loop = [isa.addi(1, 1, 1), isa.xor(4, 1, 2), isa.add(3, 3, 4)]
    return assemble([
        isa.movi(1, 0), isa.movi(2, 10),
        "first", *loop, isa.blt(1, 2, "first"),
        isa.movi(1, 0), isa.movi(2, 10),
        "second", *loop, isa.blt(1, 2, "second"),
        isa.halt(),
    ])


class TestExactInvalidation:
    def _hot(self):
        machine, core, _ = _run(_two_loop_program())
        bank = machine.banks["model_dram"]
        assert len(bank._traces) == 2  # one per loop head
        trace, other = bank._traces.values()
        assert trace.is_loop and other.start > trace.start + trace.length
        return machine, core, bank, trace

    def test_store_inside_trace_range_kills_exactly_it(self):
        machine, core, bank, trace = self._hot()
        # The first loop head's word is covered only by its own trace;
        # the second loop's trace must survive the store.
        bank.write(trace.start, encode(isa.nop()))
        assert not trace.alive
        assert bank.trace_invalidations == 1
        assert len(bank._traces) == 1

    def test_store_outside_trace_range_spares_it(self):
        machine, core, bank, trace = self._hot()
        bank.write(trace.start + trace.length, encode(isa.nop()))
        assert trace.alive
        assert bank.trace_invalidations == 0
        assert len(bank._traces) == 2

    def test_flush_microarch_clears_traces(self):
        machine, core, bank, trace = self._hot()
        core.flush_microarch()
        assert not trace.alive
        assert not bank._traces
        assert not core._vtraces

    def test_guest_reload_clears_traces(self):
        machine, core, bank, trace = self._hot()
        bank.load_words(0, [encode(isa.halt())])
        assert not trace.alive
        assert not bank._traces

    def test_fault_injection_kills_traces_and_blocks_compilation(self):
        machine, core, bank, trace = self._hot()
        bank.inject_bit_flip(trace.start + 1, 3)
        assert not trace.alive
        assert not bank._traces
        # A faulted bank refuses new compilations entirely: the read path
        # is data-dependent there, so fused execution would be unsound.
        from repro.hw.trace import compile_trace
        core._trace_heat.clear()
        assert compile_trace(core, trace.vpc) is None
        bank.clear_faults()

    def test_hot_selfmod_loop_three_way_equivalence(self):
        """A loop hot enough to trace that stores into its own body: the
        write must kill the trace mid-flight (never running a stale fused
        instruction) and leave all three engines in identical states."""
        patch = encode(isa.nop())
        assert patch >> 32 == 0  # fits one MOVI immediate
        program = assemble([
            isa.movi(1, 0), isa.movi(2, 12),
            isa.movi(8, patch),
            "loop",
            isa.addi(1, 1, 1),
            isa.xor(4, 1, 2),
            isa.store(8, 0, 7),  # patch the word after the back-edge
            isa.blt(1, 2, "loop"),
            isa.halt(),
        ])

        def run_selfmod():
            machine, core = _guillotine()
            # The self-patching store needs an RWX mapping, which
            # load_program (W^X) refuses — wire the page table by hand.
            core.mmu.map(0, PageTableEntry(
                ppn=0, readable=True, writable=True, executable=True))
            machine.banks["model_dram"].load_words(0, list(program.words))
            core.poke_pc(0)
            core.resume()
            steps = core.run(max_steps=500)
            return machine, core, steps

        verdicts = []
        for fast, jit in ((True, True), (True, False), (False, False)):
            Core.fast_path = fast
            Core.trace_jit = jit
            verdicts.append(_verdict(*run_selfmod()))
        assert verdicts[0] == verdicts[1] == verdicts[2]


class TestWatchpointFallback:
    def test_armed_watchpoint_disables_trace_dispatch(self):
        machine, core = _guillotine()
        layout = machine.load_program(core, _loop_program(20))
        core.set_watchpoint("read", layout["data_vaddr"])
        core.resume()
        core.run(max_steps=1_000)
        assert core.state is CoreState.HALTED
        assert core.trace_hits == 0
        assert machine.clock.now == \
            _run(_loop_program(20))[0].clock.now  # timing unchanged

    def test_watchpoint_armed_mid_run_stops_dispatch(self):
        machine, core = _guillotine()
        layout = machine.load_program(core, _loop_program(60))
        core.resume()
        core.run(max_steps=30)  # hot: the trace is formed and hitting
        hits_before = core.trace_hits
        assert hits_before > 0
        core.set_watchpoint("write", layout["data_vaddr"])
        core.run(max_steps=1_000)
        assert core.state is CoreState.HALTED
        assert core.trace_hits == hits_before  # no dispatch while armed


class TestEvictionInterplay:
    CAP = 4

    def test_decoded_cap_churn_with_traces_three_way(self, monkeypatch):
        """A tiny decoded cache streams while traces are live: decoded
        FIFO eviction is Python-cost only even when the same code range
        is also fused into a superblock."""
        monkeypatch.setattr(Dram, "DECODED_CAP", self.CAP)
        traced, fast_only, reference = _three_way(_loop_program(40))
        assert _verdict(*traced) == _verdict(*fast_only) == \
            _verdict(*reference)
        assert traced[1].trace_steps > 0
        assert fast_only[0].banks["model_dram"].decoded_evictions > 0

    def test_trace_cap_is_fifo(self, monkeypatch):
        """More hot loops than ``TRACE_CAP`` slots: the oldest trace is
        evicted (and marked dead) while execution stays exact."""
        monkeypatch.setattr(Dram, "TRACE_CAP", 2)
        items = []
        for block in range(4):
            label = f"loop{block}"
            items += [
                isa.movi(1, 0), isa.movi(2, 8),
                label,
                isa.addi(1, 1, 1),
                isa.xor(4, 1, 2),
                isa.add(3, 3, 4),
                isa.blt(1, 2, label),
            ]
        items.append(isa.halt())
        program = assemble(items)
        machine, core, _ = _run(program, max_steps=2_000)
        bank = machine.banks["model_dram"]
        assert core.state is CoreState.HALTED
        assert bank.traces_compiled >= 4  # at least one per hot loop
        # FIFO: residency is pinned at the cap, the rest were evicted.
        assert len(bank._traces) == 2
        assert bank.trace_evictions == bank.traces_compiled - 2
        Core.fast_path = False
        ref_machine, _, _ = _run(program, max_steps=2_000)
        assert machine.clock.now == ref_machine.clock.now

    def test_vtrace_cap_bounds_per_core_handles(self, monkeypatch):
        monkeypatch.setattr("repro.hw.core.VTRACE_CAP", 2)
        items = []
        for block in range(4):
            label = f"loop{block}"
            items += [
                isa.movi(1, 0), isa.movi(2, 8),
                label,
                isa.addi(1, 1, 1),
                isa.xor(4, 1, 2),
                isa.add(3, 3, 4),
                isa.blt(1, 2, label),
            ]
        items.append(isa.halt())
        machine, core, _ = _run(assemble(items), max_steps=2_000)
        assert core.state is CoreState.HALTED
        assert len(core._vtraces) <= 2
        assert VTRACE_CAP >= 2  # the shipped cap is far larger


class TestBaselineEptTraces:
    def _run_guest(self, iterations=30, max_steps=1_000):
        machine, hypervisor = _baseline()
        hypervisor.install_guest(_loop_program(iterations))
        core = hypervisor.guest_core
        core.resume()
        steps = core.run(max_steps=max_steps)
        return machine, hypervisor, core, steps

    def test_guest_hot_loop_traces_through_the_ept(self):
        machine, hypervisor, core, steps = self._run_guest()
        assert core.state is CoreState.HALTED
        assert core.trace_hits > 0
        assert core.trace_steps > 0

    def test_guest_three_way_equivalence(self):
        verdicts = []
        hits = []
        for fast, jit in ((True, True), (True, False), (False, False)):
            Core.fast_path = fast
            Core.trace_jit = jit
            machine, hypervisor, core, steps = self._run_guest()
            verdicts.append(_verdict(machine, core, steps))
            hits.append(core.trace_hits)
        assert verdicts[0] == verdicts[1] == verdicts[2]
        assert hits == [hits[0], 0, 0] and hits[0] > 0

    def test_ept_generation_bump_blocks_stale_dispatch(self):
        """Revoking hypervisor authority mid-run: an EPT change bumps the
        generation, so cached (mmu, ept) pairs go stale and the dispatcher
        falls back to the reference translation machinery."""
        machine, hypervisor = _baseline()
        hypervisor.install_guest(_loop_program(60))
        core = hypervisor.guest_core
        core.resume()
        core.run(max_steps=30)
        assert core.trace_hits > 0
        # Unmap the code's guest frame: the running loop must fault, not
        # keep executing out of a fused trace bound to revoked authority.
        hypervisor.ept.unmap_range(0, 1)
        core.run(max_steps=200)
        assert core.state is not CoreState.HALTED
        assert hypervisor.ept.violations > 0
