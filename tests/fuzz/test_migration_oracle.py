"""Oracle 5: mid-run checkpoint/restore must be invisible to the program.

``migration_probe`` interrupts a run after a handful of steps, ships the
machine image through a JSON round-trip (the fleet wire format), restores
it onto a scrubbed machine that is not the source, fingerprint-equal to a
fresh build, and finishes there.  Every observable field except the audit
log must match the uninterrupted run bit-for-bit.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fuzz.gen import DATA_VADDR, ProgramGenerator
from repro.fuzz.oracles import (
    CHECKPOINT_COMPARE_FIELDS,
    MIGRATION_SPLIT_STEPS,
    check_program,
    execute_program,
    migration_probe,
)
from repro.hw import isa
from repro.hw.isa import Instruction, assemble
from repro.hw.memory import PAGE_SIZE

#: Curated programs spanning the interesting split-point behaviours.
CURATED = {
    # Hot loop, still running at the split: the checkpoint lands mid-trace.
    "hot-loop": [
        isa.movi(1, 0),
        isa.movi(2, 500),
        isa.movi(3, DATA_VADDR),
        "loop",
        isa.addi(1, 1, 1),
        isa.store(1, 3, 0),
        isa.blt(1, 2, "loop"),
        isa.halt(),
    ],
    # Armed timer: the relative deadline must survive the move.
    "armed-timer": [
        isa.movi(1, 90),
        isa.settimer(1),
        isa.movi(2, 300),
        "spin",
        isa.addi(3, 3, 1),
        isa.blt(3, 2, "spin"),
        isa.halt(),
    ],
    # Halts before the split: the first leg's verdict is final.
    "early-halt": [
        isa.movi(1, 42),
        isa.store(1, 1, DATA_VADDR),
        isa.halt(),
    ],
    # Faults before the split (store far outside the mapped window).
    "early-fault": [
        isa.movi(1, 1 << 40),
        isa.store(1, 1, 0),
        isa.halt(),
    ],
}


def _words(name: str) -> tuple[int, ...]:
    return assemble(CURATED[name]).words


class TestMigrationEquivalence:
    @pytest.mark.parametrize("name", sorted(CURATED))
    def test_curated_program_is_migration_invariant(self, name):
        words = _words(name)
        fast = execute_program(words, fast_path=True)
        migrated = migration_probe(words)
        for field in CHECKPOINT_COMPARE_FIELDS:
            assert getattr(migrated, field) == getattr(fast, field), field

    def test_probe_records_the_migrated_engine(self):
        migrated = migration_probe(_words("hot-loop"))
        assert migrated.engine == "migrated"
        assert migrated.machine == "guillotine"

    def test_split_is_clamped_to_the_step_budget(self):
        migrated = migration_probe(_words("hot-loop"), max_steps=5)
        fast = execute_program(_words("hot-loop"), fast_path=True,
                               max_steps=5)
        assert migrated.steps == fast.steps == 5
        assert migrated.registers == fast.registers

    def test_audit_log_is_excluded_by_design(self):
        # A restored machine starts a fresh hash chain; the compare-field
        # set must never leak the log back in.
        assert "log_len" not in CHECKPOINT_COMPARE_FIELDS
        assert "log_digest" not in CHECKPOINT_COMPARE_FIELDS
        assert "registers" in CHECKPOINT_COMPARE_FIELDS
        assert "cycles" in CHECKPOINT_COMPARE_FIELDS

    def test_oversized_program_rejected(self):
        with pytest.raises(ValueError, match="capped"):
            migration_probe([0] * (PAGE_SIZE + 1))


#: Programs whose wake-up check on a parked (WFI) core is counted step
#: ``MIGRATION_SPLIT_STEPS``: the first leg ends on it with
#: ``steps == split``, and a second leg would repeat the check.
WFI_AT_THE_SPLIT = {
    "nop35-wfi": assemble([isa.nop()] * 35 + [isa.wfi()]).words,
    "shrunk-fuzz-divergence": (
        0x10700000000000a2, 0, 0x1050000000000008, 0, 0,
        0x1a550000ffffffff, 0x3405000000000003, 0x4200000000000000,
    ),
}


class TestWakeUpCheckAtTheSplit:
    @pytest.mark.parametrize("name", sorted(WFI_AT_THE_SPLIT))
    def test_parked_core_is_not_woken_twice(self, name):
        words = WFI_AT_THE_SPLIT[name]
        fast = execute_program(words, fast_path=True)
        assert fast.steps == MIGRATION_SPLIT_STEPS
        migrated = migration_probe(words)
        for field in CHECKPOINT_COMPARE_FIELDS:
            assert getattr(migrated, field) == getattr(fast, field), field
        assert "migration:identical" in check_program(
            words, admission=False).coverage


class TestOracleIntegration:
    def test_check_program_reports_migration_coverage(self):
        outcome = check_program(_words("hot-loop"), admission=False)
        assert outcome.violations == ()
        assert "migration:identical" in outcome.coverage

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_generated_programs_are_migration_invariant(self, seed):
        words = ProgramGenerator(seed).next_program().words
        fast = execute_program(words, fast_path=True)
        migrated = migration_probe(words)
        mismatches = [field for field in CHECKPOINT_COMPARE_FIELDS
                      if getattr(migrated, field) != getattr(fast, field)]
        assert mismatches == []


class TestMigrateMidrunSegment:
    def test_segment_assembles_and_runs_clean(self):
        generator = ProgramGenerator(11)
        items = generator._seg_migrate_midrun()
        assert any(isinstance(item, Instruction)
                   and item.op.name == "SETTIMER" for item in items)
        words = assemble(items + [isa.halt()]).words
        outcome = check_program(words, admission=False)
        assert outcome.violations == ()

    def test_segment_loops_past_the_split_point(self):
        # The loop body retires well past MIGRATION_SPLIT_STEPS, so the
        # checkpoint interrupts it mid-flight — the point of the feature.
        items = ProgramGenerator(3)._seg_migrate_midrun()
        words = assemble(items + [isa.halt()]).words
        record = execute_program(words, fast_path=True)
        assert record.steps > MIGRATION_SPLIT_STEPS
