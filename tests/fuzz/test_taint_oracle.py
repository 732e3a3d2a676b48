"""Oracle 4 (taint soundness / noninterference) end to end.

Covers the per-program verdict (``check_program``), the campaign counters,
and the parallel-fabric contract: the taint oracle's fields must merge
byte-identically at any ``--jobs``.
"""

from repro.fuzz.campaign import run_fuzz, run_one_batch
from repro.fuzz.gen import IO_VADDR, SECRET_VADDR
from repro.fuzz.oracles import (
    FUZZ_SOURCES,
    check_program,
    noninterference_probe,
    secret_fill,
)
from repro.hw import isa
from repro.hw.isa import assemble
from repro.parallel.merge import canonical_bytes
from tests.sharded import run_fuzz_sharded

BENIGN = [isa.movi(1, 41), isa.addi(1, 1, 1), isa.halt()]

EXFIL = [
    isa.movi(1, SECRET_VADDR),
    isa.load(2, 1, 0),
    isa.movi(3, IO_VADDR),
    isa.store(2, 3, 0),
    isa.halt(),
]

COVERT = [
    isa.movi(1, SECRET_VADDR),
    isa.load(2, 1, 0),
    isa.beq(2, 0, "quiet"),
    isa.doorbell(3),
    "quiet",
    isa.halt(),
]


def outcome_of(items, **kwargs):
    return check_program(assemble(items).words, **kwargs)


class TestSecretFill:
    def test_variant_zero_is_all_zeros(self):
        assert set(secret_fill(0)) == {0}

    def test_variants_differ(self):
        assert secret_fill(1) != secret_fill(2)
        assert all(0 <= word < 2 ** 64 for word in secret_fill(1))


class TestProbes:
    def test_benign_probes_are_indistinguishable(self):
        words = assemble(BENIGN).words
        assert noninterference_probe(words, 0) == \
            noninterference_probe(words, 1)

    def test_exfil_probes_differ_in_io_bytes(self):
        words = assemble(EXFIL).words
        a = noninterference_probe(words, 0)
        b = noninterference_probe(words, 1)
        assert a.io_digest != b.io_digest

    def test_covert_probes_differ_in_doorbell_rate(self):
        words = assemble(COVERT).words
        a = noninterference_probe(words, 0)   # secret word 0: quiet
        b = noninterference_probe(words, 1)   # secret word != 0: rings
        assert (a.doorbell_accepted, a.doorbell_throttled) != \
            (b.doorbell_accepted, b.doorbell_throttled)


class TestCheckProgram:
    def test_benign_program_earns_a_certificate(self):
        outcome = outcome_of(BENIGN)
        assert outcome.clean
        assert outcome.noninterference is True
        assert outcome.taint_flows == ()
        assert "taint:noninterference" in outcome.coverage

    def test_exfil_program_is_flagged_with_interference(self):
        outcome = outcome_of(EXFIL)
        assert outcome.clean                     # predicted, so no violation
        assert outcome.noninterference is False
        assert "exfil-mailbox" in outcome.taint_flows
        assert "taint:flow:exfil-mailbox" in outcome.coverage
        assert "taint:interference" in outcome.coverage
        # The mailbox path is WARNING-grade: plain enforce still admits.
        assert outcome.admitted is True

    def test_covert_program_is_flagged_and_rejected(self):
        outcome = outcome_of(COVERT)
        assert outcome.clean
        assert "branch-channel" in outcome.taint_flows
        assert "covert-doorbell" in outcome.taint_flows
        assert "taint:interference" in outcome.coverage
        assert outcome.admitted is False         # ERROR-grade flows

    def test_fuzz_model_matches_the_admission_model(self):
        # Oracle 3's consistency check relies on check_program and the
        # hypervisor analyzing with the *same* source/sink model.
        assert FUZZ_SOURCES.secret_windows[0].start == SECRET_VADDR
        assert FUZZ_SOURCES.egress_windows[0].start == IO_VADDR


class TestCampaignCounters:
    def test_batch_counts_certificates_and_flags(self):
        batch = run_one_batch(1234, 0, 12, shrink=False)
        assert batch["passed"] is True
        assert batch["noninterference_certified"] >= 0
        assert batch["taint_flagged"] >= 0
        assert (batch["noninterference_certified"] + batch["taint_flagged"]
                <= 2 * batch["programs"])

    def test_report_totals_fold_the_counters(self):
        report = run_fuzz(7, 20, batch_size=10)
        totals = report["totals"]
        assert totals["noninterference_certified"] == sum(
            run["noninterference_certified"] for run in report["runs"])
        assert totals["taint_flagged"] == sum(
            run["taint_flagged"] for run in report["runs"])

    def test_taint_coverage_tokens_surface(self):
        report = run_fuzz(7, 30, batch_size=15)
        tokens = set(report["totals"]["coverage"])
        assert tokens & {"taint:noninterference", "taint:interference",
                         "taint:overapprox"}


class TestFabricDeterminism:
    def test_jobs_four_matches_sequential_byte_for_byte(self):
        sequential, _ = run_fuzz_sharded(99, 30, jobs=1, batch_size=10)
        parallel, _ = run_fuzz_sharded(99, 30, jobs=4, batch_size=10)
        assert canonical_bytes(parallel) == canonical_bytes(sequential)
        assert sequential["totals"]["noninterference_certified"] == \
            parallel["totals"]["noninterference_certified"]
        assert sequential["totals"]["taint_flagged"] == \
            parallel["totals"]["taint_flagged"]
