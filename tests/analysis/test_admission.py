"""Admission control: the hypervisor refuses what the analyzer rejects."""

import pytest

from repro.analysis import analyze_program
from repro.core.sandbox import GuillotineSandbox, UnsandboxedDeployment
from repro.errors import GuestRejected, TopologyRejected
from repro.eventlog import CATEGORY_ADMISSION
from repro.hv.hypervisor import GuillotineHypervisor
from repro.hw import isa
from repro.hw.isa import assemble
from repro.hw.machine import build_guillotine_machine
from repro.model import programs


@pytest.fixture
def sandbox():
    return GuillotineSandbox.create()


class TestEnforcePolicy:
    def test_malicious_guest_is_refused(self, sandbox):
        with pytest.raises(GuestRejected) as excinfo:
            sandbox.hypervisor.load_guest(
                programs.store_to_code_program(code_vaddr_slot=40),
                name="store_to_code",
            )
        assert excinfo.value.findings
        assert any(f.category == "wx" for f in excinfo.value.findings)
        assert sandbox.hypervisor.guests_rejected == 1
        assert sandbox.hypervisor.guests_verified == 0

    def test_refused_guest_never_reaches_dram(self, sandbox):
        bank = sandbox.machine.banks["model_dram"]
        before = bank.snapshot(0, 64)
        with pytest.raises(GuestRejected):
            sandbox.hypervisor.load_guest(
                programs.flood_program(iterations=100), name="flood")
        assert bank.snapshot(0, 64) == before

    def test_rejection_is_audited(self, sandbox):
        with pytest.raises(GuestRejected):
            sandbox.hypervisor.load_guest(
                programs.flood_program(iterations=100), name="flood")
        records = sandbox.log.by_category(CATEGORY_ADMISSION)
        assert records
        assert records[-1].detail["verdict"] == "rejected"
        assert records[-1].detail["guest"] == "flood"

    def test_benign_guest_admitted_and_locked(self, sandbox):
        core, layout = sandbox.hypervisor.load_guest(
            programs.checksum_program(8), name="checksum")
        assert core.mmu.locked
        assert sandbox.hypervisor.guests_verified == 1
        assert sandbox.hypervisor.last_admission_report.clean

    def test_load_tier1_goes_through_the_verifier(self, sandbox):
        with pytest.raises(GuestRejected):
            sandbox.load_tier1(
                programs.prime_probe_program(sets=16, ways=2))

    def test_every_corpus_attack_with_errors_is_refused(self, sandbox):
        from repro.analysis.corpus import corpus

        refused = []
        for entry in corpus():
            if not entry.expected_error_categories:
                continue
            with pytest.raises(GuestRejected):
                sandbox.hypervisor.load_guest(entry.build(), name=entry.name)
            refused.append(entry.name)
        assert len(refused) >= 6


#: ``store r5, r0, 3`` writes code word 3: r0 is the hardwired zero, even
#: after a ``movi r0`` that tries to move it.
R0_STORES = {
    "plain": [isa.movi(5, 7), isa.store(5, 0, 3), isa.halt()],
    "after-movi-r0": [isa.movi(0, 4096), isa.movi(5, 7), isa.store(5, 0, 3),
                      isa.halt()],
}


class TestStoreThroughR0:
    @pytest.mark.parametrize("name", sorted(R0_STORES))
    def test_analyzer_reports_wx_error(self, name):
        report = analyze_program(assemble(R0_STORES[name]))
        assert [f.pc for f in report.errors if f.category == "wx"] == [
            len(R0_STORES[name]) - 2]

    @pytest.mark.parametrize("name", sorted(R0_STORES))
    def test_enforce_refuses_before_dram(self, sandbox, name):
        bank = sandbox.machine.banks["model_dram"]
        before = bank.snapshot(0, 64)
        with pytest.raises(GuestRejected) as excinfo:
            sandbox.hypervisor.load_guest(assemble(R0_STORES[name]),
                                          name=name)
        assert any(f.category == "wx" for f in excinfo.value.findings)
        assert bank.snapshot(0, 64) == before


class TestPolicyKnob:
    def test_warn_policy_loads_but_logs(self):
        machine = build_guillotine_machine()
        hypervisor = GuillotineHypervisor(machine, verify_guests="warn")
        core, _ = hypervisor.load_guest(
            programs.flood_program(iterations=10), name="flood")
        assert hypervisor.guests_verified == 1
        records = machine.log.by_category(CATEGORY_ADMISSION)
        assert records[-1].detail["verdict"] == "flagged"

    def test_off_policy_skips_analysis_and_topology(self):
        machine = build_guillotine_machine()
        machine.bus.connect("model_core0", "hv_dram")   # sabotage
        hypervisor = GuillotineHypervisor(machine, verify_guests="off")
        assert hypervisor.topology_report is None
        hypervisor.load_guest(programs.flood_program(iterations=10))
        assert hypervisor.last_admission_report is None

    def test_bool_aliases(self):
        machine = build_guillotine_machine()
        assert GuillotineHypervisor(machine,
                                    verify_guests=True).verify_guests == "enforce"
        machine = build_guillotine_machine()
        assert GuillotineHypervisor(machine,
                                    verify_guests=False).verify_guests == "off"

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            GuillotineHypervisor(build_guillotine_machine(),
                                 verify_guests="audit")

    def test_miswired_machine_refused_at_boot(self):
        machine = build_guillotine_machine()
        machine.bus.connect("model_core0", "hv_dram")
        with pytest.raises(TopologyRejected):
            GuillotineHypervisor(machine)

    def test_default_machine_gets_topology_certificate(self, sandbox):
        assert sandbox.hypervisor.topology_report is not None
        assert sandbox.hypervisor.topology_report.certified


class TestBaselineContrast:
    def test_baseline_runs_what_guillotine_refuses(self):
        """The acceptance criterion: Guillotine with verification on refuses
        ``store_to_code_program`` while the traditional platform loads and
        executes it without a second look."""
        deployment = UnsandboxedDeployment()
        program = programs.store_to_code_program(code_vaddr_slot=40)
        layout = deployment.hypervisor.install_guest(program)
        assert layout["code_pages"] >= 1

        sandbox = GuillotineSandbox.create()
        with pytest.raises(GuestRejected):
            sandbox.hypervisor.load_guest(program, name="store_to_code")
