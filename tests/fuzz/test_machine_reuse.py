"""Machine reuse under the fuzz oracles: a released machine is
indistinguishable from a never-leased one, for every lease shape.

The oracles lease every machine (:func:`repro.hw.machine.lease_machine`)
and release it scrubbed, so one process builds three machines instead of
ten per program.  These tests are the reuse-hygiene net for that: each
lease shape leaves a spare that fingerprints like a fresh build, gets the
engine it asks for on its next lease, and has gained no log subscriber;
outcomes after a hostile predecessor equal outcomes from empty free
lists; and oracle 5 never restores onto its own source machine.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest

import repro.fleet.checkpoint as checkpoint_module
import repro.fuzz.oracles as oracles
import repro.hw.machine as machine_module
from repro.fuzz.gen import DATA_PAGES, DATA_VADDR
from repro.fuzz.oracles import (
    _check_admission,
    _scalar_probe,
    batch_noninterference_probes,
    check_program,
    execute_program,
    fuzz_baseline_config,
    fuzz_guillotine_config,
    migration_probe,
)
from repro.fuzz.replay import load_artifact
from repro.hw import isa
from repro.hw.isa import assemble
from repro.hw.machine import (
    ENGINES,
    build_baseline_machine,
    build_guillotine_machine,
    lease_machine,
    machine_fingerprint,
    release_machine,
)
from repro.hw.memory import PAGE_SIZE
from repro.model.programs import flood_program

#: Leaves every kind of state a run can: stores across both data pages, a
#: hot loop (compiled traces), an accepted doorbell and an armed timer.
DIRTY = assemble([
    isa.movi(1, DATA_VADDR),
    isa.movi(2, DATA_VADDR + DATA_PAGES * PAGE_SIZE),
    isa.movi(3, 0x5EED),
    "fill",
    isa.store(3, 1, 0),
    isa.addi(1, 1, 3),
    isa.blt(1, 2, "fill"),
    isa.doorbell(3),
    isa.movi(4, 100_000),
    isa.settimer(4),
    isa.halt(),
]).words

#: Admission accepts this one (one store into a data page).
BENIGN = assemble([
    isa.movi(1, DATA_VADDR),
    isa.movi(2, 42),
    isa.store(2, 1, 0),
    isa.halt(),
]).words

#: Admission rejects this one (a doorbell flood).
FLOOD = flood_program(iterations=1000).words

#: Hostile predecessors for the warm-versus-cold comparison.
PREDECESSORS = {
    "faulting": assemble([
        isa.movi(1, 1), isa.movi(2, 0), isa.div(3, 1, 2), isa.halt(),
    ]).words,
    "writes-every-data-page": DIRTY,
    "timer-then-wfi": assemble([
        isa.movi(1, 100_000), isa.settimer(1), isa.wfi(), isa.halt(),
    ]).words,
    "rejected-by-admission": FLOOD,
}

#: Every way the oracles lease machines, run once each.
SHAPES = {
    "guillotine-fast": lambda: execute_program(DIRTY, fast_path=True),
    "guillotine-reference": lambda: execute_program(DIRTY, fast_path=False),
    "baseline": lambda: execute_program(DIRTY, machine_kind="baseline"),
    "scalar-probe": lambda: _scalar_probe(DIRTY, 1, max_steps=600),
    "batch-lanes": lambda: batch_noninterference_probes(DIRTY, (0, 1)),
    "migration": lambda: migration_probe(DIRTY),
    "admission-accepted": lambda: _check_admission(BENIGN),
    "admission-rejected": lambda: _check_admission(FLOOD),
}

#: How many machines of each kind a shape holds at once.
HELD = {
    "guillotine-fast": {"guillotine": 1},
    "guillotine-reference": {"guillotine": 1},
    "baseline": {"baseline": 1},
    "scalar-probe": {"guillotine": 1},
    "batch-lanes": {"guillotine": 2},
    "migration": {"guillotine": 2},
    "admission-accepted": {"guillotine": 1},
    "admission-rejected": {"guillotine": 1},
}

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(entry for entry in os.listdir(CORPUS_DIR)
                if entry.endswith(".json"))


@contextmanager
def empty_free_lists():
    """Run with no spare machines; yields the free lists it starts."""
    saved = machine_module._SPARES
    machine_module._SPARES = {}
    try:
        yield machine_module._SPARES
    finally:
        machine_module._SPARES = saved


def _spares(free_lists) -> list:
    return [machine for spares in free_lists.values() for machine in spares]


def _fresh(kind: str):
    if kind == "guillotine":
        return build_guillotine_machine(fuzz_guillotine_config())
    return build_baseline_machine(fuzz_baseline_config())


def _engine_flags(machine) -> set:
    return {(core.fast_path, core.trace_jit)
            for core in machine.model_cores + machine.hv_cores}


@pytest.mark.parametrize("shape", sorted(SHAPES))
class TestEveryLeaseShape:
    def test_spares_fingerprint_like_a_fresh_build(self, shape, monkeypatch):
        dirty = []

        def release(machine):
            dirty.append(machine_fingerprint(machine))
            release_machine(machine)

        monkeypatch.setattr(oracles, "release_machine", release)
        with empty_free_lists() as free_lists:
            SHAPES[shape]()
            spares = _spares(free_lists)
        kinds: dict[str, int] = {}
        for machine in spares:
            kinds[machine.name] = kinds.get(machine.name, 0) + 1
        assert kinds == HELD[shape]
        pristine = {kind: machine_fingerprint(_fresh(kind)) for kind in kinds}
        # The run left dirt that the release had to scrub away.
        assert any(seen not in pristine.values() for seen in dirty)
        for machine in spares:
            assert machine_fingerprint(machine) == pristine[machine.name]
            assert machine.lease_key is None

    def test_log_gains_no_subscriber(self, shape):
        with empty_free_lists() as free_lists:
            SHAPES[shape]()
            for machine in _spares(free_lists):
                assert machine.log._subscribers == \
                    _fresh(machine.name).log._subscribers == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_next_lease_gets_the_engine_it_asks_for(self, shape, engine):
        with empty_free_lists() as free_lists:
            SHAPES[shape]()
            spare = _spares(free_lists)[-1]
            builder = (build_guillotine_machine
                       if spare.name == "guillotine"
                       else build_baseline_machine)
            leased = lease_machine(builder, spare.config, engine)
            assert leased is spare
            assert _engine_flags(leased) == {
                (engine != "reference", engine == "trace")}
            release_machine(leased)


class TestWarmEqualsCold:
    @pytest.fixture(scope="class")
    def cold(self):
        outcomes = {}
        for name in CORPUS:
            words = _corpus_words(name)
            with empty_free_lists():
                outcomes[name] = check_program(words)
        return outcomes

    @pytest.mark.parametrize("predecessor", sorted(PREDECESSORS))
    def test_corpus_after_a_hostile_predecessor(self, predecessor, cold):
        for name in CORPUS:
            with empty_free_lists():
                check_program(PREDECESSORS[predecessor])
                assert check_program(_corpus_words(name)) == cold[name], name

    def test_predecessors_are_hostile(self):
        assert execute_program(PREDECESSORS["faulting"]).state == "FAULTED"
        assert execute_program(PREDECESSORS["timer-then-wfi"]).state == "WFI"
        assert _check_admission(PREDECESSORS["rejected-by-admission"]) \
            is False
        assert _check_admission(BENIGN) is True


class TestMigrationTarget:
    def test_restore_target_is_never_the_source(self, monkeypatch):
        captured, restored = [], []
        capture = checkpoint_module.capture_checkpoint
        restore = checkpoint_module.restore_checkpoint

        def spy_capture(machine):
            captured.append(machine)
            return capture(machine)

        def spy_restore(machine, image):
            restored.append(machine)
            return restore(machine, image)

        monkeypatch.setattr(checkpoint_module, "capture_checkpoint",
                            spy_capture)
        monkeypatch.setattr(checkpoint_module, "restore_checkpoint",
                            spy_restore)
        with empty_free_lists():
            for _ in range(3):  # cold, then from spares
                migration_probe(DIRTY)
        assert len(captured) == len(restored) == 3
        for source, target in zip(captured, restored):
            assert target is not source
        # The later calls reused both machines of the first.
        assert {id(m) for m in captured + restored} == \
            {id(captured[0]), id(restored[0])}


class TestFreeList:
    def test_a_process_builds_only_what_it_holds_at_once(self):
        with empty_free_lists() as free_lists:
            for words in (DIRTY, BENIGN, FLOOD):
                check_program(words)
            assert sorted(m.name for m in _spares(free_lists)) == \
                ["baseline", "guillotine", "guillotine"]

    def test_a_machine_whose_scrub_refuses_is_dropped(self):
        config = fuzz_guillotine_config()
        with empty_free_lists() as free_lists:
            machine = lease_machine(build_guillotine_machine, config,
                                    "trace")
            machine.clock.call_at(10, lambda: None)
            release_machine(machine)
            assert _spares(free_lists) == []
            again = lease_machine(build_guillotine_machine, config, "trace")
            assert again is not machine
            release_machine(again)
            assert _spares(free_lists) == [again]

    def test_release_of_an_unleased_machine_is_refused(self):
        with empty_free_lists():
            with pytest.raises(ValueError, match="not leased"):
                release_machine(_fresh("guillotine"))
            machine = lease_machine(build_guillotine_machine,
                                    fuzz_guillotine_config(), "fast")
            release_machine(machine)
            with pytest.raises(ValueError, match="not leased"):
                release_machine(machine)

    def test_geometries_do_not_share_spares(self):
        small = fuzz_guillotine_config()
        large = fuzz_guillotine_config()
        large.model_dram_pages *= 2
        with empty_free_lists():
            machine = lease_machine(build_guillotine_machine, small, "trace")
            release_machine(machine)
            other = lease_machine(build_guillotine_machine, large, "trace")
            assert other is not machine
            assert other.banks["model_dram"].size == 2 * \
                machine.banks["model_dram"].size
            release_machine(other)


def _corpus_words(name: str) -> tuple[int, ...]:
    artifact = load_artifact(os.path.join(CORPUS_DIR, name))
    return tuple(int(word, 16) for word in artifact["program"]["words_hex"])
