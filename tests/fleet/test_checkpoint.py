"""Checkpoint/restore determinism: a migrated run must be bit-identical
to an uninterrupted one — cycles included — on every engine.

This is the contract the whole migration story rests on: the fused fast
path and the superblock trace JIT are Python-cost optimizations, so a
checkpoint taken mid-trace restores onto a cold machine and still lands
on exactly the same architectural state at exactly the same cycle.
"""

from __future__ import annotations

import json

import pytest

from repro.fleet.checkpoint import (
    CHECKPOINT_SCHEMA,
    CheckpointError,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.fleet.fleet import benign_guest_program, member_config
from repro.hw import isa
from repro.hw.machine import (
    MachineConfig,
    build_guillotine_machine,
    machine_fingerprint,
)

#: (fast_path, traces) for the three interpreter engines.
ENGINES = [
    pytest.param(False, False, id="reference"),
    pytest.param(True, False, id="fast"),
    pytest.param(True, True, id="traces"),
]

SPLIT = 150
TOTAL = 400


def _machine(fast: bool, traces: bool):
    machine = build_guillotine_machine(member_config(0))
    machine.set_fast_path(fast)
    machine.set_traces(traces)
    return machine


def _boot(machine, program=None):
    core = machine.model_cores[0]
    layout = machine.load_program(
        core, program or benign_guest_program(), data_pages=2,
        map_io_region=False)
    machine.control_bus.lockdown_mmu(core.name, 0, layout["code_pages"] - 1)
    core.resume()
    return core


def _state(machine, core):
    return {
        "pc": core.pc,
        "state": core.state.name,
        "registers": tuple(core.registers),
        "cycles": machine.clock.now,
        "retired": core.instructions_retired,
        "faults": core.faults,
        "timer_fires": core.timer_fires,
        "model_dram": tuple(machine.banks["model_dram"].snapshot()),
    }


class TestCycleExactness:
    @pytest.mark.parametrize("fast,traces", ENGINES)
    def test_mid_run_round_trip_is_bit_identical(self, fast, traces):
        # Uninterrupted run.
        straight = _machine(fast, traces)
        core = _boot(straight)
        assert core.run(max_steps=TOTAL) == TOTAL
        want = _state(straight, core)

        # Interrupted: run, checkpoint, JSON round-trip, restore, continue.
        source = _machine(fast, traces)
        source_core = _boot(source)
        assert source_core.run(max_steps=SPLIT) == SPLIT
        artifact = json.loads(json.dumps(
            capture_checkpoint(source), sort_keys=True))

        target = _machine(fast, traces)
        restore_checkpoint(target, artifact)
        target_core = target.model_cores[0]
        assert target_core.run(max_steps=TOTAL - SPLIT) == TOTAL - SPLIT
        assert _state(target, target_core) == want

    @pytest.mark.parametrize("fast,traces", ENGINES)
    def test_cross_engine_restore_agrees(self, fast, traces):
        """A checkpoint taken under the trace JIT restores onto any engine
        and still reaches the same architectural state (the engines are
        cycle-equivalent, so the artifact is engine-neutral)."""
        source = _machine(True, True)
        source_core = _boot(source)
        source_core.run(max_steps=SPLIT)
        artifact = capture_checkpoint(source)

        target = _machine(fast, traces)
        restore_checkpoint(target, artifact)
        target_core = target.model_cores[0]
        target_core.run(max_steps=TOTAL - SPLIT)

        straight = _machine(fast, traces)
        straight_core = _boot(straight)
        straight_core.run(max_steps=TOTAL)
        got = _state(target, target_core)
        want = _state(straight, straight_core)
        assert got == want

    def test_pending_timer_survives_the_move(self):
        """A SETTIMER deadline armed before the checkpoint fires at the
        same virtual instant after restore."""
        program = isa.assemble([
            isa.jmp("main"),
            "handler",
            isa.movi(5, 777),
            isa.iret(),
            "main",
            isa.movi(1, 40),
            isa.settimer(1),
            isa.movi(2, 4000),
            "loop",
            isa.addi(3, 3, 1),
            isa.blt(3, 2, "loop"),
            isa.halt(),
        ])

        def boot(machine):
            core = _boot(machine, program)
            core.exception_vector = program.symbols["handler"]
            return core

        straight = _machine(True, True)
        core = boot(straight)
        core.run(max_steps=TOTAL)
        want = _state(straight, core)
        assert want["timer_fires"] >= 1

        source = _machine(True, True)
        source_core = boot(source)
        source_core.run(max_steps=10)   # timer armed, not yet fired
        assert source_core.timer_fires == 0
        artifact = json.loads(json.dumps(capture_checkpoint(source)))
        target = _machine(True, True)
        restore_checkpoint(target, artifact)
        target_core = target.model_cores[0]
        target_core.run(max_steps=TOTAL - 10)
        assert _state(target, target_core) == want


class TestArtifact:
    def test_schema_and_kind(self):
        machine = _machine(True, True)
        _boot(machine).run(max_steps=20)
        artifact = capture_checkpoint(machine)
        assert artifact["schema"] == CHECKPOINT_SCHEMA
        assert artifact["kind"] == "checkpoint"
        assert artifact["clock_now"] == machine.clock.now

    def test_artifact_is_json_stable(self):
        machine = _machine(True, True)
        _boot(machine).run(max_steps=50)
        first = json.dumps(capture_checkpoint(machine), sort_keys=True)
        second = json.dumps(capture_checkpoint(machine), sort_keys=True)
        assert first == second

    def test_sparse_banks_only_store_nonzero_words(self):
        machine = _machine(True, True)
        _boot(machine).run(max_steps=20)
        block = capture_checkpoint(machine)["banks"]["model_dram"]
        assert block["size_words"] == machine.banks["model_dram"].size
        assert all(int(word, 16) != 0
                   for word in block["words_hex"].values())


class TestValidation:
    def test_geometry_mismatch_rejected(self):
        machine = _machine(True, True)
        _boot(machine).run(max_steps=20)
        artifact = capture_checkpoint(machine)
        other = build_guillotine_machine(MachineConfig(
            n_model_cores=1, n_hv_cores=1,
            model_dram_pages=32, hv_dram_pages=16, io_dram_pages=4))
        with pytest.raises(CheckpointError, match="geometry"):
            restore_checkpoint(other, artifact)

    def test_destination_ahead_in_time_rejected(self):
        machine = _machine(True, True)
        _boot(machine).run(max_steps=20)
        artifact = capture_checkpoint(machine)
        target = _machine(True, True)
        target.clock.tick(artifact["clock_now"] + 1)
        with pytest.raises(CheckpointError, match="ahead"):
            restore_checkpoint(target, artifact)

    def test_wrong_schema_rejected(self):
        target = _machine(True, True)
        with pytest.raises(CheckpointError, match="artifact"):
            restore_checkpoint(target, {"schema": "repro.replay/1"})

    def test_wrong_kind_rejected(self):
        target = _machine(True, True)
        with pytest.raises(CheckpointError, match="checkpoint"):
            restore_checkpoint(
                target, {"schema": CHECKPOINT_SCHEMA, "kind": "report"})


def _at(image, path: tuple):
    """The object holding the last key of ``path``, and that key."""
    *parents, key = path
    for parent in parents:
        image = image[parent]
    return image, key


def _set(*path, value):
    """A mutation that sets the field at the keys ``path``."""
    def mutate(image):
        holder, key = _at(image, path)
        holder[key] = value
    return mutate


def _delete(*path):
    def mutate(image):
        holder, key = _at(image, path)
        del holder[key]
    return mutate


def _first_word(value=None, address=None):
    """Replace the first stored model-DRAM word's value or address."""
    def mutate(image):
        words = image["banks"]["model_dram"]["words_hex"]
        first = next(iter(words))
        word = words.pop(first)
        words[first if address is None else address] = \
            word if value is None else value
    return mutate


_CORE = ("cores", "model_core0")
_TABLE = (*_CORE, "mmu", "table")
_PRIVATE = (*_CORE, "private_caches")


def _ghost(section: str, template: str):
    def mutate(image):
        image[section]["ghost"] = image[section][template]
    return mutate


#: One malformed image per way restore used to fail late or with the
#: wrong error: each must raise CheckpointError before touching anything.
MALFORMED = {
    "not-an-object": None,
    "unknown-core": _ghost("cores", "model_core0"),
    "cores-null": _set("cores", value=None),
    "missing-config": _delete("config"),
    "missing-banks": _delete("banks"),
    "config-field-missing": _delete("config", "tlb_entries"),
    "unknown-bank": _ghost("banks", "model_dram"),
    "unknown-allocator": _ghost("allocators", "model_dram"),
    "allocator-past-its-bank": _set("allocators", "model_dram",
                                    value=10 ** 6),
    "unknown-lapic": _ghost("lapics", "hv_core0"),
    "unknown-shared-cache": _ghost("shared_caches", "model.l2"),
    "non-hex-word": _first_word(value="0xnothex"),
    "word-not-a-string": _first_word(value=7),
    "word-address-out-of-range": _first_word(address=str(64 * 64 * 8)),
    "word-address-not-a-number": _first_word(address="-1"),
    "bank-size-mismatch": _set("banks", "model_dram", "size_words",
                               value=64),
    "mmu-entry-not-a-pair": _set(*_TABLE, "1", value=[1]),
    "mmu-entry-not-numbers": _set(*_TABLE, "1", value=["1", 6]),
    # A data page made executable outside the locked region.
    "mmu-forged-lockdown": _set(*_TABLE, "1", value=[1, 0b111]),
    "core-field-missing": _delete(*_CORE, "pc"),
    "core-state-unknown": _set(*_CORE, "state", value="SPINNING"),
    "core-registers-short": _set(*_CORE, "registers", value=[0, 1]),
    "core-predictor-not-numbers": _set(*_CORE, "branch_predictor",
                                       value={"0": "1"}),
    "core-tlb-entry-not-a-pair": _set(*_CORE, "tlb", value=[[1]]),
    "core-unknown-private-cache": _set(*_PRIVATE, "ghost.l1d", value={}),
    # A set past the cache's 256.
    "cache-lines-wrong-count": _set("shared_caches", "model.l2",
                                    value={"256": [1]}),
    "lapic-pending-malformed": _set("lapics", "hv_core0", "pending",
                                    value=[[1, 2]]),
    # Hardware that cannot exist.
    "tlb-over-capacity": _set(*_CORE, "tlb",
                              value=[[vpn, vpn] for vpn in range(40)]),
    "tlb-repeated-vpn": _set(*_CORE, "tlb", value=[[1, 1], [1, 2]]),
    "cache-set-over-ways": _set("shared_caches", "model.l2",
                                value={"0": list(range(50))}),
    "cache-tag-not-a-number": _set("shared_caches", "model.l2",
                                   value={"0": ["x"]}),
    "cache-tags-repeated": _set(*_PRIVATE, "model_core0.l1d",
                                value={"3": [5, 5]}),
    "cache-tag-negative": _set(*_PRIVATE, "model_core0.l1i",
                               value={"3": [-1]}),
    "cache-set-index-not-a-number": _set("shared_caches", "hv.l2",
                                         value={"-1": [1]}),
    "private-cache-set-index-out-of-range": _set(
        *_PRIVATE, "model_core0.l1d", value={"64": [1]}),
    "core-predictor-counter-too-high": _set(*_CORE, "branch_predictor",
                                            value={"0": 100}),
    "core-predictor-counter-negative": _set(*_CORE, "branch_predictor",
                                            value={"0": -5}),
    "core-predictor-index-out-of-range": _set(*_CORE, "branch_predictor",
                                              value={"256": 2}),
    "word-wider-than-64-bits": _first_word(value="0x1" + "0" * 16),
    # Restore writes every structure of the destination.
    "bank-missing": _delete("banks", "io_dram"),
    "core-missing": _delete("cores", "hv_core0"),
    "private-cache-missing": _delete(*_PRIVATE, "model_core0.l1i"),
    "shared-cache-missing": _delete("shared_caches", "hv.l2"),
    "lapic-missing": _delete("lapics", "hv_core0"),
    "allocator-missing": _delete("allocators", "io_dram"),
}


class TestMalformedImages:
    @pytest.fixture(scope="class")
    def image(self):
        source = _machine(True, True)
        _boot(source).run(max_steps=SPLIT)
        image = json.loads(json.dumps(capture_checkpoint(source)))
        assert image["clock_now"] >= 500
        assert image["banks"]["model_dram"]["words_hex"]
        return image

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_rejected_before_the_machine_is_touched(self, kind, image):
        broken = json.loads(json.dumps(image))
        if MALFORMED[kind] is None:
            broken = list(broken)
        else:
            MALFORMED[kind](broken)
        target = _machine(True, True)
        before = machine_fingerprint(target)
        with pytest.raises(CheckpointError):
            restore_checkpoint(target, broken)
        assert machine_fingerprint(target) == before

    def test_the_unmodified_image_restores(self, image):
        target = _machine(True, True)
        restore_checkpoint(target, json.loads(json.dumps(image)))
        assert target.clock.now == image["clock_now"]

    def test_the_dense_format_of_the_previous_schema_is_rejected(self, image):
        old = json.loads(json.dumps(image))
        old["schema"] = "repro.fleet/1"
        old["shared_caches"]["model.l2"] = [[] for _ in range(256)]
        target = _machine(True, True)
        with pytest.raises(CheckpointError, match="repro.fleet/2"):
            restore_checkpoint(target, old)


class TestSparseImage:
    """The image lists what differs from power-on, and restore writes it
    over power-on contents whatever the destination held."""

    def _image(self):
        source = _machine(True, True)
        _boot(source).run(max_steps=SPLIT)
        return json.loads(json.dumps(capture_checkpoint(source)))

    def test_a_scrubbed_machine_has_an_empty_image(self):
        machine = _machine(True, True)
        _boot(machine).run(max_steps=SPLIT)
        machine.scrub()
        image = capture_checkpoint(machine)
        assert all(not block["words_hex"]
                   for block in image["banks"].values())
        for state in image["cores"].values():
            assert state["branch_predictor"] == {}
            assert all(sets == {}
                       for sets in state["private_caches"].values())
        assert all(sets == {} for sets in image["shared_caches"].values())

    def test_a_run_lists_only_touched_sets_and_moved_counters(self):
        image = self._image()
        core = image["cores"]["model_core0"]
        assert core["branch_predictor"]
        assert all(counter != 1
                   for counter in core["branch_predictor"].values())
        l1d = core["private_caches"]["model_core0.l1d"]
        assert l1d and all(l1d.values())
        assert len(l1d) < 64

    def test_restore_over_a_dirty_destination_equals_one_onto_a_fresh(self):
        image = self._image()
        fresh = _machine(True, True)
        restore_checkpoint(fresh, image)

        dirty = _machine(True, True)
        pristine = machine_fingerprint(dirty)
        # A previous tenant's leftovers, without advancing the clock or
        # touching a counter: flipped DRAM bits in every bank, a full tag
        # array in every cache, every predictor counter strongly taken.
        for bank in dirty.banks.values():
            for address in range(0, bank.size, 97):
                bank.inject_bit_flip(address, 3)
        for core in dirty.model_cores + dirty.hv_cores:
            for cache in core.caches.private:
                cache.restore_lines({index: [index + 1000]
                                     for index in range(cache.num_sets)})
            predictor = core.caches.branch_predictor
            predictor.restore_counters(
                dict.fromkeys(range(predictor.table_size), 3))
        for cache in dirty.shared_caches:
            cache.restore_lines({index: list(range(cache.ways))
                                 for index in range(cache.num_sets)})
        assert machine_fingerprint(dirty) != pristine

        restore_checkpoint(dirty, image)
        assert machine_fingerprint(dirty) == machine_fingerprint(fresh)

    def test_restore_reasserts_a_stuck_bit_and_clears_a_flip(self):
        image = self._image()
        target = _machine(True, True)
        bank = target.banks["model_dram"]
        stuck = 3 * 64 + 5    # a data word the image lists as zero
        assert str(stuck) not in image["banks"]["model_dram"]["words_hex"]
        bank.inject_stuck_bit(stuck, 9, value=1)
        bank.inject_bit_flip(200, 2)
        writes = bank.write_count
        restore_checkpoint(target, image)
        assert bank.snapshot(stuck, 1) == [1 << 9]
        assert bank.snapshot(200, 1) == [
            int(image["banks"]["model_dram"]["words_hex"].get(
                "200", "0x0"), 16)]
        assert bank._corrupt == {}
        assert bank.write_count == writes + 1
