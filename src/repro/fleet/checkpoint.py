"""VM checkpoint/restore: serialize a guest machine image, rebuild it elsewhere.

A checkpoint is a ``repro.fleet/2`` JSON artifact of kind ``"checkpoint"``
(the same idiom as the ``repro.replay/1`` golden artifacts: hex words,
string keys, no wall-clock anywhere) capturing everything a restored guest
needs to keep executing **cycle-identically**.  The image is sparse: it
lists what differs from a power-on machine, and an entry it does not list
is at its power-on value.

* every DRAM bank's non-zero words (``words_hex``: address -> hex word;
  an absent word is 0),
* per-core architectural state — registers, pc, run state, exception
  machinery, the SETTIMER deadline (stored relative to virtual ``now``),
  retirement counters,
* per-core *timing-architectural* microarch state — TLB (vpn→ppn pairs in
  LRU order), each private cache's non-empty sets (``{set index: [tags,
  most recent first]}``; an absent set is empty), and the branch-predictor
  counters that left their weakly-not-taken reset value (``{index:
  counter}``; an absent counter is 1) — plus the machine's shared cache
  levels in the same set form,
* per-core MMU translation tables with the lockdown / weight regions,
* per-core LAPIC queues (pending, per-source windows, coalesced slots),
* the virtual clock reading at capture time.

Restore writes the image over power-on contents, whatever the destination
held before.  The whole document is checked against the destination first
— identical geometry, every bank, core, cache, allocator and LAPIC of the
destination named and no other, every word, set, tag, counter and TLB
entry one the hardware can hold — so a malformed image raises
:class:`CheckpointError` and leaves the machine untouched.  Then each bank
is zeroed and its listed words applied (which also drops the
decoded-instruction and superblock-trace caches — purely Python-cost
state), each cache is flushed and each predictor reset before the listed
sets and counters go in, translation tables are replayed through the
normal MMU interfaces and the lockdown re-issued, and the destination
clock is ticked forward to the checkpoint's ``now`` so absolute
timestamps (LAPIC windows, cycle counters) line up.  Restore is not
:meth:`~repro.hw.machine.Machine.scrub`: it leaves alone what the image
does not carry.

Deliberately *not* captured: the event log (the audit trail belongs to
the physical machine, and its hash chain cannot be replayed elsewhere),
device state (guests own no device sessions at migration time), DRAM
fault-injection state (environment, not guest: a stuck cell on the
destination stays stuck), and operator-facing debug state (watchpoints,
speculation config).
"""

from __future__ import annotations

from typing import Any

from repro.artifacts import ArtifactError, check_fields, check_items, json_name
from repro.errors import MemoryFault
from repro.hw.core import CoreState
from repro.hw.machine import Machine
from repro.hw.memory import WORD_MASK, Mmu, PageTableEntry

CHECKPOINT_SCHEMA = "repro.fleet/2"

#: Geometry fields that must match between source and destination.
_CONFIG_FIELDS = (
    "n_model_cores",
    "n_hv_cores",
    "model_dram_pages",
    "hv_dram_pages",
    "io_dram_pages",
    "l1_sets",
    "l1_ways",
    "l2_sets",
    "l2_ways",
    "tlb_entries",
    "lapic_throttle_window",
    "lapic_throttle_max",
)

_NULL = type(None)

#: JSON type of each geometry field.
_CONFIG_TYPES = {field: (int, _NULL) if field == "lapic_throttle_max" else int
                 for field in _CONFIG_FIELDS}

#: JSON type of every top-level field :func:`restore_checkpoint` reads.
_IMAGE_FIELDS = {
    "config": dict, "clock_now": int, "banks": dict, "allocators": dict,
    "cores": dict, "lapics": dict, "shared_caches": dict,
}

#: JSON type of every field restore reads from one core's state.
_CORE_FIELDS = {
    "registers": list, "pc": int, "state": str,
    "exception_vector": (int, _NULL), "saved_pc": int, "in_handler": bool,
    "timer_remaining": (int, _NULL), "timer_fires": int,
    "instructions_retired": int, "faults": int, "last_fault": (str, _NULL),
    "tlb": list, "branch_predictor": dict, "private_caches": dict,
    "mmu": dict, "mmu.table": dict, "mmu.exec_region": (list, _NULL),
    "mmu.weight_region": (list, _NULL),
}

#: JSON type of every field restore reads from one LAPIC's state.
_LAPIC_FIELDS = {
    "pending": list, "recent": dict, "coalesced": dict,
    "accepted": int, "throttled": int,
}

#: Item types of a two-number array and of an interrupt array.
_PAIR = (int, int)
_INTERRUPT = (str, int, int, int)


class CheckpointError(ValueError):
    """A checkpoint cannot be applied to the given machine."""


def _bank_block(bank) -> dict[str, Any]:
    return {
        "size_words": bank.size,
        "words_hex": {str(address): f"0x{word:016x}"
                      for address, word in bank.nonzero_words()},
    }


def _string_keys(snapshot: dict[int, Any]) -> dict[str, Any]:
    """A sparse cache or predictor snapshot with JSON object keys."""
    return {str(index): value for index, value in snapshot.items()}


def _mmu_block(mmu) -> dict[str, Any]:
    exec_region = mmu.exec_region
    weight_region = mmu.weight_region
    return {
        "table": {
            str(vpn): [entry.ppn, entry.perm_bits]
            for vpn, entry in sorted(mmu.table_snapshot().items())
        },
        "exec_region": (
            None if exec_region is None
            else [exec_region.base_vpn, exec_region.bound_vpn]),
        "weight_region": (
            None if weight_region is None
            else [weight_region.base_vpn, weight_region.bound_vpn]),
    }


def capture_checkpoint(machine: Machine) -> dict[str, Any]:
    """Snapshot a whole machine's guest-visible image as a JSON-safe dict."""
    cores = {}
    lapics = {}
    for core in machine.model_cores + machine.hv_cores:
        state = core.capture_architectural_state()
        state["branch_predictor"] = _string_keys(state["branch_predictor"])
        state["private_caches"] = {
            name: _string_keys(sets)
            for name, sets in state["private_caches"].items()}
        state["mmu"] = _mmu_block(core.mmu)
        cores[core.name] = state
        lapic = machine.lapics.get(core.name)
        if lapic is not None:
            lapics[core.name] = lapic.state_snapshot()
    return {
        "schema": CHECKPOINT_SCHEMA,
        "kind": "checkpoint",
        "machine": machine.name,
        "host_id": machine.config.host_id,
        "config": {field: getattr(machine.config, field)
                   for field in _CONFIG_FIELDS},
        "clock_now": machine.clock.now,
        "banks": {name: _bank_block(machine.banks[name])
                  for name in sorted(machine.banks)},
        "allocators": {name: machine.allocators[name].frames_used
                       for name in sorted(machine.allocators)},
        "cores": cores,
        "lapics": lapics,
        "shared_caches": {cache.name: _string_keys(cache.lines_snapshot())
                          for cache in machine.shared_caches},
    }


def _named(kind: str, names, known) -> None:
    """``names`` are exactly the ``known`` ones: restore writes every
    structure of the destination, so the image must name each of them."""
    for name in names:
        if name not in known:
            raise CheckpointError(f"checkpoint names unknown {kind} {name!r}")
    for name in known:
        if name not in names:
            raise CheckpointError(f"checkpoint lacks {kind} {name!r}")


def _check_block(name: str, block, fields: dict) -> None:
    """:func:`check_fields` on the object field ``name``."""
    if type(block) is not dict:
        raise ArtifactError(
            f"field {name} is {json_name(block)}, not an object")
    try:
        check_fields(block, fields)
    except ArtifactError as exc:
        raise ArtifactError(f"{name}: {exc}") from None


def _check_array(name: str, value, kind, length: int | None = None) -> None:
    """``value`` is an array of ``kind`` items (``length`` of them)."""
    if type(value) is not list or length not in (None, len(value)):
        count = "" if length is None else f"{length} "
        raise ArtifactError(f"field {name} is not an array of {count}items")
    check_items(name, value, kind)


def _check_tuple(name: str, value, shape: str, kinds: tuple) -> None:
    """``value`` is ``shape``: an array of one item of each of ``kinds``
    (or a tuple, in an image restored without a JSON round trip)."""
    if (type(value) not in (list, tuple) or len(value) != len(kinds)
            or any(type(item) is not kind
                   for item, kind in zip(value, kinds))):
        raise ArtifactError(f"field {name} is {value!r}, not {shape}")


def _index(name: str, key, size: int) -> int:
    """The object key ``key`` of field ``name`` as an index in 0..size-1."""
    if not (type(key) is str and key.isascii() and key.isdecimal()
            and int(key) < size):
        raise ArtifactError(
            f"{name}: key {key!r} is not an index in 0..{size - 1}")
    return int(key)


def _decode_words(name: str, block, size: int) -> dict[int, int]:
    """A bank block's listed words, address -> word."""
    _check_block(f"banks.{name}", block, {"size_words": int,
                                          "words_hex": dict})
    if block["size_words"] != size:
        raise ArtifactError(f"field banks.{name}.size_words is "
                            f"{block['size_words']}, not {size}")
    words = {}
    for address, word_hex in block["words_hex"].items():
        index = _index(f"banks.{name}.words_hex", address, size)
        try:  # TypeError: not a string
            word = int(word_hex, 16)
            if not 0 <= word <= WORD_MASK:
                raise ValueError
        except (TypeError, ValueError):
            raise ArtifactError(f"field banks.{name}.words_hex.{address} "
                                f"is not a 64-bit hex word") from None
        words[index] = word
    return words


def _decode_sets(name: str, sets, cache) -> dict[int, list[int]]:
    """A cache's listed sets: each index in range, each set at most
    ``ways`` distinct tags."""
    if type(sets) is not dict:
        raise ArtifactError(
            f"field {name} is {json_name(sets)}, not an object")
    decoded = {}
    for key, tags in sets.items():
        index = _index(name, key, cache.num_sets)
        _check_array(f"{name}.{key}", tags, int)
        if (len(tags) > cache.ways or len(set(tags)) != len(tags)
                or any(tag < 0 for tag in tags)):
            raise ArtifactError(
                f"field {name}.{key} is not at most {cache.ways} distinct "
                f"non-negative tags")
        decoded[index] = tags
    return decoded


def _decode_counters(name: str, counters, predictor) -> dict[int, int]:
    """A predictor's listed counters: each index in range, each counter
    one a saturating counter can hold."""
    decoded = {}
    for key, counter in counters.items():
        index = _index(name, key, predictor.table_size)
        if type(counter) is not int \
                or not 0 <= counter <= predictor.MAX_COUNTER:
            raise ArtifactError(
                f"field {name}.{key} is {counter!r}, not a counter in "
                f"0..{predictor.MAX_COUNTER}")
        decoded[index] = counter
    return decoded


def _decode_core(name: str, state, core) -> tuple[tuple, dict]:
    """Check one core's state; return its translation state (the arguments
    of :meth:`~repro.hw.memory.Mmu.restore_translation`) and the state
    :meth:`~repro.hw.core.Core.restore_architectural_state` installs."""
    _check_block(f"cores.{name}", state, _CORE_FIELDS)
    if state["state"] not in CoreState.__members__:
        raise ArtifactError(
            f"field cores.{name}.state is {state['state']!r}")
    _check_array(f"cores.{name}.registers", state["registers"], int,
                 len(core.registers))
    tlb = core.caches.tlb
    if len(state["tlb"]) > tlb.capacity:
        raise ArtifactError(f"field cores.{name}.tlb holds more than "
                            f"{tlb.capacity} entries")
    for index, pair in enumerate(state["tlb"]):
        _check_tuple(f"cores.{name}.tlb[{index}]", pair, "[vpn, ppn]", _PAIR)
    if len({vpn for vpn, _ in state["tlb"]}) != len(state["tlb"]):
        raise ArtifactError(f"field cores.{name}.tlb repeats a vpn")
    private = {cache.name: cache for cache in core.caches.private}
    _named("cache", state["private_caches"], private)
    counters = _decode_counters(f"cores.{name}.branch_predictor",
                                state["branch_predictor"],
                                core.caches.branch_predictor)
    caches = {cache: _decode_sets(f"cores.{name}.private_caches.{cache}",
                                  sets, private[cache])
              for cache, sets in state["private_caches"].items()}
    mmu = state["mmu"]
    regions = []
    for region in ("exec_region", "weight_region"):
        if mmu[region] is not None:
            _check_tuple(f"cores.{name}.mmu.{region}", mmu[region],
                         "[base_vpn, bound_vpn]", _PAIR)
        regions.append(tuple(mmu[region]) if mmu[region] else None)
    table = {}
    for vpn, entry in mmu["table"].items():
        if not vpn.isdecimal():
            raise ArtifactError(
                f"cores.{name}.mmu.table: vpn {vpn!r} is not a number")
        _check_tuple(f"cores.{name}.mmu.table.{vpn}", entry, "[ppn, bits]",
                     _PAIR)
        table[int(vpn)] = PageTableEntry.from_bits(*entry)
    translation = (table, *regions)
    try:  # a dry run: a forged lockdown fails here, not on the core
        Mmu(f"{name}.mmu").restore_translation(*translation)
    except (MemoryFault, ValueError) as exc:
        raise CheckpointError(f"cores.{name}.mmu: {exc}") from None
    return translation, {**state, "branch_predictor": counters,
                         "private_caches": caches}


def _check_lapic(name: str, state) -> None:
    _check_block(f"lapics.{name}", state, _LAPIC_FIELDS)
    shape = "[source, vector, payload, time]"
    for index, item in enumerate(state["pending"]):
        _check_tuple(f"lapics.{name}.pending[{index}]", item, shape,
                     _INTERRUPT)
    for source, item in state["coalesced"].items():
        _check_tuple(f"lapics.{name}.coalesced.{source}", item, shape,
                     _INTERRUPT)
    for source, times in state["recent"].items():
        _check_array(f"lapics.{name}.recent.{source}", times, int)


def _check_image(machine: Machine, checkpoint) -> tuple[dict, dict, dict]:
    """Check the whole checkpoint against ``machine`` without touching it.

    Returns the decoded image: each bank's listed words, each core's
    translation and architectural state, and each shared cache's listed
    sets.  Raises :class:`CheckpointError`, or :class:`ArtifactError` for
    a field of the wrong shape."""
    if type(checkpoint) is not dict:
        raise CheckpointError(
            f"checkpoint is {json_name(checkpoint)}, not an object")
    if checkpoint.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"not a {CHECKPOINT_SCHEMA} artifact: {checkpoint.get('schema')!r}")
    if checkpoint.get("kind") != "checkpoint":
        raise CheckpointError(f"not a checkpoint: {checkpoint.get('kind')!r}")
    check_fields(checkpoint, _IMAGE_FIELDS)
    _check_block("config", checkpoint["config"], _CONFIG_TYPES)
    for field in _CONFIG_FIELDS:
        have = getattr(machine.config, field)
        want = checkpoint["config"][field]
        if have != want:
            raise CheckpointError(
                f"geometry mismatch: {field} is {have}, checkpoint "
                f"needs {want}")
    if machine.clock.now > checkpoint["clock_now"]:
        raise CheckpointError(
            f"destination clock ({machine.clock.now}) is ahead of the "
            f"checkpoint ({checkpoint['clock_now']})")

    cores = {core.name: core
             for core in machine.model_cores + machine.hv_cores}
    shared = {cache.name: cache for cache in machine.shared_caches}
    _named("bank", checkpoint["banks"], machine.banks)
    _named("allocator", checkpoint["allocators"], machine.allocators)
    _named("core", checkpoint["cores"], cores)
    _named("LAPIC", checkpoint["lapics"], machine.lapics)
    _named("shared cache", checkpoint["shared_caches"], shared)
    banks = {name: _decode_words(name, block, machine.banks[name].size)
             for name, block in checkpoint["banks"].items()}
    for name, frames in checkpoint["allocators"].items():
        if type(frames) is not int \
                or not 0 <= frames <= machine.banks[name].num_frames:
            raise ArtifactError(
                f"field allocators.{name} is {frames!r}, not a frame count "
                f"of its bank")
    core_states = {name: _decode_core(name, state, cores[name])
                   for name, state in checkpoint["cores"].items()}
    for name, state in checkpoint["lapics"].items():
        _check_lapic(name, state)
    shared_sets = {name: _decode_sets(f"shared_caches.{name}", sets,
                                      shared[name])
                   for name, sets in checkpoint["shared_caches"].items()}
    return banks, core_states, shared_sets


def restore_checkpoint(machine: Machine, checkpoint: dict[str, Any]) -> None:
    """Install a checkpoint image onto ``machine``, over power-on contents.

    The destination must have identical geometry and must not be ahead of
    the checkpoint in virtual time (fleet members share a clock; a fresh
    standby machine trivially satisfies this).  Restoring over a machine
    whose model cores still run a live guest would *duplicate* that guest
    — callers (the fleet migration path) enforce vacancy; this function
    enforces geometry, time and the shape of the whole image: a malformed
    one raises :class:`CheckpointError` before the machine is touched.
    """
    try:
        banks, core_states, shared_sets = _check_image(machine, checkpoint)
    except ArtifactError as exc:
        raise CheckpointError(str(exc)) from exc

    for name, words in banks.items():
        # Zero, then apply: an unlisted word reads 0 whatever the bank held,
        # and the decoded instructions and superblock traces over the bank
        # — Python-cost caches a migrated image must not inherit from the
        # destination's previous life — are dropped.
        machine.banks[name].load_sparse(words)
    for name, frames in checkpoint["allocators"].items():
        machine.allocators[name].advance_to(frames)

    # Clock first: core/LAPIC state carries absolute timestamps that are
    # only meaningful at the checkpoint's ``now``.  On a machine with no
    # pending events this cleanly fast-forwards virtual time.
    machine.clock.tick(checkpoint["clock_now"] - machine.clock.now)

    by_name = {core.name: core
               for core in machine.model_cores + machine.hv_cores}
    for name, (translation, state) in core_states.items():
        by_name[name].mmu.restore_translation(*translation)
        by_name[name].restore_architectural_state(state)
    for name, state in checkpoint["lapics"].items():
        machine.lapics[name].restore_state(state)
    for cache in machine.shared_caches:
        cache.restore_lines(shared_sets[cache.name])
