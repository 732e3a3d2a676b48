"""VM checkpoint/restore: serialize a guest machine image, rebuild it elsewhere.

A checkpoint is a ``repro.fleet/1`` JSON artifact (the same idiom as the
PR 6 ``repro.replay/1`` golden artifacts: hex words, sorted keys, no
wall-clock anywhere) capturing everything a restored guest needs to keep
executing **cycle-identically**:

* every DRAM bank's words (sparse: only non-zero words are stored),
* per-core architectural state — registers, pc, run state, exception
  machinery, the SETTIMER deadline (stored relative to virtual ``now``),
  retirement counters,
* per-core *timing-architectural* microarch state — TLB (vpn→ppn pairs in
  LRU order), private cache tag arrays, branch-predictor counters — plus
  the machine's shared cache levels,
* per-core MMU translation tables with the lockdown / weight regions,
* per-core LAPIC queues (pending, per-source windows, coalesced slots),
* the virtual clock reading at capture time.

Restore replays the image onto a power-on machine (a fresh build or a
scrubbed one) of identical geometry.  The whole document is checked
against the destination first, so a malformed image raises
:class:`CheckpointError` and leaves the machine untouched.  Then banks are
reloaded (which drops decoded-instruction and superblock-trace caches —
purely Python-cost state), translation tables are replayed through the
normal MMU interfaces and the lockdown re-issued, and the destination
clock is ticked forward to the checkpoint's ``now`` so absolute
timestamps (LAPIC windows, cycle counters) line up.

Deliberately *not* captured: the event log (the audit trail belongs to
the physical machine, and its hash chain cannot be replayed elsewhere),
device state (guests own no device sessions at migration time), DRAM
fault-injection state (environment, not guest), and operator-facing
debug state (watchpoints, speculation config).
"""

from __future__ import annotations

from typing import Any

from repro.artifacts import ArtifactError, check_fields, check_items, json_name
from repro.errors import MemoryFault
from repro.hw.core import CoreState
from repro.hw.machine import Machine
from repro.hw.memory import Mmu, PageTableEntry

CHECKPOINT_SCHEMA = "repro.fleet/1"

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
    "tlb": list, "branch_predictor": list, "private_caches": dict,
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
    words = bank.snapshot()
    return {
        "size_words": bank.size,
        "words_hex": {
            str(address): f"0x{word:016x}"
            for address, word in enumerate(words) if word
        },
    }


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
        "shared_caches": {cache.name: cache.lines_snapshot()
                          for cache in machine.shared_caches},
    }


def _known(kind: str, names, known) -> None:
    for name in names:
        if name not in known:
            raise CheckpointError(f"checkpoint names unknown {kind} {name!r}")


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


def _decode_words(name: str, block, size: int) -> list[int]:
    """A bank block's full word image."""
    _check_block(f"banks.{name}", block, {"size_words": int,
                                          "words_hex": dict})
    if block["size_words"] != size:
        raise ArtifactError(f"field banks.{name}.size_words is "
                            f"{block['size_words']}, not {size}")
    image = [0] * size
    for address, word_hex in block["words_hex"].items():
        if not (address.isdecimal() and int(address) < size):
            raise ArtifactError(f"banks.{name}.words_hex: address "
                                f"{address!r} is not in 0..{size - 1}")
        try:  # TypeError: not a string
            image[int(address)] = int(word_hex, 16)
        except (TypeError, ValueError):
            raise ArtifactError(f"field banks.{name}.words_hex.{address} "
                                f"is not a hex string") from None
    return image


def _decode_core(name: str, state, core) -> tuple:
    """Check one core's state; return its translation state, the
    arguments of :meth:`~repro.hw.memory.Mmu.restore_translation`."""
    _check_block(f"cores.{name}", state, _CORE_FIELDS)
    if state["state"] not in CoreState.__members__:
        raise ArtifactError(
            f"field cores.{name}.state is {state['state']!r}")
    _check_array(f"cores.{name}.registers", state["registers"], int,
                 len(core.registers))
    _check_array(f"cores.{name}.branch_predictor", state["branch_predictor"],
                 int, core.caches.branch_predictor.table_size)
    for index, pair in enumerate(state["tlb"]):
        _check_tuple(f"cores.{name}.tlb[{index}]", pair, "[vpn, ppn]", _PAIR)
    private = {cache.name: cache for cache in core.caches.private}
    _known("cache", state["private_caches"], private)
    for cache, lines in state["private_caches"].items():
        _check_array(f"cores.{name}.private_caches.{cache}", lines, list,
                     private[cache].num_sets)
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
    return translation


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


def _check_image(machine: Machine, checkpoint) -> tuple[dict, dict]:
    """Check the whole checkpoint against ``machine`` without touching it.

    Returns the decoded bank images and each core's translation state.
    Raises
    :class:`CheckpointError`, or :class:`ArtifactError` for a field of the
    wrong shape."""
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
    _known("bank", checkpoint["banks"], machine.banks)
    _known("allocator", checkpoint["allocators"], machine.allocators)
    _known("core", checkpoint["cores"], cores)
    _known("LAPIC", checkpoint["lapics"], machine.lapics)
    _known("shared cache", checkpoint["shared_caches"], shared)
    images = {name: _decode_words(name, block, machine.banks[name].size)
              for name, block in checkpoint["banks"].items()}
    for name, frames in checkpoint["allocators"].items():
        if type(frames) is not int \
                or not 0 <= frames <= machine.banks[name].num_frames:
            raise ArtifactError(
                f"field allocators.{name} is {frames!r}, not a frame count "
                f"of its bank")
    translations = {name: _decode_core(name, state, cores[name])
                    for name, state in checkpoint["cores"].items()}
    for name, state in checkpoint["lapics"].items():
        _check_lapic(name, state)
    for name, lines in checkpoint["shared_caches"].items():
        _check_array(f"shared_caches.{name}", lines, list,
                     shared[name].num_sets)
    return images, translations


def restore_checkpoint(machine: Machine, checkpoint: dict[str, Any]) -> None:
    """Install a checkpoint image onto ``machine``.

    The destination must have identical geometry and must not be ahead of
    the checkpoint in virtual time (fleet members share a clock; a fresh
    standby machine trivially satisfies this).  Restoring over a machine
    whose model cores still run a live guest would *duplicate* that guest
    — callers (the fleet migration path) enforce vacancy; this function
    enforces geometry, time and the shape of the whole image: a malformed
    one raises :class:`CheckpointError` before the machine is touched.
    """
    try:
        images, translations = _check_image(machine, checkpoint)
    except ArtifactError as exc:
        raise CheckpointError(str(exc)) from exc

    for name, image in images.items():
        # load_words drops decoded instructions and superblock traces over
        # the whole bank — exactly the Python-cost caches a migrated image
        # must not inherit from the destination's previous life.
        machine.banks[name].load_words(0, image)
    for name, frames in checkpoint["allocators"].items():
        machine.allocators[name].advance_to(frames)

    # Clock first: core/LAPIC state carries absolute timestamps that are
    # only meaningful at the checkpoint's ``now``.  On a machine with no
    # pending events this cleanly fast-forwards virtual time.
    machine.clock.tick(checkpoint["clock_now"] - machine.clock.now)

    by_name = {core.name: core
               for core in machine.model_cores + machine.hv_cores}
    for name, state in checkpoint["cores"].items():
        by_name[name].mmu.restore_translation(*translations[name])
        by_name[name].restore_architectural_state(state)
    for name, state in checkpoint["lapics"].items():
        machine.lapics[name].restore_state(state)
    for cache in machine.shared_caches:
        lines = checkpoint["shared_caches"].get(cache.name)
        if lines is not None:
            cache.restore_lines(lines)
