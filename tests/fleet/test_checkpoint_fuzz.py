"""Hostile checkpoint images: restore installs an image or raises
:class:`CheckpointError`, never another exception, and an image it refuses
leaves the destination untouched.

The images are captured mid-run from the golden-corpus programs on the
fuzz machine and JSON round-tripped, the way oracle 5 ships them.  Each
example mutates one place of one image: it deletes a key or an item,
swaps a value for another JSON type, puts a number or an object key out
of range, makes a list oversize, or truncates it.
"""

from __future__ import annotations

import json
import os
from functools import cache

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet.checkpoint import (
    CheckpointError,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.fuzz.oracles import (
    MIGRATION_SPLIT_STEPS,
    boot_program,
    fuzz_guillotine_config,
)
from repro.fuzz.replay import load_artifact
from repro.hw.machine import build_guillotine_machine, machine_fingerprint

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "fuzz", "corpus")

#: One value of each JSON type, and numbers and keys no machine part
#: indexes.
OTHER_TYPES = (None, True, 7, 1.5, "x", [], {})
OUT_OF_RANGE = (-1, 16, 64, 256, 4096, 2 ** 64, 2 ** 70)
BAD_KEYS = ("-1", "64", "256", "4096", "99999999", "0x1", "ghost", "")

MUTATIONS = ("delete", "swap-type", "out-of-range", "oversize", "truncate")


@cache
def _images() -> tuple[str, ...]:
    """Each golden program's checkpoint after ``MIGRATION_SPLIT_STEPS``
    steps, as JSON text."""
    images = []
    for entry in sorted(os.listdir(CORPUS_DIR)):
        if not entry.endswith(".json"):
            continue
        artifact = load_artifact(os.path.join(CORPUS_DIR, entry))
        words = [int(text, 16) for text in artifact["program"]["words_hex"]]
        machine, core, _ = boot_program(
            build_guillotine_machine(fuzz_guillotine_config()), words)
        core.run(max_steps=MIGRATION_SPLIT_STEPS)
        images.append(json.dumps(capture_checkpoint(machine)))
    return tuple(images)


def _paths(node, path=()):
    """The key path of every value below ``node`` (not ``node`` itself)."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(image: dict, path: tuple, mutation: str, pick: int) -> None:
    """Apply ``mutation`` at ``path``; ``pick`` chooses among its
    variants."""
    holder = image
    for key in path[:-1]:
        holder = holder[key]
    key = path[-1]
    value = holder[key]
    if mutation == "delete":
        del holder[key]
    elif mutation == "swap-type":
        others = [other for other in OTHER_TYPES
                  if type(other) is not type(value)]
        holder[key] = others[pick % len(others)]
    elif mutation == "out-of-range":
        if isinstance(holder, dict) and pick % 2:
            holder[BAD_KEYS[pick % len(BAD_KEYS)]] = holder.pop(key)
        else:
            holder[key] = OUT_OF_RANGE[pick % len(OUT_OF_RANGE)]
    elif mutation == "oversize":
        if isinstance(value, list):
            holder[key] = value * 50 if value else list(range(300))
        elif isinstance(value, dict):
            for extra in range(300):
                value[str(extra)] = next(iter(value.values()), [extra])
        else:
            holder[key] = [value] * 300
    elif isinstance(value, (list, str)):  # truncate
        holder[key] = value[:pick % max(len(value), 1)]
    elif isinstance(value, dict):
        for extra in list(value)[pick % max(len(value), 1):]:
            del value[extra]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_image_restores_or_is_refused_untouched(data):
    images = _images()
    image = json.loads(images[data.draw(st.integers(0, len(images) - 1))])
    paths = list(_paths(image))
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    _mutate(image, path, data.draw(st.sampled_from(MUTATIONS)),
            data.draw(st.integers(0, 2 ** 16)))

    target = build_guillotine_machine(fuzz_guillotine_config())
    before = machine_fingerprint(target)
    try:
        restore_checkpoint(target, image)
    except CheckpointError:
        assert machine_fingerprint(target) == before


def test_every_golden_image_restores_unmutated():
    for text in _images():
        target = build_guillotine_machine(fuzz_guillotine_config())
        restore_checkpoint(target, json.loads(text))
