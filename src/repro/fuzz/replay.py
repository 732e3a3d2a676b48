"""``repro.replay/1`` golden records and deterministic re-execution.

A *golden record* freezes everything needed to re-run one fuzzed program
bit-for-bit: the program words, the execution budget, the expected
:class:`~repro.fuzz.oracles.ExecutionRecord` (including the audit-log hash
chain digest), and — for divergences — which oracles fired.  Because the
whole substrate is deterministic (virtual clock, seeded generators, no
wall-clock anywhere), replaying an artifact either reproduces the recorded
behaviour exactly or proves the tree has changed.

Two artifact kinds share the schema:

* ``golden`` — a known-good program; replay passes iff the current tree
  produces the *identical* execution record and zero oracle violations.
  The checked-in corpus under ``tests/fuzz/corpus/`` is this kind: CI
  replays it as a regression net over engine timing, fault delivery,
  admission verdicts, and the audit chain.
* ``divergence`` — a captured oracle violation; replay passes iff the same
  oracles still fire (used to triage and to verify a fix makes the replay
  *fail*).

``fault_plan`` is carried for forward compatibility with fault-injection
campaigns; the fuzz pipeline itself never perturbs hardware, so it is
always ``null`` today.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.artifacts import ArtifactError, check_items, load_document
from repro.fuzz.oracles import (
    DEFAULT_MAX_STEPS,
    ProgramOutcome,
    check_program,
)
from repro.hw.isa import WORD_MASK

REPLAY_SCHEMA = "repro.replay/1"


def _listing(words: Sequence[int]) -> list[str]:
    """Best-effort disassembly for human triage (never used by replay)."""
    from repro.hw.isa import decode

    lines = []
    for offset, word in enumerate(words):
        try:
            text = str(decode(word))
        except ValueError:
            text = f".word 0x{word:016x}  ; invalid opcode"
        lines.append(f"{offset:3d}: {text}")
    return lines


def _program_block(words: Sequence[int]) -> dict:
    return {
        "words_hex": [f"0x{word:016x}" for word in words],
        "listing": _listing(words),
    }


def _decode_words(block: dict) -> tuple[int, ...]:
    return tuple(int(text, 16) for text in block["words_hex"])


def golden_artifact(
    outcome: ProgramOutcome,
    *,
    name: str,
    seed: int | None = None,
    batch: int | None = None,
    program_index: int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> dict:
    """Freeze a clean outcome as a ``golden`` regression artifact."""
    if outcome.violations:
        raise ValueError("golden artifacts require a violation-free outcome")
    return {
        "schema": REPLAY_SCHEMA,
        "kind": "golden",
        "name": name,
        "seed": seed,
        "batch": batch,
        "program_index": program_index,
        "max_steps": max_steps,
        "fault_plan": None,
        "program": _program_block(outcome.words),
        "expected": {
            "record": outcome.fast.to_dict(),
            "violations": [],
            "admitted": outcome.admitted,
            "analyzer_errors": list(outcome.analyzer_errors),
            "coverage": sorted(outcome.coverage),
        },
        "shrunk": False,
        "original_len": len(outcome.words),
    }


def divergence_artifact(
    outcome: ProgramOutcome,
    *,
    name: str,
    seed: int | None = None,
    batch: int | None = None,
    program_index: int | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    shrunk_words: Sequence[int] | None = None,
) -> dict:
    """Freeze a violating outcome as a ``divergence`` triage artifact.

    When the shrinker produced a smaller witness, ``shrunk_words`` becomes
    the artifact's program (the original length is kept for the report).
    """
    if not outcome.violations:
        raise ValueError("divergence artifacts require at least one violation")
    words = tuple(shrunk_words) if shrunk_words is not None else outcome.words
    return {
        "schema": REPLAY_SCHEMA,
        "kind": "divergence",
        "name": name,
        "seed": seed,
        "batch": batch,
        "program_index": program_index,
        "max_steps": max_steps,
        "fault_plan": None,
        "program": _program_block(words),
        "expected": {
            "record": outcome.fast.to_dict(),
            "violations": [v.to_dict() for v in outcome.violations],
            "admitted": outcome.admitted,
            "analyzer_errors": list(outcome.analyzer_errors),
            "coverage": sorted(outcome.coverage),
        },
        "shrunk": shrunk_words is not None,
        "original_len": len(outcome.words),
    }


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of re-executing one artifact against the current tree."""

    name: str
    kind: str
    reproduced: bool
    expected_oracles: tuple[str, ...]
    actual_oracles: tuple[str, ...]
    mismatches: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "reproduced": self.reproduced,
            "expected_oracles": list(self.expected_oracles),
            "actual_oracles": list(self.actual_oracles),
            "mismatches": list(self.mismatches),
        }


def replay_artifact(artifact: dict) -> ReplayResult:
    """Deterministically re-execute one ``repro.replay/1`` artifact.

    * ``golden``: reproduced iff the fresh run is violation-free and its
      execution record matches the frozen one field-for-field (the record
      embeds the event-log digest, so the audit chain is covered too).
    * ``divergence``: reproduced iff every recorded oracle still fires.
    """
    if artifact.get("schema") != REPLAY_SCHEMA:
        raise ValueError(
            f"not a {REPLAY_SCHEMA} artifact: {artifact.get('schema')!r}"
        )
    kind = artifact["kind"]
    name = artifact.get("name", "<unnamed>")
    words = _decode_words(artifact["program"])
    max_steps = artifact.get("max_steps", DEFAULT_MAX_STEPS)
    expected = artifact.get("expected", {})
    check_admission = expected.get("admitted") is not None
    outcome = check_program(
        words, max_steps=max_steps, admission=check_admission
    )
    actual_oracles = tuple(sorted({v.oracle for v in outcome.violations}))
    expected_oracles = tuple(sorted(
        {v["oracle"] for v in expected.get("violations", [])}
    ))
    mismatches: list[str] = []

    if kind == "golden":
        if outcome.violations:
            mismatches.append(
                "oracle violations on a golden program: "
                + ", ".join(actual_oracles)
            )
        frozen = expected.get("record", {})
        fresh = outcome.fast.to_dict()
        for field in sorted(frozen):
            if frozen[field] != fresh.get(field):
                mismatches.append(
                    f"record.{field}: expected {frozen[field]!r}, "
                    f"got {fresh.get(field)!r}"
                )
        if check_admission and outcome.admitted != expected["admitted"]:
            mismatches.append(
                f"admitted: expected {expected['admitted']!r}, "
                f"got {outcome.admitted!r}"
            )
        reproduced = not mismatches
    elif kind == "divergence":
        missing = set(expected_oracles) - set(actual_oracles)
        for oracle in sorted(missing):
            mismatches.append(f"oracle {oracle!r} no longer fires")
        reproduced = not missing and bool(expected_oracles)
        if not expected_oracles:
            mismatches.append("artifact records no violations to reproduce")
    else:
        raise ValueError(f"unknown artifact kind {kind!r}")

    return ReplayResult(
        name=name,
        kind=kind,
        reproduced=reproduced,
        expected_oracles=expected_oracles,
        actual_oracles=actual_oracles,
        mismatches=tuple(mismatches),
    )


def load_artifact(path: str) -> dict:
    """Read one artifact from disk, checking every field that replay and
    ``analyze --corpus-dir`` read.

    Raises :class:`repro.artifacts.ArtifactError` when the file is
    unreadable, malformed, or shaped unlike a ``repro.replay/1`` record —
    including a golden record with nothing to compare (an empty
    ``expected.record`` would replay as a vacuous pass) and a program
    word that is not a hex number in ``[0, 2**64)``."""
    artifact = load_document(path, REPLAY_SCHEMA, {
        "kind": str, "name": str, "max_steps": int,
        "program": dict, "program.words_hex": list,
        "expected": dict, "expected.record": dict,
        "expected.violations": list, "expected.admitted": (bool, type(None)),
        "expected.coverage": list,
    })
    expected = artifact["expected"]
    if artifact["kind"] == "golden" and not expected["record"]:
        raise ArtifactError("field expected.record is empty")
    check_items("program.words_hex", artifact["program"]["words_hex"], str)
    for text in artifact["program"]["words_hex"]:
        try:
            word = int(text, 16)
        except ValueError:
            word = -1
        if not 0 <= word <= WORD_MASK:
            raise ArtifactError(
                f"field program.words_hex holds {text!r}, not a 64-bit word")
    check_items("expected.coverage", expected["coverage"], str)
    check_items("expected.violations", expected["violations"], dict)
    if not all(type(v.get("oracle")) is str for v in expected["violations"]):
        raise ArtifactError(
            "field expected.violations holds a violation without a string "
            "oracle")
    return artifact


__all__ = [
    "REPLAY_SCHEMA",
    "ReplayResult",
    "divergence_artifact",
    "golden_artifact",
    "load_artifact",
    "replay_artifact",
]
