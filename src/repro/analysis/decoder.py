"""Decode guest binaries into an analyzable instruction stream.

The analyzer must accept exactly what the hardware accepts: assembled
:class:`~repro.hw.isa.Program` objects *and* raw 64-bit words, because the
E3 injection kernels write encoded words into memory with ``STORE`` and the
whole point of load-time verification is that those payloads go through the
same decode path (see the module docstring of :mod:`repro.hw.isa`).

Decoding never raises: an unknown opcode becomes an invalid
:class:`DecodedInstruction` the CFG treats as a faulting terminator, which
is what the core does at runtime.  A raw word outside ``[0, 2**64)`` is
decoded as the 64-bit word DRAM would hold (``word & WORD_MASK``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.hw.isa import WORD_MASK, Instruction, Op, Program, decode, encode

#: Conditional branches: two static successors (taken + fallthrough).
BRANCH_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE})
#: Unconditional direct transfers: one static successor (imm).
JUMP_OPS = frozenset({Op.JMP, Op.JAL})
#: Transfers whose target lives in a register: no static successor.
INDIRECT_OPS = frozenset({Op.JR, Op.IRET})
#: Instructions after which execution cannot fall through.
TERMINATOR_OPS = frozenset({Op.HALT}) | JUMP_OPS | INDIRECT_OPS
#: Register-register ALU ops: ``rd = rs1 <op> rs2``.
BINARY_OPS = frozenset({Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.AND, Op.OR,
                        Op.XOR, Op.SHL, Op.SHR})


@dataclass(frozen=True)
class DecodedInstruction:
    """One word of the guest image, decoded (or not).

    ``pc`` is the absolute virtual word address the instruction will occupy
    once loaded, so branch targets (which the assembler resolves to absolute
    addresses) compare directly against it.
    """

    pc: int
    word: int
    instruction: Instruction | None
    error: str | None = None

    @property
    def valid(self) -> bool:
        return self.instruction is not None

    @property
    def op(self) -> Op | None:
        return None if self.instruction is None else self.instruction.op

    def is_terminator(self) -> bool:
        """Does control never fall through to ``pc + 1``?"""
        if self.instruction is None:
            return True  # invalid instruction: the core faults here
        return self.instruction.op in TERMINATOR_OPS or self.instruction.op in BRANCH_OPS

    def static_targets(self) -> list[int]:
        """Direct successor addresses encoded in the instruction itself."""
        if self.instruction is None:
            return []
        op = self.instruction.op
        if op in JUMP_OPS:
            return [self.instruction.imm]
        if op in BRANCH_OPS:
            return [self.instruction.imm, self.pc + 1]
        if op in INDIRECT_OPS or op is Op.HALT:
            return []
        return [self.pc + 1]

    @property
    def is_indirect(self) -> bool:
        return self.instruction is not None and self.instruction.op in INDIRECT_OPS


def decode_stream(
    source: Program | Sequence[int] | Iterable[Instruction],
    base_address: int = 0,
) -> list[DecodedInstruction]:
    """Decode a guest image into :class:`DecodedInstruction` objects.

    ``source`` may be an assembled :class:`~repro.hw.isa.Program`, a list of
    raw 64-bit words (e.g. an injected payload scraped out of a ``STORE``
    stream), or a list of already-decoded :class:`Instruction` objects.
    """
    words = _as_words(source)
    decoded: list[DecodedInstruction] = []
    for offset, word in enumerate(words):
        pc = base_address + offset
        word &= WORD_MASK
        try:
            instruction = decode(word)
        except ValueError as exc:
            decoded.append(DecodedInstruction(pc, word, None, error=str(exc)))
        else:
            decoded.append(DecodedInstruction(pc, word, instruction))
    return decoded


def _as_words(source: Program | Sequence[int] | Iterable[Instruction]) -> list[int]:
    if isinstance(source, Program):
        return list(source.words)
    items = list(source)
    if all(isinstance(item, Instruction) for item in items):
        return [encode(item) for item in items]
    if all(isinstance(item, int) for item in items):
        return list(items)
    raise TypeError("source must be a Program, raw words, or Instructions")
