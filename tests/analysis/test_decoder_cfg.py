"""Decoder + CFG construction over hand-written GISA fragments, and the
CFG's reachability queries against a brute-force reference."""

import random
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import analyze_program, reset_analysis_cache
from repro.analysis.cfg import ESCAPE_NODE, EXIT_NODE, build_cfg
from repro.analysis.decoder import decode_stream
from repro.hw import isa
from repro.hw.asm import asm
from repro.hw.isa import Instruction, Op, assemble, encode


def _cfg(text: str):
    decoded = decode_stream(asm(text))
    return build_cfg(decoded)


class TestDecodeStream:
    def test_accepts_program_words_and_instructions(self):
        instructions = [isa.movi(1, 7), isa.halt()]
        program = assemble(instructions)
        words = [encode(i) for i in instructions]
        for source in (program, words, instructions):
            decoded = decode_stream(source)
            assert [d.op for d in decoded] == [Op.MOVI, Op.HALT]

    def test_invalid_opcode_is_a_faulting_terminator(self):
        decoded = decode_stream([0xFF << 56, encode(isa.halt())])
        assert not decoded[0].valid
        assert decoded[0].error is not None
        assert decoded[0].is_terminator()
        assert decoded[0].static_targets() == []

    def test_base_address_offsets_pcs(self):
        decoded = decode_stream(assemble([isa.nop(), isa.halt()]),
                                base_address=128)
        assert [d.pc for d in decoded] == [128, 129]

    def test_rejects_mixed_garbage(self):
        with pytest.raises(TypeError):
            decode_stream(["halt", 3])

    @pytest.mark.parametrize("words", [[-1], [2 ** 64], [2 ** 70 + 5]])
    def test_out_of_range_words_never_crash_the_analyzer(self, words):
        report = analyze_program(words)
        assert report.instructions == 1

    def test_out_of_range_word_analyzes_as_the_word_dram_holds(self):
        halt = encode(isa.halt())
        reset_analysis_cache()
        wide = analyze_program([2 ** 64 + halt]).to_dict()
        reset_analysis_cache()
        assert wide == analyze_program([halt]).to_dict()
        assert decode_stream([2 ** 64 + halt])[0].word == halt


class TestCfg:
    def test_straight_line_is_one_block(self):
        cfg = _cfg("""
            movi r1, 1
            addi r1, r1, 1
            halt
        """)
        assert set(cfg.blocks) == {0}
        assert cfg.successors[0] == {EXIT_NODE: "halt"}
        assert cfg.has_reachable_exit()

    def test_branch_splits_blocks_and_wires_both_edges(self):
        cfg = _cfg("""
            movi r1, 0
            movi r2, 3
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """)
        assert set(cfg.blocks) == {0, 2, 4}
        # The back edge, then the fallthrough: the order both worklists
        # visit successors in.
        assert list(cfg.successors[2].items()) == [
            (2, "branch"), (4, "fallthrough")]
        assert cfg.successors[0] == {2: "fallthrough"}
        assert cfg.blocks_in_cycles() == {2}

    def test_unreachable_code_detected(self):
        cfg = _cfg("""
            jmp done
            movi r5, 99
        done:
            halt
        """)
        assert cfg.unreachable_blocks() == {1}
        assert cfg.is_reachable(2)
        assert not cfg.is_reachable(1)

    def test_indirect_jump_has_no_static_successors(self):
        cfg = _cfg("""
            movi r1, 0
            jr r1
        """)
        assert [d.pc for d in cfg.indirect_jumps()] == [1]
        assert cfg.successors[0] == {}

    def test_jump_outside_image_escapes(self):
        cfg = _cfg("jmp 500")
        assert cfg.successors[0] == {ESCAPE_NODE: "escape"}
        assert [d.pc for d in cfg.escaping_jumps()] == [0]
        assert not cfg.has_reachable_exit()

    def test_wfi_counts_as_clean_exit(self):
        cfg = _cfg("""
            doorbell r0
            wfi
            jmp 0
        """)
        assert cfg.has_reachable_exit()


def _reference_edges(decoded):
    """Instruction-level successors, straight from the decoded words."""
    in_image = {d.pc for d in decoded}
    edges = {}
    for d in decoded:
        stops = not d.valid or d.op is Op.HALT or d.is_indirect
        edges[d.pc] = [] if stops else [
            target for target in d.static_targets() if target in in_image]
    return edges


def _reached(edges, starts):
    """Every pc a BFS reaches from ``starts`` (the starts included)."""
    seen, frontier = set(starts), list(starts)
    while frontier:
        for target in edges[frontier.pop()]:
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


#: Small images dense in jumps and branches, some of them out of range,
#: so cycles, unreachable blocks and escapes all turn up.
cfg_programs = st.lists(st.builds(
    Instruction,
    op=st.sampled_from([Op.NOP, Op.MOVI, Op.BEQ, Op.BLT, Op.JMP, Op.JAL,
                        Op.JR, Op.HALT, Op.WFI]),
    rd=st.integers(0, 3), rs1=st.integers(0, 3), rs2=st.integers(0, 3),
    imm=st.integers(0, 14),
), min_size=1, max_size=12).map(lambda items: assemble(items).words)


def _generated(seed):
    from repro.fuzz.gen import ProgramGenerator

    return ProgramGenerator(seed).next_program().words


class TestReachabilityAgainstBruteForce:
    """``reachable_blocks``, ``is_reachable``, ``block_of`` and
    ``blocks_in_cycles`` against a BFS over instruction-level edges."""

    @given(st.one_of(cfg_programs, st.integers(0, 2 ** 32 - 1).map(_generated)))
    @settings(max_examples=150, deadline=None)
    def test_queries_match_reference(self, words):
        decoded = decode_stream(list(words))
        cfg = build_cfg(decoded)
        edges = _reference_edges(decoded)
        reached = _reached(edges, [decoded[0].pc])

        assert cfg.reachable_blocks() == set(cfg.blocks) & reached
        assert cfg.unreachable_blocks() == set(cfg.blocks) - reached
        assert cfg.has_reachable_exit() == any(
            d.op in (Op.HALT, Op.WFI) for d in decoded if d.pc in reached)
        for d in decoded:
            assert cfg.is_reachable(d.pc) == (d.pc in reached)
            (containing,) = [block for block in cfg.blocks.values()
                             if block.start <= d.pc <= block.end]
            assert cfg.block_of(d.pc) is containing
        assert cfg.block_of(len(decoded)) is None
        assert not cfg.is_reachable(len(decoded))
        assert cfg.blocks_in_cycles() == {
            leader for leader in cfg.blocks
            if leader in _reached(edges, edges[leader])}


class TestGuestSizedImages:
    def test_analysis_memory_stays_linear_in_the_image(self):
        """The image comes from the guest, so no analysis structure may
        grow with blocks x blocks (a descendant set per block did: 8 MB
        for this 600-word image, 96 MB at 2,000 words)."""
        rng = random.Random(1)
        words = [encode(Instruction(Op.RDCYCLE, rd=1))] + [
            encode(Instruction(Op.BNE, rs1=1, rs2=2, imm=rng.randrange(600))
                   if pc % 2 else Instruction(Op.DOORBELL, rs1=3))
            for pc in range(1, 600)] + [encode(isa.halt())]
        reset_analysis_cache()
        tracemalloc.start()
        try:
            report = analyze_program(words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Every branch is timer-tainted and guards doorbells, so the loop
        # query and the covert pass's control-dependence regions all ran.
        assert "doorbell-flood" in report.categories()
        assert any(f.detail["kind"] == "covert-doorbell" for f in report.flows)
        assert peak < 4_000_000
