"""Interval abstract interpretation: constants, joins, widening, resolution."""

from repro.analysis import analyze_program
from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import RESET_STATE, TOP, Interval, run_dataflow
from repro.analysis.decoder import decode_stream
from repro.hw.asm import asm
from repro.hw.isa import Op


def _flow(text: str):
    cfg = build_cfg(decode_stream(asm(text)))
    return cfg, run_dataflow(cfg)


def _only(decoded, op):
    matches = [d for d in decoded if d.op is op]
    assert len(matches) == 1, f"expected one {op}, got {len(matches)}"
    return matches[0]


class TestInterval:
    def test_const_and_top(self):
        assert Interval.const(5).is_const
        assert Interval.const(5).value == 5
        assert TOP.is_top and not TOP.is_const

    def test_join_widens_bounds(self):
        joined = Interval.const(2).join(Interval.const(9))
        assert (joined.lo, joined.hi) == (2, 9)
        assert joined.contains(5) and not joined.contains(10)

    def test_top_does_not_overlap(self):
        # An unknown address is not evidence of an attack.
        assert not TOP.overlaps(0, 1 << 32)
        assert Interval.const(3).overlaps(0, 4)
        assert not Interval.const(4).overlaps(0, 4)

    def test_widen_drops_moving_bounds(self):
        widened = Interval(0, 3).widen(Interval(0, 7))
        assert (widened.lo, widened.hi) == (0, None)


class TestDataflow:
    def test_movi_chain_folds_to_constant(self):
        cfg, flow = _flow("""
            movi r1, 10
            movi r2, 6
            mul r3, r1, r2
            addi r3, r3, 4
            store r0, r3, 2
            halt
        """)
        store = _only(cfg.decoded, Op.STORE)
        target = flow.store_target(store)
        assert target.is_const and target.value == 66   # 10*6 + 4 + 2

    def test_loop_counter_widens_but_bound_stays_const(self):
        cfg, flow = _flow("""
            movi r1, 0
            movi r2, 1000
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """)
        branch = _only(cfg.decoded, Op.BLT)
        state = flow.state_before(branch.pc)
        assert state[2].is_const and state[2].value == 1000
        assert not state[1].is_const          # the induction variable moved
        assert flow.loop_bound(2) == 1000

    def test_load_clobbers_to_top(self):
        cfg, flow = _flow("""
            movi r1, 4
            load r1, r1, 0
            jr r1
        """)
        jr = _only(cfg.decoded, Op.JR)
        assert flow.jump_target(jr).is_top

    def test_jr_target_resolves_through_mov(self):
        cfg, flow = _flow("""
            movi r1, 3
            mov r2, r1
            jr r2
            halt
        """)
        jr = _only(cfg.decoded, Op.JR)
        target = flow.jump_target(jr)
        assert target.is_const and target.value == 3

    def test_map_arguments_resolve(self):
        cfg, flow = _flow("""
            movi r1, 8
            movi r2, 3
            map r1, r2, 7
            halt
        """)
        mapped = _only(cfg.decoded, Op.MAP)
        vpn, ppn, perms = flow.map_arguments(mapped)
        assert vpn.value == 8
        assert ppn.value == 3
        assert perms == 7

    def test_unreachable_code_has_no_state(self):
        cfg, flow = _flow("""
            jmp done
            movi r5, 1
        done:
            halt
        """)
        assert flow.state_before(1) is None
        assert flow.register_before(1, 5).is_top


class TestHardwiredZero:
    """r0 is the hardwired zero in every state, as it is in the core."""

    def test_r0_is_zero_at_entry(self):
        cfg, flow = _flow("""
            movi r1, 5
            halt
        """)
        assert flow.register_before(0, 0) == Interval.const(0)
        assert flow.register_before(0, 1).is_top
        assert flow.register_before(1, 0) == Interval.const(0)

    def test_movi_r0_does_not_write_it(self):
        cfg, flow = _flow("""
            movi r0, 4096
            addi r0, r0, 1
            halt
        """)
        assert flow.register_before(1, 0) == Interval.const(0)
        assert flow.register_before(2, 0) == Interval.const(0)

    def test_jr_r0_resolves_to_zero(self):
        text = """
            movi r1, 1
            jr r0
        """
        cfg, flow = _flow(text)
        jr = _only(cfg.decoded, Op.JR)
        assert flow.jump_target(jr) == Interval.const(0)
        report = analyze_program(asm(text))
        assert not [f for f in report.findings
                    if f.message == "indirect jump with unresolvable target"]

    def test_reset_entry_state_is_all_zero(self):
        cfg = build_cfg(decode_stream(asm("""
            add r3, r1, r2
            halt
        """)))
        flow = run_dataflow(cfg, RESET_STATE)
        assert flow.register_before(1, 3) == Interval.const(0)
