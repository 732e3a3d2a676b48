"""Property suite for the taint lattice and the taint analysis's soundness.

Two layers:

* algebraic laws of the lattice primitives (``taint_join`` is a join:
  commutative, associative, idempotent, monotone; ``taint_widen`` keeps
  every label; ``taint_through`` preserves labels and grows chains by at
  most one hop) — these are what the fixpoint's termination and the
  witness-minimality guarantee rest on;
* end-to-end soundness against concrete execution: for generated programs,
  a *may*-mode certificate of zero flows implies the two noninterference
  probes (identical but for the secret page's bytes) are observably
  identical.  This is oracle 4 restated as a property, over programs the
  fuzz generator never drew.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.taint import (
    TIMER_LABEL,
    analyze_taint,
    taint_join,
    taint_labels,
    taint_source,
    taint_through,
    taint_widen,
)
from repro.fuzz.oracles import (
    FUZZ_SOURCES,
    NONINTERFERENCE_FIELDS,
    noninterference_probe,
)
from repro.hw import isa
from repro.hw.isa import Instruction, Op, assemble

LABELS = ("weights", "mailbox", TIMER_LABEL, "rag")

chains = st.lists(
    st.integers(0, 62), min_size=1, max_size=6, unique=True
).map(tuple)

vectors = st.dictionaries(
    st.sampled_from(LABELS), chains, max_size=len(LABELS)
).map(lambda d: tuple(sorted(d.items())))


class TestLatticeLaws:
    @given(vectors, vectors)
    @settings(max_examples=100, deadline=None)
    def test_join_commutative(self, a, b):
        assert taint_join(a, b) == taint_join(b, a)

    @given(vectors, vectors, vectors)
    @settings(max_examples=100, deadline=None)
    def test_join_associative(self, a, b, c):
        assert taint_join(taint_join(a, b), c) == \
            taint_join(a, taint_join(b, c))

    @given(vectors)
    @settings(max_examples=50, deadline=None)
    def test_join_idempotent(self, a):
        assert taint_join(a, a) == a

    @given(vectors, vectors)
    @settings(max_examples=100, deadline=None)
    def test_join_monotone_in_labels(self, a, b):
        joined = set(taint_labels(taint_join(a, b)))
        assert set(taint_labels(a)) <= joined
        assert set(taint_labels(b)) <= joined

    @given(vectors, vectors)
    @settings(max_examples=100, deadline=None)
    def test_join_picks_minimal_witness_per_label(self, a, b):
        for label, chain in taint_join(a, b):
            candidates = [c for l, c in a + b if l == label]
            best = min(candidates, key=lambda c: (len(c), c))
            assert chain == best

    @given(vectors, vectors)
    @settings(max_examples=50, deadline=None)
    def test_widen_is_an_upper_bound(self, a, b):
        widened = set(taint_labels(taint_widen(a, b)))
        assert set(taint_labels(a)) | set(taint_labels(b)) == widened

    @given(vectors, st.integers(0, 62))
    @settings(max_examples=100, deadline=None)
    def test_through_preserves_labels_and_bounds_growth(self, vec, pc):
        out = taint_through(vec, pc)
        assert taint_labels(out) == taint_labels(vec)
        for (_, before), (_, after) in zip(vec, out):
            assert len(after) - len(before) in (0, 1)
            assert after[:len(before)] == before

    @given(st.sampled_from(LABELS), st.integers(0, 62))
    @settings(max_examples=50, deadline=None)
    def test_source_chain_starts_at_the_source(self, label, pc):
        ((got_label, chain),) = taint_source(label, pc)
        assert got_label == label and chain == (pc,)


#: A constrained instruction pool biased toward the interesting windows:
#: addresses land in code/data/secret/IO ranges, so generated programs
#: actually exercise sources and sinks rather than faulting immediately.
SOUNDNESS_OPS = [Op.MOVI, Op.MOV, Op.ADD, Op.SUB, Op.ADDI, Op.LOAD,
                 Op.STORE, Op.BEQ, Op.BNE, Op.DOORBELL, Op.RDCYCLE,
                 Op.XOR, Op.NOP]

soundness_instructions = st.builds(
    Instruction,
    op=st.sampled_from(SOUNDNESS_OPS),
    rd=st.integers(0, 7),
    rs1=st.integers(0, 7),
    rs2=st.integers(0, 7),
    imm=st.one_of(
        st.integers(0, 8),
        st.sampled_from([64, 128, 192, 130, 200]),
    ),
)

soundness_programs = st.lists(
    soundness_instructions, min_size=1, max_size=12
)


def _observed(probe):
    return tuple(getattr(probe, name)
                 for name in NONINTERFERENCE_FIELDS + ("io_digest",))


class TestProductDomainSoundness:
    @given(soundness_programs)
    @settings(max_examples=25, deadline=None)
    def test_may_certificate_implies_noninterference(self, instructions):
        """Zero may-mode flows must mean the secret is unobservable."""
        words = tuple(assemble(instructions + [isa.halt()]).words)
        result = analyze_taint(words, model=FUZZ_SOURCES, may_mode=True)
        if not result.clean:
            return                       # no certificate, no claim
        probe_a = noninterference_probe(words, 0, max_steps=400)
        probe_b = noninterference_probe(words, 1, max_steps=400)
        assert _observed(probe_a) == _observed(probe_b), (
            "may-mode certified zero flows but the probes diverge: "
            f"{result.flows!r}"
        )

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_certificate_holds_on_generator_programs(self, seed):
        """The same soundness claim over fuzz-generator output."""
        from repro.fuzz.gen import ProgramGenerator

        words = tuple(ProgramGenerator(seed).next_program().words)
        result = analyze_taint(words, model=FUZZ_SOURCES, may_mode=True)
        if not result.clean:
            return
        probe_a = noninterference_probe(words, 0, max_steps=400)
        probe_b = noninterference_probe(words, 1, max_steps=400)
        assert _observed(probe_a) == _observed(probe_b)
