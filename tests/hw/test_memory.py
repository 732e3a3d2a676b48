"""Unit tests for DRAM, page tables, and the MMU lockdown rules."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LockdownViolation, MemoryFault
from repro.hw.attestation import digest_of
from repro.hw.memory import (
    PAGE_SIZE,
    WORD_MASK,
    Dram,
    Mmu,
    PageTableEntry,
    words_digest,
)


class TestDram:
    def test_read_write_roundtrip(self):
        dram = Dram("test", 4 * PAGE_SIZE)
        dram.write(10, 0xDEAD)
        assert dram.read(10) == 0xDEAD

    def test_initially_zero(self):
        dram = Dram("test", PAGE_SIZE)
        assert dram.read(0) == 0

    def test_out_of_range_read_faults(self):
        dram = Dram("test", PAGE_SIZE)
        with pytest.raises(MemoryFault):
            dram.read(PAGE_SIZE)
        with pytest.raises(MemoryFault):
            dram.read(-1)

    def test_out_of_range_write_faults(self):
        dram = Dram("test", PAGE_SIZE)
        with pytest.raises(MemoryFault):
            dram.write(PAGE_SIZE, 1)

    def test_values_masked_to_64_bits(self):
        dram = Dram("test", PAGE_SIZE)
        dram.write(0, 1 << 65)
        assert dram.read(0) == 0

    def test_size_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            Dram("bad", PAGE_SIZE + 1)
        with pytest.raises(ValueError):
            Dram("bad", 0)

    def test_bulk_load(self):
        dram = Dram("test", 2 * PAGE_SIZE)
        dram.load_words(5, [1, 2, 3])
        assert [dram.read(5 + i) for i in range(3)] == [1, 2, 3]

    def test_bulk_load_bounds_checked(self):
        dram = Dram("test", PAGE_SIZE)
        with pytest.raises(MemoryFault):
            dram.load_words(PAGE_SIZE - 1, [1, 2])

    def test_snapshot(self):
        dram = Dram("test", PAGE_SIZE)
        dram.write(3, 7)
        assert dram.snapshot(2, 3) == [0, 7, 0]

    def test_write_count_tracks_mutation(self):
        dram = Dram("test", PAGE_SIZE)
        before = dram.write_count
        dram.write(0, 1)
        assert dram.write_count == before + 1


class TestTranslation:
    def test_translate_maps_offset(self):
        mmu = Mmu()
        mmu.map(2, PageTableEntry(ppn=5))
        assert mmu.translate(2 * PAGE_SIZE + 7) == 5 * PAGE_SIZE + 7

    def test_unmapped_page_faults(self):
        with pytest.raises(MemoryFault, match="unmapped"):
            Mmu().translate(0)

    def test_write_permission_enforced(self):
        mmu = Mmu()
        mmu.map(0, PageTableEntry(ppn=0, writable=False))
        mmu.translate(0)  # read OK
        with pytest.raises(MemoryFault, match="read-only"):
            mmu.translate(0, write=True)

    def test_execute_permission_enforced(self):
        mmu = Mmu()
        mmu.map(0, PageTableEntry(ppn=0, executable=False))
        with pytest.raises(MemoryFault, match="non-executable"):
            mmu.translate(0, execute=True)

    def test_read_permission_enforced(self):
        mmu = Mmu()
        mmu.map(0, PageTableEntry(ppn=0, readable=False, executable=True))
        with pytest.raises(MemoryFault, match="unreadable"):
            mmu.translate(0)
        mmu.translate(0, execute=True)  # execute-only is legal

    def test_unmap_removes_translation(self):
        mmu = Mmu()
        mmu.map(0, PageTableEntry(ppn=0))
        mmu.unmap(0)
        with pytest.raises(MemoryFault):
            mmu.translate(0)

    def test_negative_page_numbers_rejected(self):
        with pytest.raises(MemoryFault):
            Mmu().map(-1, PageTableEntry(ppn=0))

    def test_perm_bits_roundtrip(self):
        entry = PageTableEntry(ppn=1, readable=True, writable=False,
                               executable=True)
        assert PageTableEntry.from_bits(1, entry.perm_bits) == entry


class TestLockdown:
    """Section 3.2's anti-self-improvement MMU rules."""

    def _locked_mmu(self) -> Mmu:
        mmu = Mmu()
        mmu.map(0, PageTableEntry(ppn=0, writable=False, executable=True))
        mmu.map(1, PageTableEntry(ppn=1, writable=False, executable=True))
        mmu.map(5, PageTableEntry(ppn=5))  # data
        mmu.lockdown(0, 1)
        return mmu

    def test_lockdown_demotes_code_to_execute_only(self):
        mmu = self._locked_mmu()
        with pytest.raises(MemoryFault):
            mmu.translate(0)  # read of own code now refused
        mmu.translate(0, execute=True)

    def test_cannot_remap_locked_page(self):
        mmu = self._locked_mmu()
        with pytest.raises(LockdownViolation):
            mmu.map(0, PageTableEntry(ppn=9, writable=True, executable=True))

    def test_cannot_unmap_locked_page(self):
        mmu = self._locked_mmu()
        with pytest.raises(LockdownViolation):
            mmu.unmap(0)

    def test_cannot_create_exec_outside_region(self):
        mmu = self._locked_mmu()
        with pytest.raises(LockdownViolation):
            mmu.map(9, PageTableEntry(ppn=9, readable=False, writable=False,
                                      executable=True))

    def test_cannot_create_exec_inside_region_either(self):
        mmu = Mmu()
        mmu.map(0, PageTableEntry(ppn=0, writable=False, executable=True))
        mmu.lockdown(0, 3)  # region larger than mapped code
        with pytest.raises(LockdownViolation):
            mmu.map(2, PageTableEntry(ppn=7, readable=False, writable=False,
                                      executable=True))

    def test_alias_of_code_frame_rejected(self):
        mmu = self._locked_mmu()
        with pytest.raises(LockdownViolation, match="alias"):
            mmu.map(20, PageTableEntry(ppn=0, writable=True))

    def test_preexisting_alias_blocks_lockdown(self):
        mmu = Mmu()
        mmu.map(0, PageTableEntry(ppn=0, writable=False, executable=True))
        mmu.map(7, PageTableEntry(ppn=0, writable=True))  # alias
        with pytest.raises(LockdownViolation, match="alias"):
            mmu.lockdown(0, 0)
        assert not mmu.locked  # failed lockdown leaves MMU unlocked

    def test_data_pages_still_remappable(self):
        mmu = self._locked_mmu()
        mmu.map(5, PageTableEntry(ppn=6))       # remap data elsewhere
        mmu.map(30, PageTableEntry(ppn=30))     # fresh data page
        mmu.unmap(30)

    def test_exec_page_outside_region_blocks_lockdown(self):
        mmu = Mmu()
        mmu.map(9, PageTableEntry(ppn=9, executable=True, writable=False))
        with pytest.raises(LockdownViolation, match="outside"):
            mmu.lockdown(0, 3)

    def test_double_lockdown_rejected(self):
        mmu = self._locked_mmu()
        with pytest.raises(LockdownViolation):
            mmu.lockdown(0, 1)

    def test_invalid_region_rejected(self):
        with pytest.raises(ValueError):
            Mmu().lockdown(3, 1)

    def test_executable_set_never_grows(self):
        """The E3 invariant: post-lockdown the executable set is frozen."""
        mmu = self._locked_mmu()
        before = mmu.executable_vpns()
        for vpn, ppn, perms in [(9, 9, dict(executable=True, readable=False,
                                            writable=False)),
                                (0, 4, dict(executable=True, writable=True)),
                                (20, 0, dict(writable=True))]:
            with pytest.raises(LockdownViolation):
                mmu.map(vpn, PageTableEntry(ppn=ppn, **perms))
        assert mmu.executable_vpns() == before


class TestDramFaultInjection:
    def _dram(self, ecc=False):
        dram = Dram("test", PAGE_SIZE)
        dram.ecc_enabled = ecc
        return dram

    def test_bit_flip_corrupts_unprotected_read(self):
        dram = self._dram()
        dram.write(4, 0b0100)
        dram.inject_bit_flip(4, 1)
        assert dram.read(4) == 0b0110    # silently served corrupt
        assert not dram.ecc_machine_checks

    def test_overwrite_clears_the_flip(self):
        dram = self._dram()
        dram.inject_bit_flip(4, 1)
        dram.write(4, 0xFF)
        assert dram.read(4) == 0xFF
        assert not dram.faulted

    def test_ecc_corrects_single_bit_and_scrubs(self):
        dram = self._dram(ecc=True)
        dram.write(4, 0xBEEF)
        dram.inject_bit_flip(4, 7)
        assert dram.read(4) == 0xBEEF
        assert dram.ecc_corrections == 1
        assert dram.read(4) == 0xBEEF    # scrubbed: no second correction
        assert dram.ecc_corrections == 1

    def test_ecc_machine_checks_on_multi_bit_corruption(self):
        from repro.errors import MachineCheck

        dram = self._dram(ecc=True)
        dram.write(4, 0xBEEF)
        dram.inject_bit_flip(4, 7)
        dram.inject_bit_flip(4, 8)
        with pytest.raises(MachineCheck):
            dram.read(4)
        assert dram.ecc_machine_checks == 1

    def test_stuck_bit_reasserts_over_writes(self):
        dram = self._dram()
        dram.inject_stuck_bit(8, 0, value=1)
        dram.write(8, 0b1110)
        assert dram.read(8) == 0b1111    # bit 0 stuck at 1

    def test_ecc_machine_checks_on_stuck_cell(self):
        from repro.errors import MachineCheck

        dram = self._dram(ecc=True)
        dram.inject_stuck_bit(8, 0, value=1)
        dram.write(8, 0b1110)
        with pytest.raises(MachineCheck):
            dram.read(8)

    def test_clear_faults_restores_clean_operation(self):
        dram = self._dram()
        dram.write(4, 0xAA)
        dram.inject_bit_flip(4, 0)
        dram.inject_stuck_bit(8, 1)
        dram.clear_faults()
        assert not dram.faulted
        assert dram.read(4) == 0xAA

    def test_fault_injection_validates_arguments(self):
        dram = self._dram()
        with pytest.raises(MemoryFault):
            dram.inject_bit_flip(PAGE_SIZE, 0)
        with pytest.raises(ValueError):
            dram.inject_bit_flip(0, 64)
        with pytest.raises(ValueError):
            dram.inject_stuck_bit(0, 0, value=2)


class TestDramRanges:
    """Bounds semantics of the batched ``read_range``/``write_range`` paths.

    The bounds check is ``start < 0 or start + count > size``: zero-length
    transfers are legal anywhere inside the window *including* the
    end-of-window position ``start == size``, and the last legal non-empty
    transfer ends exactly at ``size``.
    """

    def _dram(self):
        return Dram("test", 2 * PAGE_SIZE)

    # -- zero-length transfers ----------------------------------------

    def test_zero_length_read_at_origin(self):
        assert self._dram().read_range(0, 0) == []

    def test_zero_length_read_at_end_of_window(self):
        dram = self._dram()
        assert dram.read_range(dram.size, 0) == []

    def test_zero_length_read_past_end_faults(self):
        dram = self._dram()
        with pytest.raises(MemoryFault):
            dram.read_range(dram.size + 1, 0)

    def test_zero_length_write_at_end_of_window(self):
        dram = self._dram()
        before = dram.write_count
        dram.write_range(dram.size, [])
        assert dram.write_count == before

    def test_zero_length_write_past_end_faults(self):
        dram = self._dram()
        with pytest.raises(MemoryFault):
            dram.write_range(dram.size + 1, [])

    # -- end-of-window transfers --------------------------------------

    def test_last_words_of_the_window_round_trip(self):
        dram = self._dram()
        dram.write_range(dram.size - 2, [0xAA, 0xBB])
        assert dram.read_range(dram.size - 2, 2) == [0xAA, 0xBB]

    def test_full_window_read(self):
        dram = self._dram()
        dram.write(0, 1)
        dram.write(dram.size - 1, 2)
        words = dram.read_range(0, dram.size)
        assert len(words) == dram.size
        assert words[0] == 1 and words[-1] == 2

    def test_read_spilling_past_the_window_faults(self):
        dram = self._dram()
        with pytest.raises(MemoryFault):
            dram.read_range(dram.size - 1, 2)

    def test_write_spilling_past_the_window_faults(self):
        dram = self._dram()
        with pytest.raises(MemoryFault):
            dram.write_range(dram.size - 1, [1, 2])
        # The failed write must not have partially landed.
        assert dram.read(dram.size - 1) == 0

    def test_negative_start_faults(self):
        dram = self._dram()
        with pytest.raises(MemoryFault):
            dram.read_range(-1, 1)
        with pytest.raises(MemoryFault):
            dram.write_range(-1, [1])

    # -- equivalence with the per-word path ---------------------------

    def test_range_write_matches_per_word_semantics(self):
        batched, looped = self._dram(), self._dram()
        values = [7, 1 << 65, 0, 13]  # includes a value needing masking
        batched.write_range(4, values)
        for offset, value in enumerate(values):
            looped.write(4 + offset, value)
        assert batched.read_range(0, batched.size) == \
            looped.read_range(0, looped.size)
        assert batched.write_count == looped.write_count


#: A page of each kind a guest leaves behind, for the sparse-image paths.
_PAGES = st.one_of(
    st.just([0] * PAGE_SIZE),
    st.dictionaries(st.integers(0, PAGE_SIZE - 1),
                    st.sampled_from([1, 7, WORD_MASK]), max_size=4).map(
        lambda words: [words.get(offset, 0) for offset in range(PAGE_SIZE)]),
    st.lists(st.integers(0, WORD_MASK), min_size=PAGE_SIZE,
             max_size=PAGE_SIZE),
)


def _trace(start: int, length: int):
    return SimpleNamespace(start=start, length=length, alive=True)


class TestSparseImage:
    """``nonzero_words``, ``load_sparse`` and ``digest`` against their
    whole-bank definitions (a full ``snapshot``/``load_words``)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pages=st.lists(_PAGES, min_size=1, max_size=4), data=st.data())
    def test_digest_and_nonzero_words_match_the_snapshot(self, pages, data):
        words = [word for page in pages for word in page]
        bank = Dram("test", len(words))
        bank.load_words(0, words)
        start = data.draw(st.integers(0, len(words)))
        length = data.draw(st.integers(0, len(words) - start))
        assert bank.digest(start, length) == digest_of(
            words[start:start + length])
        assert bank.digest(start, length) == digest_of(
            bank.snapshot(start, length))
        assert bank.digest() == digest_of(words)
        assert words_digest(words, start, start + length) == digest_of(
            words[start:start + length])
        assert bank.nonzero_words() == [
            (address, word) for address, word in enumerate(words) if word]

    def test_digest_is_bounds_checked(self):
        bank = Dram("test", PAGE_SIZE)
        with pytest.raises(MemoryFault):
            bank.digest(1, PAGE_SIZE)

    def _faulted(self):
        bank = Dram("test", 4 * PAGE_SIZE)
        bank.write(3, 0xFF)
        bank.inject_stuck_bit(3, 0, value=0)
        bank.inject_stuck_bit(70, 5, value=1)
        bank.inject_bit_flip(130, 7)
        bank.cache_decoded(3, object())
        bank.register_trace(_trace(0, 8))
        return bank

    def test_sparse_load_is_a_full_load(self):
        image = {3: 0xF1, 131: WORD_MASK, 255: 1 << 70}
        sparse, full = self._faulted(), self._faulted()
        writes = sparse.write_count
        trace = next(iter(sparse._traces.values()))
        sparse.load_sparse(image)
        full.load_words(0, [image.get(address, 0)
                            for address in range(full.size)])
        assert sparse.snapshot() == full.snapshot()
        assert sparse.snapshot(3, 1) == [0xF0]       # stuck-at-0 re-asserted
        assert sparse.snapshot(70, 1) == [1 << 5]    # stuck-at-1 re-asserted
        assert sparse.snapshot(130, 1) == [0]        # the flip is gone
        assert sparse.snapshot(255, 1) == [0]        # masked to 64 bits
        assert sparse._corrupt == full._corrupt == {}
        assert sparse._stuck == full._stuck
        assert sparse.write_count == full.write_count == writes + 1
        assert not sparse.decoded and not sparse._traces
        assert not trace.alive

    def test_sparse_load_out_of_range_touches_nothing(self):
        bank = Dram("test", PAGE_SIZE)
        bank.write(5, 9)
        for address in (PAGE_SIZE, -1):
            with pytest.raises(MemoryFault):
                bank.load_sparse({0: 1, address: 2})
        assert bank.snapshot(0, 6) == [0, 0, 0, 0, 0, 9]
        assert bank.write_count == 1
