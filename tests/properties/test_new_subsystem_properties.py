"""Property tests for the ring buffer, weight vault, and fp16 transport."""

from collections import deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import AttestationFailure
from repro.hv.ring import RingBuffer
from repro.hv.weights import WeightVault, _keystream, _xor
from repro.hw.devices import StorageDevice
from repro.hw.memory import Dram, PAGE_SIZE


# ---------------------------------------------------------------------------
# Ring buffer vs. a reference FIFO
# ---------------------------------------------------------------------------

ring_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.binary(min_size=0, max_size=40)),
        st.tuples(st.just("pop"), st.none()),
    ),
    max_size=60,
)


@given(ring_ops)
def test_ring_matches_reference_fifo(operations):
    bank = Dram("io", 4 * PAGE_SIZE)
    ring = RingBuffer(bank, 0, slots=4, slot_words=8)
    reference: deque[bytes] = deque()
    for op, payload in operations:
        if op == "push":
            pushed = ring.push(payload)
            model_would = len(reference) < ring.slots
            assert pushed == model_would
            if pushed:
                reference.append(payload)
        else:
            assert ring.pop() == (reference.popleft() if reference else None)
        assert ring.occupancy() == len(reference)


@given(st.lists(st.binary(max_size=56), min_size=1, max_size=30))
def test_ring_drain_preserves_order(payloads):
    bank = Dram("io", 8 * PAGE_SIZE)
    ring = RingBuffer(bank, 0, slots=32, slot_words=8)
    for payload in payloads:
        assert ring.push(payload)
    assert ring.drain() == payloads


# ---------------------------------------------------------------------------
# Weight vault: keystream + seal/unseal
# ---------------------------------------------------------------------------

@given(st.binary(min_size=1, max_size=32), st.integers(0, 500))
def test_keystream_deterministic_prefix_stable(key, length):
    a = _keystream(key, length)
    b = _keystream(key, length + 37)
    assert len(a) == length
    assert b[:length] == a


@given(st.binary(min_size=1, max_size=2000))
@settings(max_examples=25)
def test_xor_is_an_involution(data):
    stream = _keystream(b"k", len(data))
    assert _xor(_xor(data, stream), stream) == data


@given(st.binary(min_size=1, max_size=1500), st.binary(min_size=1, max_size=16))
@settings(max_examples=25)
def test_vault_roundtrip(weights, key):
    disk = StorageDevice("d", num_blocks=64, block_size=128)
    vault = WeightVault(disk, key)
    manifest = vault.seal("m", weights)
    assert vault.unseal(manifest) == weights
    # Ciphertext differs from plaintext for any non-degenerate stream.
    if weights != _xor(weights, vault._stream(manifest.plaintext_digest,
                                              len(weights))):
        assert vault.read_ciphertext(manifest) != weights


@given(st.binary(min_size=16, max_size=400), st.integers(0, 15))
@settings(max_examples=25)
def test_vault_detects_any_single_byte_tamper(weights, position):
    disk = StorageDevice("d", num_blocks=64, block_size=128)
    vault = WeightVault(disk, b"key")
    manifest = vault.seal("m", weights)
    block = manifest.base_block
    response, _ = disk.submit({"op": "read", "block": block})
    corrupted = bytearray(response["data"])
    corrupted[position % len(corrupted)] ^= 0xFF
    disk.submit({"op": "write", "block": block, "data": bytes(corrupted)})
    with pytest.raises(AttestationFailure):
        vault.unseal(manifest)


# ---------------------------------------------------------------------------
# fp16 transport precision (GPU offload path)
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False),
                min_size=1, max_size=64))
def test_fp16_roundtrip_bounded_error(values):
    original = np.array(values, dtype=np.float64)
    wire = original.astype(np.float16).tobytes()
    recovered = np.frombuffer(wire, dtype=np.float16).astype(np.float64)
    # fp16 relative error is ~2^-11; absolute bound for |x| <= 100.
    assert np.allclose(recovered, original, rtol=1e-3, atol=0.1)
