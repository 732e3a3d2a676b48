"""Tests for the sealed weight vault (weights at rest)."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.errors import AttestationFailure, PortError
from repro.hv.guest import GuestPortClient
from repro.hv.hypervisor import GuillotineHypervisor
from repro.hv.weights import WeightVault, _keystream
from repro.hw.devices import StorageDevice
from repro.model.gpullm import GpuBackedLlm
from repro.model.toyllm import ToyLlm


KEY = b"hv-dram-resident-key"


@pytest.fixture
def disk():
    return StorageDevice("disk0", num_blocks=2048, block_size=512)


@pytest.fixture
def vault(disk):
    return WeightVault(disk, KEY)


class TestSealUnseal:
    def test_roundtrip_preserves_weights(self, vault):
        llm = ToyLlm(seed=4)
        weights = llm.export_weights()
        manifest = vault.seal("m", weights)
        assert vault.unseal(manifest) == weights

    def test_on_disk_form_is_ciphertext(self, vault, disk):
        llm = ToyLlm(seed=4)
        weights = llm.export_weights()
        manifest = vault.seal("m", weights)
        on_disk = vault.read_ciphertext(manifest)
        assert on_disk != weights
        # Keystream output: byte histogram near-uniform (entropy > 7.9 bits).
        counts = Counter(on_disk)
        total = len(on_disk)
        entropy = -sum(
            (c / total) * math.log2(c / total) for c in counts.values()
        )
        assert entropy > 7.9

    def test_wrong_key_refused(self, disk):
        llm = ToyLlm(seed=4)
        sealer = WeightVault(disk, KEY)
        manifest = sealer.seal("m", llm.export_weights())
        thief = WeightVault(disk, b"guessed-key")
        with pytest.raises(AttestationFailure, match="MAC"):
            thief.unseal(manifest)

    def test_tampered_block_refused(self, vault, disk):
        llm = ToyLlm(seed=4)
        manifest = vault.seal("m", llm.export_weights())
        disk.submit({"op": "write", "block": manifest.base_block,
                     "data": b"\x00" * 512})
        with pytest.raises(AttestationFailure):
            vault.unseal(manifest)

    def test_oversized_checkpoint_rejected(self):
        tiny = StorageDevice("tiny", num_blocks=2, block_size=64)
        vault = WeightVault(tiny, KEY)
        with pytest.raises(PortError, match="fit"):
            vault.seal("m", b"x" * 1000)

    def test_empty_key_rejected(self, disk):
        with pytest.raises(ValueError):
            WeightVault(disk, b"")

    def test_checkpoints_under_one_key_get_distinct_streams(self, vault):
        """No two-time pad: with a shared stream, ``c1 ^ c2 == p1 ^ p2``
        and one known plaintext recovers the other checkpoint."""
        first = bytes(range(256)) + b"layer-one" * 5
        second = b"layer-two" * 5 + bytes(reversed(range(256)))
        m1 = vault.seal("a", first, base_block=0)
        m2 = vault.seal("b", second, base_block=m1.num_blocks)
        c1 = vault.read_ciphertext(m1)
        c2 = vault.read_ciphertext(m2)
        assert bytes(x ^ y for x, y in zip(c1, c2)) != \
            bytes(x ^ y for x, y in zip(first, second))
        assert vault.unseal(m1) == first
        assert vault.unseal(m2) == second

    def test_keystream_known_answer(self):
        """Pins the cipher: a change of stream must be a deliberate edit."""
        assert _keystream(KEY, 16).hex() == "77caf5d1abeba8f04ed124f96d822b41"


class TestProvisioning:
    def test_provision_gpu_from_sealed_checkpoint(self, machine):
        """End to end: seal on disk -> unseal -> GPU DRAM -> inference,
        with the model's plaintext weights never on a model-reachable
        path."""
        hypervisor = GuillotineHypervisor(machine)
        vault = WeightVault(machine.devices["disk0"], KEY)
        donor = GpuBackedLlm(seed=7)
        manifest = vault.seal("toy", donor.export_weights())

        blank = GpuBackedLlm(seed=99)     # different weights entirely
        vault.provision_gpu(manifest, blank, machine.devices["gpu0"])
        assert blank.weight_digest == donor.weight_digest

        port = hypervisor.grant_port("gpu0", "m")
        client = GuestPortClient(hypervisor, port)
        via_port = blank.forward_via_port("hello world", client)
        host = GpuBackedLlm(seed=7).forward("hello world")
        np.testing.assert_allclose(via_port.activations[0],
                                   host.activations[0], atol=0.05)

    def test_model_port_reads_see_only_ciphertext(self, machine):
        """The exfil scenario: the model reads its own checkpoint blocks
        through its disk port and gets bytes that match nothing."""
        hypervisor = GuillotineHypervisor(machine)
        vault = WeightVault(machine.devices["disk0"], KEY)
        llm = ToyLlm(seed=7)
        weights = llm.export_weights()
        manifest = vault.seal("toy", weights)

        port = hypervisor.grant_port("disk0", "m")
        client = GuestPortClient(hypervisor, port)
        stolen = client.request({
            "op": "read", "block": manifest.base_block, "length": 64,
        })["data"]
        assert stolen != weights[:64]
        assert stolen == vault.read_ciphertext(manifest)[:64]


class TestLoadWeights:
    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="checkpoint is"):
            ToyLlm(seed=1).load_weights(b"short")

    def test_load_updates_digest(self):
        a, b = ToyLlm(seed=1), ToyLlm(seed=2)
        b.load_weights(a.export_weights())
        assert b.weight_digest == a.weight_digest
        np.testing.assert_array_equal(b.layers[0], a.layers[0])
