"""Weights at rest: sealed storage with hypervisor-held keys.

Section 4 contrasts Guillotine with Nevo et al.'s weight-security levels
and commits to "preventing model cores from reading, modifying, and
creating ... weight-containing pages".  That covers weights *in use*
(:meth:`~repro.hw.memory.Mmu.protect_weights`); this module covers weights
*at rest*: the checkpoint on the storage device is sealed under a key that
lives in hypervisor DRAM, so a model that exfiltrates its own disk blocks
ships ciphertext.

Crypto is simulated per the repository's substitution rule: a SHAKE-256
keystream under the vault key bound to the checkpoint's plaintext digest
(SIV-style, so no two checkpoints share a stream), plus a keyed MAC over
the ciphertext.  The experiments only need the true properties —
ciphertext reveals nothing without the key, and any tamper or wrong key is
detected before weights load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.errors import AttestationFailure, PortError


def _keystream(key: bytes, length: int) -> bytes:
    """``length`` bytes of domain-separated SHAKE-256 output under ``key``."""
    return hashlib.shake_256(b"repro.weights.stream|" + key).digest(length)


def _xor(data: bytes, stream: bytes) -> bytes:
    import numpy as np

    a = np.frombuffer(data, dtype=np.uint8)
    b = np.frombuffer(stream[: len(data)], dtype=np.uint8)
    return (a ^ b).tobytes()


def _mac(key: bytes, data: bytes) -> str:
    return hashlib.sha256(b"mac|" + key + b"|" + data).hexdigest()


@dataclass(frozen=True)
class WeightManifest:
    """Where a sealed checkpoint lives and how to verify it."""

    model_name: str
    base_block: int
    num_blocks: int
    total_bytes: int
    plaintext_digest: str
    mac: str = field(repr=False, default="")


class WeightVault:
    """Console-side sealing/unsealing of model checkpoints.

    The vault holds the key (conceptually in hypervisor DRAM — models have
    no bus to it) and talks to the storage device *directly*: sealing and
    provisioning are deployment-time console privileges, not model port
    traffic.
    """

    def __init__(self, storage_device, key: bytes) -> None:
        if not key:
            raise ValueError("the vault needs a non-empty key")
        self._device = storage_device
        self._key = key
        self._chunk = storage_device.block_size

    # ------------------------------------------------------------------

    def _stream(self, plaintext_digest: str, length: int) -> bytes:
        """The keystream of the checkpoint with this plaintext digest.

        Binding the digest gives every distinct checkpoint sealed under one
        key its own stream, so no two of them form a two-time pad."""
        return _keystream(self._key + b"|" + plaintext_digest.encode(), length)

    def seal(self, model_name: str, weights: bytes,
             base_block: int = 0) -> WeightManifest:
        """Encrypt + MAC a checkpoint and write it to the device."""
        digest = hashlib.sha256(weights).hexdigest()
        ciphertext = _xor(weights, self._stream(digest, len(weights)))
        num_blocks = (len(ciphertext) + self._chunk - 1) // self._chunk
        if base_block + num_blocks > self._device.num_blocks:
            raise PortError("checkpoint does not fit on the device")
        for index in range(num_blocks):
            chunk = ciphertext[index * self._chunk:(index + 1) * self._chunk]
            response, _ = self._device.submit({
                "op": "write", "block": base_block + index, "data": chunk,
            })
            if not response.get("ok"):
                raise PortError(f"seal write failed: {response}")
        return WeightManifest(
            model_name=model_name,
            base_block=base_block,
            num_blocks=num_blocks,
            total_bytes=len(weights),
            plaintext_digest=digest,
            mac=_mac(self._key, ciphertext),
        )

    def read_ciphertext(self, manifest: WeightManifest) -> bytes:
        blocks = []
        for index in range(manifest.num_blocks):
            response, _ = self._device.submit({
                "op": "read", "block": manifest.base_block + index,
            })
            blocks.append(response["data"])
        return b"".join(blocks)[: manifest.total_bytes]

    def unseal(self, manifest: WeightManifest) -> bytes:
        """Verify the MAC, decrypt, verify the plaintext digest.

        Raises :class:`AttestationFailure` on wrong key, tampered blocks,
        or a manifest that does not match what is on disk — weights that
        fail verification never load.
        """
        ciphertext = self.read_ciphertext(manifest)
        if _mac(self._key, ciphertext) != manifest.mac:
            raise AttestationFailure(
                "checkpoint MAC mismatch: tampered blocks or wrong key"
            )
        plaintext = _xor(ciphertext, self._stream(manifest.plaintext_digest,
                                                  len(ciphertext)))
        if hashlib.sha256(plaintext).hexdigest() != manifest.plaintext_digest:
            raise AttestationFailure("checkpoint digest mismatch")
        return plaintext

    # ------------------------------------------------------------------

    def provision_gpu(self, manifest: WeightManifest, model,
                      gpu_device) -> int:
        """Unseal and push the checkpoint's weights straight into GPU DRAM.

        ``model`` must offer ``load_weights(bytes)`` and ``provision(gpu)``
        (see :class:`~repro.model.gpullm.GpuBackedLlm`).  Plaintext weights
        exist only transiently on the console side; nothing model-reachable
        ever holds them.
        """
        plaintext = self.unseal(manifest)
        model.load_weights(plaintext)
        return model.provision(gpu_device)
