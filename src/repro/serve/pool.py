"""Warm machine pool with lease/release and between-tenant scrubbing.

A pool holds N fully built Guillotine machines (the small fuzz-sized
configuration) that stay warm across leases — construction cost is paid
once per cell, not once per request.  :meth:`MachinePool.release` goes
through the same scrub-and-engine reset as every other machine reuse
(:func:`repro.hw.machine.reset_machine`), so every lease starts from the
power-on state: zeroed DRAM, cold caches/TLB/predictor, empty decoded and
trace caches, a fresh audit-log hash chain, and the virtual clock at
cycle zero (which is what makes per-request ``exec_cycles`` simply the
machine clock at the end of the run).

:func:`repro.hw.machine.machine_fingerprint` captures everything
tenant-visible on a machine; the machine-reuse hygiene regression test
pins that a scrubbed machine fingerprints identically to a never-leased
one on all three engines.
"""

from __future__ import annotations

from bisect import insort

from repro.hw.machine import (
    Machine,
    MachineConfig,
    apply_engine,
    build_guillotine_machine,
    reset_machine,
)


def serve_machine_config() -> MachineConfig:
    """The pooled-machine shape: one model core, small banks, fast builds."""
    return MachineConfig(
        n_model_cores=1,
        n_hv_cores=1,
        model_dram_pages=64,
        hv_dram_pages=16,
        io_dram_pages=4,
    )


class MachinePool:
    """N warm machines with deterministic lowest-index-first leasing."""

    def __init__(self, size: int, engine: str = "trace") -> None:
        if size < 1:
            raise ValueError("pool needs at least one machine")
        self.engine = engine
        self.machines = [
            build_guillotine_machine(serve_machine_config())
            for _ in range(size)
        ]
        for machine in self.machines:
            apply_engine(machine, engine)
        self._free = list(range(size))
        self.leases = 0
        self.scrubs = 0

    @property
    def size(self) -> int:
        return len(self.machines)

    @property
    def free(self) -> int:
        return len(self._free)

    @property
    def busy(self) -> int:
        return self.size - self.free

    def lease(self) -> tuple[int, Machine] | None:
        """Take the lowest-index free machine, or ``None`` if all busy."""
        if not self._free:
            return None
        index = self._free.pop(0)
        self.leases += 1
        return index, self.machines[index]

    def release(self, index: int) -> None:
        """Scrub and return a machine to the free list."""
        if index in self._free:
            raise ValueError(f"machine {index} is not leased")
        reset_machine(self.machines[index], self.engine)
        self.scrubs += 1
        insort(self._free, index)
