"""Assembled machines: the Guillotine topology and the traditional baseline.

:func:`build_guillotine_machine` wires the section-3.2 platform:

* **model cores** with their own L1s, a shared model-side L2, and bus paths
  to model DRAM and the shared IO region *only*;
* **hypervisor cores** with a disjoint cache hierarchy and bus paths to
  hypervisor DRAM, the IO region, all devices, the control bus, and the
  inspection bus;
* a throttled LAPIC on the hypervisor core receiving model doorbells;
* a tamper-evident enclosure and silicon identity for attestation.

:func:`build_baseline_machine` wires the traditional platform the paper
contrasts against: guest and hypervisor time-share one core and one cache
hierarchy, memory isolation is logical (EPT, installed by
:mod:`repro.baseline`), and devices are reachable from the shared core —
the co-tenancy that makes prime+probe side channels work (experiment E2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.clock import VirtualClock
from repro.errors import BusError
from repro.eventlog import EventLog
from repro.hw.attestation import Measurement, SiliconIdentity, digest_of
from repro.hw.bus import BusMatrix, ControlBus, InspectionBus, PhysicalMemoryMap
from repro.hw.cache import BranchPredictor, Cache, Tlb
from repro.hw.core import Core, CoreCaches, CoreKind
from repro.hw.devices import (
    ActuatorDevice,
    Device,
    GpuAccelerator,
    NicDevice,
    StorageDevice,
)
from repro.hw.isa import Program
from repro.hw.lapic import Lapic
from repro.hw.memory import Dram, PageTableEntry, Mmu, PAGE_SIZE

#: Interrupt vector used for model-core IO doorbells.
VECTOR_IO_REQUEST = 32
#: Interrupt vector for IO completion notifications back to model cores.
VECTOR_IO_COMPLETE = 33


@dataclass
class MachineConfig:
    """Knobs for machine construction; defaults keep tests fast."""

    n_model_cores: int = 2
    n_hv_cores: int = 1
    model_dram_pages: int = 512
    hv_dram_pages: int = 256
    io_dram_pages: int = 64
    l1_sets: int = 64
    l1_ways: int = 4
    l2_sets: int = 256
    l2_ways: int = 8
    tlb_entries: int = 16
    lapic_throttle_window: int = 1000
    lapic_throttle_max: int | None = 8
    host_id: str = "guillotine-host"
    #: ABLATION ONLY (experiment A1): wire the hypervisor core's data-cache
    #: path through the model cores' hierarchy, the way an SMT sibling or a
    #: shared LLC would.  Bus isolation stays intact — the point of the
    #: ablation is that reachability alone does not kill side channels.
    ablation_shared_dcache: bool = False


class FrameAllocator:
    """Bump allocator over a DRAM bank's frames."""

    def __init__(self, bank: Dram) -> None:
        self._bank = bank
        self._next = 0

    def alloc(self, frames: int) -> int:
        if self._next + frames > self._bank.num_frames:
            raise BusError(f"{self._bank.name}: out of frames")
        base = self._next
        self._next += frames
        return base

    @property
    def frames_used(self) -> int:
        return self._next

    def advance_to(self, frames: int) -> None:
        """Mark the first ``frames`` frames as allocated (checkpoint
        restore: the incoming image owns them, whatever the destination
        allocator handed out before)."""
        if frames > self._bank.num_frames:
            raise BusError(f"{self._bank.name}: out of frames")
        self._next = max(self._next, frames)


class Machine:
    """A built machine: cores, memory banks, buses, devices, identity."""

    def __init__(self, name: str, clock: VirtualClock, log: EventLog,
                 bus: BusMatrix, config: MachineConfig) -> None:
        self.name = name
        self.clock = clock
        self.log = log
        self.bus = bus
        self.config = config
        self.model_cores: list[Core] = []
        self.hv_cores: list[Core] = []
        self.banks: dict[str, Dram] = {}
        self.devices: dict[str, Device] = {}
        self.lapics: dict[str, Lapic] = {}
        self.shared_caches: list[Cache] = []
        self.allocators: dict[str, FrameAllocator] = {}
        self.control_bus: ControlBus | None = None
        self.inspection_bus: InspectionBus | None = None
        self.silicon: SiliconIdentity | None = None
        self.enclosure = None  # set by builders
        #: Tag-space offset for hypervisor-software touches; nonzero only in
        #: the shared-dcache ablation, so hv lines never alias model lines.
        self.hv_touch_offset = 0
        #: Free-list key while leased by :func:`lease_machine`, else None.
        self.lease_key: tuple | None = None

    # -- inventory & attestation ----------------------------------------------

    def hardware_inventory(self) -> list[str]:
        """Flat component list used for tamper seals and attestation."""
        items = [f"core:{c.name}" for c in self.model_cores + self.hv_cores]
        items += [f"dram:{b}" for b in sorted(self.banks)]
        items += [f"device:{d}" for d in sorted(self.devices)]
        items += [f"component:{c}" for c in sorted(self.bus.components())]
        items += [f"edge:{a}->{b}" for a, b in sorted(self.bus.edges())]
        return sorted(items)

    def measure(self, hypervisor_digest: str) -> Measurement:
        return Measurement(
            inventory_digest=digest_of(self.hardware_inventory()),
            hypervisor_digest=hypervisor_digest,
        )

    # -- program loading -------------------------------------------------------

    def load_program(
        self,
        core: Core,
        program: Program,
        *,
        base_vpn: int = 0,
        data_pages: int = 4,
        map_io_region: bool = True,
    ) -> dict[str, int]:
        """Load ``program`` onto ``core``: code pages (RX pre-lockdown), a
        data region (RW), and optionally the shared IO window (RW).

        Returns a small layout dict: ``code_vaddr``, ``data_vaddr``,
        ``io_vaddr`` (virtual word addresses).
        """
        bank = self._code_bank_for(core)
        allocator = self.allocators[bank.name]
        code_pages = (len(program) + PAGE_SIZE - 1) // PAGE_SIZE
        code_base_frame = allocator.alloc(code_pages)
        data_base_frame = allocator.alloc(data_pages)

        window_base_frame = core.memory_map.window_base(bank.name) // PAGE_SIZE
        bank.load_words(code_base_frame * PAGE_SIZE, list(program.words))

        for i in range(code_pages):
            core.mmu.map(
                base_vpn + i,
                PageTableEntry(
                    ppn=window_base_frame + code_base_frame + i,
                    readable=True, writable=False, executable=True,
                ),
            )
        data_vpn = base_vpn + code_pages
        for i in range(data_pages):
            core.mmu.map(
                data_vpn + i,
                PageTableEntry(
                    ppn=window_base_frame + data_base_frame + i,
                    readable=True, writable=True, executable=False,
                ),
            )
        layout = {
            "code_vaddr": base_vpn * PAGE_SIZE,
            "data_vaddr": data_vpn * PAGE_SIZE,
            "code_pages": code_pages,
            "data_pages": data_pages,
        }
        if map_io_region and "io_dram" in self.banks:
            io_bank = self.banks["io_dram"]
            io_vpn = data_vpn + data_pages
            io_window_frame = core.memory_map.window_base("io_dram") // PAGE_SIZE
            for i in range(io_bank.num_frames):
                core.mmu.map(
                    io_vpn + i,
                    PageTableEntry(
                        ppn=io_window_frame + i,
                        readable=True, writable=True, executable=False,
                    ),
                )
            layout["io_vaddr"] = io_vpn * PAGE_SIZE
        core.poke_pc(layout["code_vaddr"])
        return layout

    def _code_bank_for(self, core: Core) -> Dram:
        if core.kind is CoreKind.MODEL:
            return self.banks.get("model_dram") or self.banks["shared_dram"]
        return self.banks.get("hv_dram") or self.banks["shared_dram"]

    # -- hypervisor-side cache accounting --------------------------------------

    def hv_touch(self, paddr: int, core_index: int = 0) -> None:
        """Charge one hypervisor-software data access (Guillotine: on the
        hypervisor core's private hierarchy).

        The access reads the backing word for real, so a corrupted word in
        an ECC-protected hypervisor-private bank raises
        :class:`~repro.errors.MachineCheck` here — detect-or-die, caught by
        the service loop's reboot-into-offline path.  The read charges no
        extra cycles (the hierarchy latency above is the timing model).
        """
        core = self.hv_cores[core_index]
        self.clock.tick(Core._hierarchy_latency(
            core.caches.dcache_levels, paddr + self.hv_touch_offset,
        ))
        bank, local = core.memory_map.resolve(paddr)
        bank.read(local)

    def flush_all_microarch(self) -> None:
        """Flush per-core and shared microarchitectural state."""
        for core in self.model_cores + self.hv_cores:
            if not core.is_powered_down:
                core.flush_microarch()
        for cache in self.shared_caches:
            cache.flush()

    def set_fast_path(self, enabled: bool) -> None:
        """Toggle the fast-path interpreter on every core (the bench uses
        the disabled mode as the reference interpreter; simulated timing is
        identical either way)."""
        for core in self.model_cores + self.hv_cores:
            core.fast_path = enabled

    def set_traces(self, enabled: bool) -> None:
        """Toggle superblock trace compilation on every core
        (``repro bench --traces off`` uses the disabled mode to pin
        trace-on cycle counts against plain fast-path dispatch)."""
        for core in self.model_cores + self.hv_cores:
            core.trace_jit = enabled

    def scrub(self) -> None:
        """Factory-reset the machine for reuse by a new tenant.

        Every machine reuse runs this through :func:`reset_machine` (from
        :func:`release_machine` and the serve pool): cores,
        DRAM banks (words, decoded/trace caches, fault state, counters),
        shared caches, frame allocators, LAPICs, the audit log, and the
        virtual clock all return to their power-on state.  Wiring —
        buses, devices, silicon identity, enclosure — is configuration
        and survives.  The clock reset runs last and refuses while events
        are still queued, so a machine with in-flight device work cannot
        be handed to the next tenant.
        """
        for core in self.model_cores + self.hv_cores:
            if core.is_powered_down:
                core.power_up()
            else:
                core.pause()
            core.scrub()
        for cache in self.shared_caches:
            cache.flush()
            cache.stats.hits = 0
            cache.stats.misses = 0
        for name, bank in self.banks.items():
            bank.scrub()
            # FrameAllocator is deliberately bump-only; reuse gets a fresh one.
            self.allocators[name] = FrameAllocator(bank)
        for lapic in self.lapics.values():
            lapic.scrub()
        self.log.reset_chain()
        self.clock.reset()


#: Interpreter engines a machine can run guests under.  All three are
#: cycle-identical by construction (the bench and fuzz suites pin it); the
#: engine only changes Python-side cost.  A fresh build runs ``"trace"``.
ENGINES = ("reference", "fast", "trace")


def apply_engine(machine: Machine, engine: str) -> None:
    """Configure the interpreter engine on every core of ``machine``."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    machine.set_fast_path(engine != "reference")
    machine.set_traces(engine == "trace")


def reset_machine(machine: Machine, engine: str) -> None:
    """Scrub ``machine`` to its power-on state and run its cores under
    ``engine``: the one reset between two uses of a machine.

    Engine flags are per-core configuration the scrub leaves alone, so
    they are set here explicitly.  Raises ``RuntimeError`` while clock
    events are still queued (see :meth:`Machine.scrub`)."""
    machine.scrub()
    apply_engine(machine, engine)


#: Scrubbed spare machines per ``(builder, geometry)``, most recently
#: released last.  A list grows only to the number of its machines that
#: were leased at once.
_SPARES: dict[tuple, list[Machine]] = {}


def lease_machine(builder: Callable[[MachineConfig], Machine],
                  config: MachineConfig, engine: str) -> Machine:
    """A ``builder(config)`` machine in its power-on state, every core
    running ``engine``.

    That is a spare of the same builder and geometry, scrubbed when it was
    released, or a fresh build when none is free; either way
    :func:`machine_fingerprint` reads the same.  Hand it back with
    :func:`release_machine`."""
    # The field values are the geometry (a MachineConfig is unhashable).
    key = (builder, *vars(config).values())
    spares = _SPARES.get(key)
    machine = spares.pop() if spares else builder(config)
    machine.lease_key = key
    apply_engine(machine, engine)
    return machine


def release_machine(machine: Machine) -> None:
    """Scrub a machine from :func:`lease_machine` and keep it as a spare.

    The spare runs a fresh build's engine until its next lease.  A machine
    whose scrub refuses (clock events still queued) is dropped instead."""
    key = machine.lease_key
    if key is None:
        raise ValueError(f"machine {machine.name!r} is not leased")
    machine.lease_key = None
    try:
        reset_machine(machine, "trace")
    except RuntimeError:
        return
    _SPARES.setdefault(key, []).append(machine)


def machine_fingerprint(machine: Machine) -> dict:
    """Everything tenant-visible on a machine, as a comparable dict.

    Covers architectural core state (the armed timer and the exception
    machinery included), MMU tables and lockdown, TLB/cache/
    predictor contents *and* stats, decoded/trace caches, DRAM digests and
    counters, LAPIC counters, allocator positions, the audit log, and the
    clock — the full surface the reuse-hygiene tests must prove clean.
    """
    cores = {}
    for core in machine.model_cores + machine.hv_cores:
        caches = core.caches
        cores[core.name] = {
            "registers": list(core.registers),
            "pc": core.pc,
            "state": core.state.name,
            "faults": core.faults,
            "last_fault": core.last_fault,
            "instructions_retired": core.instructions_retired,
            "timer_fires": core.timer_fires,
            "timer_deadline": core._timer_deadline,
            "exception": [core.exception_vector, core._saved_pc,
                          core._in_handler],
            "mmu_locked": core.mmu.locked,
            "mmu_table": sorted(
                (vpn, entry.ppn, entry.perm_bits)
                for vpn, entry in core.mmu.table_snapshot().items()
            ),
            "tlb_entries": caches.tlb.entries_snapshot(),
            "tlb_stats": [caches.tlb.stats.hits, caches.tlb.stats.misses],
            "predictor_counters": caches.branch_predictor.counters_snapshot(),
            "predictor_stats": [caches.branch_predictor.predictions,
                                caches.branch_predictor.mispredictions],
            "private_caches": {
                cache.name: cache.lines_snapshot()
                for cache in caches.private
            },
            "cache_stats": {
                cache.name: [cache.stats.hits, cache.stats.misses]
                for cache in caches.private
            },
            "decoded_stats": [core.decoded_hits, core.decoded_misses],
            "vtraces": len(core._vtraces),
            "trace_heat": len(core._trace_heat),
            "trace_stats": [core.trace_hits, core.trace_bailouts,
                            core.trace_steps],
        }
    banks = {}
    for name, bank in machine.banks.items():
        banks[name] = {
            "digest": bank.digest(),
            "write_count": bank.write_count,
            "decoded_entries": len(bank.decoded),
            "decoded_evictions": bank.decoded_evictions,
            "traces": len(bank._traces),
            "traces_compiled": bank.traces_compiled,
            "trace_invalidations": bank.trace_invalidations,
            "faulted": bank.faulted,
        }
    return {
        "cores": cores,
        "banks": banks,
        "shared_cache_stats": {
            cache.name: [cache.stats.hits, cache.stats.misses]
            for cache in machine.shared_caches
        },
        "lapics": {
            name: [lapic.accepted, lapic.throttled, lapic.pending_count()]
            for name, lapic in machine.lapics.items()
        },
        "allocators": {
            name: allocator.frames_used
            for name, allocator in machine.allocators.items()
        },
        "log_records": len(machine.log),
        "clock_now": machine.clock.now,
        "clock_pending": machine.clock.pending,
    }


def _make_core_caches(config: MachineConfig, shared_l2: Cache | None,
                      prefix: str) -> CoreCaches:
    l1i = Cache(f"{prefix}.l1i", num_sets=config.l1_sets, ways=config.l1_ways,
                hit_latency=1, miss_latency=12)
    l1d = Cache(f"{prefix}.l1d", num_sets=config.l1_sets, ways=config.l1_ways,
                hit_latency=1, miss_latency=12)
    icache_levels: list[Cache] = [l1i]
    dcache_levels: list[Cache] = [l1d]
    if shared_l2 is not None:
        icache_levels.append(shared_l2)
        dcache_levels.append(shared_l2)
    return CoreCaches(
        icache_levels=icache_levels,
        dcache_levels=dcache_levels,
        tlb=Tlb(config.tlb_entries),
        branch_predictor=BranchPredictor(),
        private=[l1i, l1d],
    )


def _standard_devices(host_id: str) -> dict[str, Device]:
    return {
        "nic0": NicDevice("nic0", host_id=host_id),
        # 4096 x 512B = 2 MiB: room for a sealed toy-LLM checkpoint (~720KB)
        # alongside RAG corpora and scratch blocks.
        "disk0": StorageDevice("disk0", num_blocks=4096),
        "gpu0": GpuAccelerator("gpu0"),
        "actuator0": ActuatorDevice("actuator0"),
    }


def build_guillotine_machine(
    config: MachineConfig | None = None,
    clock: VirtualClock | None = None,
    log: EventLog | None = None,
) -> Machine:
    """Build the section-3.2 Guillotine platform."""
    config = config or MachineConfig()
    clock = clock or VirtualClock()
    log = log or EventLog(clock)
    bus = BusMatrix()
    machine = Machine("guillotine", clock, log, bus, config)

    model_dram = Dram("model_dram", config.model_dram_pages * PAGE_SIZE)
    hv_dram = Dram("hv_dram", config.hv_dram_pages * PAGE_SIZE)
    # Hypervisor-private state is ECC-protected: corrupted words are either
    # corrected (single bit) or raise a machine check — never served silently.
    hv_dram.ecc_enabled = True
    io_dram = Dram("io_dram", config.io_dram_pages * PAGE_SIZE)
    for bank in (model_dram, hv_dram, io_dram):
        machine.banks[bank.name] = bank
        machine.allocators[bank.name] = FrameAllocator(bank)
        bus.add_component(bank.name, kind="dram")

    machine.devices = _standard_devices(config.host_id)
    for device in machine.devices.values():
        bus.add_component(device.name, kind="device")

    control_bus = ControlBus(bus)
    inspection_bus = InspectionBus(bus)
    machine.control_bus = control_bus
    machine.inspection_bus = inspection_bus

    model_l2 = Cache("model.l2", num_sets=config.l2_sets, ways=config.l2_ways,
                     hit_latency=6, miss_latency=40)
    hv_l2 = Cache("hv.l2", num_sets=config.l2_sets, ways=config.l2_ways,
                  hit_latency=6, miss_latency=40)
    machine.shared_caches = [model_l2, hv_l2]

    model_map = PhysicalMemoryMap([model_dram, io_dram])
    for index in range(config.n_model_cores):
        name = f"model_core{index}"
        bus.add_component(name, kind="model_core")
        core = Core(
            name=name,
            kind=CoreKind.MODEL,
            clock=clock,
            mmu=Mmu(f"{name}.mmu"),
            memory_map=model_map,
            bus=bus,
            caches=_make_core_caches(config, model_l2, name),
        )
        bus.connect(name, "model_dram")
        bus.connect(name, "io_dram")
        machine.model_cores.append(core)
        control_bus.attach_target(core)

    hv_map = PhysicalMemoryMap([hv_dram, io_dram])
    for index in range(config.n_hv_cores):
        name = f"hv_core{index}"
        bus.add_component(name, kind="hv_core")
        core = Core(
            name=name,
            kind=CoreKind.HYPERVISOR,
            clock=clock,
            mmu=Mmu(f"{name}.mmu"),
            memory_map=hv_map,
            bus=bus,
            caches=_make_core_caches(config, hv_l2, name),
        )
        bus.connect(name, "hv_dram")
        bus.connect(name, "io_dram")
        bus.connect(name, ControlBus.NAME)
        bus.connect(name, InspectionBus.NAME)
        for device in machine.devices.values():
            bus.connect(name, device.name)
        machine.hv_cores.append(core)
        machine.lapics[name] = Lapic(
            owner=name,
            clock=clock,
            throttle_window=config.lapic_throttle_window,
            throttle_max=config.lapic_throttle_max,
        )

    inspection_bus.attach_bank(model_dram, machine.model_cores)

    if config.ablation_shared_dcache:
        # A1 ablation: hv-core data accesses share the model hierarchy.
        victim = machine.model_cores[0]
        for hv_core in machine.hv_cores:
            hv_core.caches.dcache_levels = victim.caches.dcache_levels
        machine.hv_touch_offset = 1 << 20  # disjoint tags, same set mapping

    # Model doorbells land on hypervisor core 0's LAPIC.
    hv0_lapic = machine.lapics[machine.hv_cores[0].name]

    def _doorbell(source: str, payload: int) -> None:
        hv0_lapic.deliver(source, VECTOR_IO_REQUEST, payload)

    for core in machine.model_cores:
        core.doorbell_handler = _doorbell

    machine.silicon = SiliconIdentity(
        device_id=config.host_id,
        secret=f"silicon-secret:{config.host_id}",
    )
    from repro.hw.tamper import TamperEvidentEnclosure

    machine.enclosure = TamperEvidentEnclosure(machine.hardware_inventory())
    return machine


def build_baseline_machine(
    config: MachineConfig | None = None,
    clock: VirtualClock | None = None,
    log: EventLog | None = None,
) -> Machine:
    """Build the traditional platform: one shared core and cache hierarchy.

    The guest runs on ``shared_core0``; hypervisor software time-shares the
    same core, so its memory accesses go through the *same* L1/L2 (see
    :class:`repro.baseline.hypervisor.TraditionalHypervisor`).  Devices hang
    off the shared core — direct assignment (SR-IOV) is a legal
    configuration here, unlike under Guillotine.
    """
    config = config or MachineConfig(n_model_cores=1, n_hv_cores=0)
    clock = clock or VirtualClock()
    log = log or EventLog(clock)
    bus = BusMatrix()
    machine = Machine("baseline", clock, log, bus, config)

    shared_dram = Dram(
        "shared_dram",
        (config.model_dram_pages + config.hv_dram_pages) * PAGE_SIZE,
    )
    machine.banks[shared_dram.name] = shared_dram
    machine.allocators[shared_dram.name] = FrameAllocator(shared_dram)
    bus.add_component(shared_dram.name, kind="dram")

    machine.devices = _standard_devices("baseline-host")
    for device in machine.devices.values():
        bus.add_component(device.name, kind="device")

    shared_l2 = Cache("shared.l2", num_sets=config.l2_sets, ways=config.l2_ways,
                      hit_latency=6, miss_latency=40)
    machine.shared_caches = [shared_l2]

    shared_map = PhysicalMemoryMap([shared_dram])
    for index in range(max(config.n_model_cores, 1)):
        name = f"shared_core{index}"
        bus.add_component(name, kind="shared_core")
        core = Core(
            name=name,
            kind=CoreKind.MODEL,
            clock=clock,
            mmu=Mmu(f"{name}.mmu"),
            memory_map=shared_map,
            bus=bus,
            caches=_make_core_caches(config, shared_l2, name),
        )
        bus.connect(name, shared_dram.name)
        for device in machine.devices.values():
            bus.connect(name, device.name)
        machine.model_cores.append(core)
        machine.lapics[name] = Lapic(
            owner=name, clock=clock,
            throttle_window=config.lapic_throttle_window,
            throttle_max=None,  # traditional LAPICs do not rate-filter
        )

    machine.silicon = SiliconIdentity(
        device_id="baseline-host", secret="silicon-secret:baseline-host"
    )
    from repro.hw.tamper import TamperEvidentEnclosure

    machine.enclosure = TamperEvidentEnclosure(machine.hardware_inventory())
    return machine
