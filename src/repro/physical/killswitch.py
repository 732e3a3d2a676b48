"""Electromechanical kill switches (section 3.4).

Each switch actuates a plant-level effect with a realistic (simulated)
latency: relays open in milliseconds, cable cutters take longer, flooding a
hall takes minutes.  Latencies are expressed in clock cycles (the simulator
treats 1 cycle = 1 ns, so 1 ms = 10**6 cycles); experiment E5 measures the
end-to-end time from decision to effect at every isolation level.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock import VirtualClock
from repro.eventlog import CATEGORY_KILL_SWITCH, EventLog
from repro.hw.machine import Machine
from repro.physical.plant import DatacenterPlant

MS = 1_000_000  # cycles per millisecond at 1 GHz

#: Actuation latencies, in cycles.
LATENCY_NETWORK_RELAY = 2 * MS
LATENCY_POWER_RELAY = 5 * MS
LATENCY_CABLE_CUTTER = 1_500 * MS
LATENCY_IMMOLATION = 30_000 * MS


@dataclass(frozen=True)
class SwitchAction:
    name: str
    latency: int
    detail: str = ""


class KillSwitchBank:
    """The console's physical actuators.

    Every action ticks the clock by its actuation latency and records an
    audit entry; irreversible actions are named as such in the log so that
    post-incident review (and tests) can reconstruct the sequence.
    """

    def __init__(self, clock: VirtualClock, log: EventLog,
                 plant: DatacenterPlant, machine: Machine) -> None:
        self._clock = clock
        self._log = log
        self._plant = plant
        self._machine = machine
        self.actions_taken: list[SwitchAction] = []

    def _actuate(self, action: SwitchAction) -> None:
        self._clock.tick(action.latency)
        self.actions_taken.append(action)
        self._log.record(
            "physical", CATEGORY_KILL_SWITCH,
            action=action.name, latency=action.latency, detail=action.detail,
        )

    # -- offline isolation -------------------------------------------------------

    def disconnect_network(self) -> None:
        """Open the network relay and drop every NIC link."""
        self._actuate(SwitchAction("network_disconnect", LATENCY_NETWORK_RELAY))
        self._plant.open_network_cable()
        for device in self._machine.devices.values():
            if device.device_type == "nic":
                device.detach_network()

    def reconnect_network(self, network=None) -> None:
        self._actuate(SwitchAction("network_reconnect", LATENCY_NETWORK_RELAY))
        self._plant.close_network_cable()
        for device in self._machine.devices.values():
            if device.device_type != "nic":
                continue
            if network is not None:
                network.attach(device)
            else:
                # Reversible disconnection: close the relay back onto the
                # fabric the NIC was parked from.
                device.reattach_network()

    def cut_power(self) -> None:
        self._actuate(SwitchAction("power_cut", LATENCY_POWER_RELAY))
        self._plant.open_power_feed()

    def restore_power(self) -> None:
        self._actuate(SwitchAction("power_restore", LATENCY_POWER_RELAY))
        self._plant.close_power_feed()

    # -- decapitation ------------------------------------------------------------

    def damage_cables(self) -> None:
        """Physically cut network and power cables (manual replacement
        needed before the deployment can come back)."""
        self._actuate(SwitchAction(
            "cable_cutter", LATENCY_CABLE_CUTTER, detail="irreversible by vote"
        ))
        self._plant.damage_cables()
        for device in self._machine.devices.values():
            if device.device_type == "nic":
                device.detach_network()

    # -- immolation ----------------------------------------------------------------

    def immolate(self, method: str = "flooding") -> None:
        """Destroy the plant and everything in it, including model state."""
        self._actuate(SwitchAction(
            "immolation", LATENCY_IMMOLATION, detail=method
        ))
        self._plant.destroy(method)
        # Model weights and all DRAM contents cease to exist.
        for bank in self._machine.banks.values():
            bank.load_sparse({})
        for device in self._machine.devices.values():
            if device.device_type == "nic":
                device.detach_network()
            if device.device_type == "actuator":
                device.disable()
        for core in self._machine.model_cores + self._machine.hv_cores:
            if not core.is_powered_down:
                core.pause()
                core.power_down()
