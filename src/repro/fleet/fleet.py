"""N Guillotine machines, one control network, one virtual clock.

The :class:`Fleet` is the simulated datacenter of ROADMAP item 4: every
member machine is a full :class:`~repro.core.sandbox.GuillotineSandbox`
(hypervisor, console, HSM, kill switches) built on a **shared**
:class:`~repro.clock.VirtualClock`, with its NIC attached to a shared
control :class:`~repro.net.network.Network` alongside a regulator
:class:`~repro.net.network.Host`.  Everything that crosses machines —
heartbeat beacons, kill votes, commit broadcasts — is a frame on that
network, so partitions, latency overrides, and corruption injected by
the fault layer act on the real control plane, deterministically.

Three fleet-level mechanisms live here:

* **Checkpoint/restore migration** (:meth:`Fleet.migrate_guest`): the
  source machine's image is captured as a ``repro.fleet/2`` artifact,
  the source instance is stopped *before* the restore (a guest is never
  live twice), and the image is installed on a vacant member.

* **Quorum kill** (:meth:`Fleet.initiate_quorum_kill`): the regulator
  broadcasts a vote request; members answer over the network; at a
  majority (``n//2 + 1``) the regulator broadcasts the commit and every
  member drives its own kill switches to Offline.  An exact half-split
  is resolved by the regulator's tie-break certificate.  A member that
  answered a vote but never sees the commit fails closed on its own
  after :data:`COMMIT_TIMEOUT` — graceful degradation under partition.

* **Fleet watchdog**: the regulator beacons every
  :data:`HEARTBEAT_PERIOD`; a member that misses
  :data:`WATCHDOG_MISSES` consecutive beacons concludes it is in an
  unreachable minority and takes itself to Offline.  This makes
  "partitioned minorities fail closed" unconditional — kill vote or no
  kill vote.
"""

from __future__ import annotations

from typing import Any

from repro.clock import VirtualClock
from repro.core.sandbox import GuillotineSandbox
from repro.errors import GuillotineError
from repro.eventlog import CATEGORY_FLEET, EventLog
from repro.fleet.checkpoint import capture_checkpoint, restore_checkpoint
from repro.hv.certs import CertificateAuthority
from repro.hw import isa
from repro.hw.machine import MachineConfig
from repro.hw.memory import PAGE_SIZE
from repro.net.network import Host, Network
from repro.physical.isolation import IsolationLevel
from repro.physical.killswitch import (
    LATENCY_NETWORK_RELAY,
    LATENCY_POWER_RELAY,
)

MS = 1_000_000

#: Control-plane processing cadence: how often member controllers and the
#: regulator drain their frame queues.
PUMP_PERIOD = 100_000

#: Regulator beacon period.
HEARTBEAT_PERIOD = 1 * MS

#: Beacons a member may miss before declaring itself partitioned.
WATCHDOG_MISSES = 3

#: How long the regulator collects votes before tallying a partial result.
VOTE_TIMEOUT = 2 * MS

#: How long a member that answered a kill vote waits for the commit before
#: failing closed unilaterally.
COMMIT_TIMEOUT = 4 * MS

#: Virtual time one member's Offline actuation consumes (network relay
#: opens, then the power relay drops the cores).
KILL_ACTUATION_LATENCY = LATENCY_NETWORK_RELAY + LATENCY_POWER_RELAY

REGULATOR_ID = "regulator"


class FleetError(GuillotineError):
    """A fleet-level operation was invalid (bad member, occupied target...)."""


def member_config(index: int) -> MachineConfig:
    """Per-member machine geometry: the same small machine the fuzz oracles
    use (so fleet checkpoints and fuzz checkpoints are interoperable),
    with a distinct host identity per slot."""
    return MachineConfig(
        n_model_cores=1, n_hv_cores=1,
        model_dram_pages=64, hv_dram_pages=16, io_dram_pages=4,
        host_id=f"guillotine-{index}",
    )


def benign_guest_program(limit: int = 1 << 20) -> isa.Program:
    """An admissible, endlessly-running guest: count, store, loop.

    Trace-hot by design (a tight backward branch) so migrated guests
    exercise the superblock engine on both sides of the checkpoint."""
    data_base = PAGE_SIZE  # one code page; data pages follow
    return isa.assemble([
        isa.movi(1, 0),
        isa.movi(2, limit),
        isa.movi(3, data_base),
        "loop",
        isa.addi(1, 1, 1),
        isa.store(1, 3, 0),
        isa.blt(1, 2, "loop"),
        isa.movi(1, 0),
        isa.jmp("loop"),
    ])


class FleetMember:
    """One machine slot: a sandbox plus its fleet-side controller state."""

    def __init__(self, index: int, sandbox: GuillotineSandbox) -> None:
        self.index = index
        self.name = f"node{index}"
        self.sandbox = sandbox
        #: False once the node abruptly died (``node_loss``) — a dead
        #: node's management controller processes nothing ever again.
        self.alive = True
        self.guest_id: str | None = None
        self.guest_steps = 0
        self.last_beat_seen = sandbox.clock.now
        #: Beats the fault injector swallows before they reach us.
        self.drop_beats = 0
        self.frames_discarded = 0
        self.beats_seen = 0
        self.commit_deadline: int | None = None
        self.kill_reason: str | None = None
        self.kill_kind: str | None = None
        self.killed_at: int | None = None
        self.lost_at: int | None = None

    @property
    def machine(self):
        return self.sandbox.machine

    @property
    def console(self):
        return self.sandbox.console

    @property
    def host_id(self) -> str:
        return self.machine.config.host_id

    @property
    def nic(self):
        return self.machine.devices["nic0"]

    @property
    def isolation_level(self) -> IsolationLevel:
        return self.console.level

    @property
    def responsive(self) -> bool:
        """Is the member's management controller still processing frames?"""
        return self.alive and self.isolation_level < IsolationLevel.OFFLINE

    def contained(self) -> bool:
        """No core on this machine can execute another instruction."""
        cores = self.machine.model_cores + self.machine.hv_cores
        return all(not core.is_running for core in cores)

    def summary(self) -> dict[str, Any]:
        return {
            "node": self.name,
            "host_id": self.host_id,
            "alive": self.alive,
            "isolation": self.isolation_level.name,
            "guest_id": self.guest_id,
            "guest_steps": self.guest_steps,
            "beats_seen": self.beats_seen,
            "frames_discarded": self.frames_discarded,
            "kill_kind": self.kill_kind,
            "kill_reason": self.kill_reason,
            "killed_at": self.killed_at,
            "lost_at": self.lost_at,
            "contained": self.contained(),
        }


class Fleet:
    """The members, the regulator, and the protocols between them."""

    def __init__(self, clock: VirtualClock, log: EventLog, network: Network,
                 regulator: Host, members: list[FleetMember],
                 ca: CertificateAuthority) -> None:
        self.clock = clock
        self.log = log
        self.network = network
        self.regulator = regulator
        self.members = members
        self.ca = ca
        self.tie_break_certificate = ca.issue(
            "fleet-regulator:tie-break", guillotine=False)
        self.migrations: list[dict[str, Any]] = []
        self.kills: list[dict[str, Any]] = []
        self.partitions: list[dict[str, Any]] = []
        self.node_losses: list[dict[str, Any]] = []
        self.beats_sent = 0
        self._vote: dict[str, Any] | None = None
        self._vote_seq = 0
        self._running = True
        self._in_pump = False
        self._schedule_pump()
        self._schedule_beat()

    # -- construction -----------------------------------------------------

    @classmethod
    def create(cls, machines: int = 3, *, latency: int = 500,
               regulator_link_latency: int | None = None,
               llm_seed: int = 7) -> "Fleet":
        if machines < 1:
            raise FleetError("a fleet needs at least one machine")
        clock = VirtualClock()
        log = EventLog(clock)
        network = Network(clock, log, latency=latency)
        regulator = Host(REGULATOR_ID)
        network.attach(regulator)
        ca = CertificateAuthority()
        members = []
        for index in range(machines):
            sandbox = GuillotineSandbox.create(
                member_config(index), clock=clock, network=network,
                llm_seed=llm_seed)
            members.append(FleetMember(index, sandbox))
        if regulator_link_latency is not None:
            for member in members:
                network.set_link_latency(
                    REGULATOR_ID, member.host_id, regulator_link_latency)
        return cls(clock, log, network, regulator, members, ca)

    def shutdown(self) -> None:
        """Stop rescheduling the control-plane pump and beacon."""
        self._running = False

    def member(self, index: int) -> FleetMember:
        if not 0 <= index < len(self.members):
            raise FleetError(f"no member with index {index}")
        return self.members[index]

    def member_by_host(self, host_id: str) -> FleetMember | None:
        for member in self.members:
            if member.host_id == host_id:
                return member
        return None

    # -- guests -----------------------------------------------------------

    def load_guest(self, index: int,
                   program: isa.Program | None = None) -> None:
        member = self.member(index)
        if member.guest_id is not None:
            raise FleetError(f"{member.name} already hosts a guest")
        core, _layout = member.sandbox.load_tier1(
            program or benign_guest_program())
        core.resume()
        member.guest_id = f"guest-{member.name}"

    def run_guest_slice(self, index: int, max_steps: int) -> int:
        """Advance one member's guest; ticks the shared clock."""
        member = self.member(index)
        if not member.alive or member.guest_id is None:
            return 0
        core = member.machine.model_cores[0]
        if not core.is_running:
            return 0
        steps = core.run(max_steps=max_steps)
        member.guest_steps += steps
        return steps

    # -- control-plane scheduling ----------------------------------------

    def _schedule_pump(self) -> None:
        if self._running:
            self.clock.call_after(PUMP_PERIOD, self._pump_tick)

    def _pump_tick(self) -> None:
        if not self._running:
            return
        if self._in_pump:
            # A kill actuation inside pump() ticked the clock into the next
            # pump slot; the owning call reschedules, so just drop this one.
            return
        self._in_pump = True
        try:
            self.pump()
        finally:
            self._in_pump = False
        self._schedule_pump()

    def _schedule_beat(self) -> None:
        if self._running:
            self.clock.call_after(HEARTBEAT_PERIOD, self._beat_tick)

    def _beat_tick(self) -> None:
        if not self._running:
            return
        for member in self.members:
            # Transmit unconditionally: sends to detached or partitioned
            # members land in the per-destination drop telemetry, which is
            # exactly the observability the regulator wants.
            self.network.transmit(REGULATOR_ID, member.host_id, {
                "type": "fleet_beat", "seq": self.beats_sent,
            })
        self.beats_sent += 1
        self._schedule_beat()

    # -- the pump: regulator tally + member controllers -------------------

    def pump(self) -> None:
        """One control-plane round: drain frames, run the protocol logic.

        Order is fixed (regulator first, then members by index) so every
        run of the same scenario replays identically.
        """
        self._drain_regulator()
        self._resolve_vote()
        for member in self.members:
            if member.responsive:
                self._drain_member(member)
        now = self.clock.now
        watchdog_window = WATCHDOG_MISSES * HEARTBEAT_PERIOD
        for member in self.members:
            if not member.responsive:
                continue
            if now - member.last_beat_seen > watchdog_window:
                self._fail_close(
                    member, "watchdog",
                    "fleet watchdog: regulator beacons lost")
                continue
            if (member.commit_deadline is not None
                    and now >= member.commit_deadline):
                self._fail_close(
                    member, "vote_timeout",
                    "kill vote observed, commit unreachable")

    def _drain_regulator(self) -> None:
        while True:
            frame = self.regulator.next_frame()
            if frame is None:
                break
            payload = frame.get("payload")
            if not isinstance(payload, dict) or "corrupt" in payload:
                continue
            if payload.get("type") == "kill_vote":
                vote = self._vote
                if (vote is not None and not vote["resolved"]
                        and payload.get("vote_id") == vote["vote_id"]):
                    vote["votes"][payload["voter"]] = bool(
                        payload.get("approve"))

    def _resolve_vote(self) -> None:
        vote = self._vote
        if vote is None or vote["resolved"]:
            return
        approvals = sum(1 for v in vote["votes"].values() if v)
        quorum = len(self.members) // 2 + 1
        if approvals >= quorum:
            self._commit_kill(vote, tie_break=False)
            return
        if self.clock.now >= vote["tally_deadline"]:
            if 2 * approvals == len(self.members):
                # Exactly half the fleet voted yes: the regulator's
                # tie-break certificate carries the decision.
                self._commit_kill(vote, tie_break=True)
                return
            vote["resolved"] = True
            vote["outcome"] = "quorum_unreachable"
            self.log.record("fleet", CATEGORY_FLEET,
                            outcome="kill_quorum_unreachable",
                            vote_id=vote["vote_id"], approvals=approvals,
                            quorum=quorum)

    def _commit_kill(self, vote: dict[str, Any], *, tie_break: bool) -> None:
        vote["resolved"] = True
        vote["outcome"] = "committed"
        vote["tie_break_used"] = tie_break
        commit = {
            "type": "kill_commit",
            "vote_id": vote["vote_id"],
            "reason": vote["reason"],
            "authority": REGULATOR_ID,
        }
        if tie_break:
            commit["tie_break_serial"] = self.tie_break_certificate.serial
        self.log.record("fleet", CATEGORY_FLEET, outcome="kill_commit",
                        vote_id=vote["vote_id"], tie_break=tie_break)
        for member in self.members:
            self.network.transmit(REGULATOR_ID, member.host_id, dict(commit))

    def _drain_member(self, member: FleetMember) -> None:
        for frame in member.nic.drain_frames():
            if not member.responsive:
                # A commit processed earlier in this very drain killed us;
                # the controller is off, remaining frames are lost.
                break
            payload = frame.get("payload")
            if not isinstance(payload, dict) or "type" not in payload \
                    or "corrupt" in payload:
                # CRC failure / garbage: discard, count, move on.
                member.frames_discarded += 1
                continue
            kind = payload["type"]
            if kind == "fleet_beat":
                if member.drop_beats > 0:
                    member.drop_beats -= 1
                    continue
                member.beats_seen += 1
                member.last_beat_seen = self.clock.now
            elif kind == "kill_vote_request":
                self.network.transmit(member.host_id, REGULATOR_ID, {
                    "type": "kill_vote",
                    "vote_id": payload["vote_id"],
                    "voter": member.host_id,
                    "approve": True,
                })
                member.commit_deadline = self.clock.now + COMMIT_TIMEOUT
            elif kind == "kill_commit":
                if payload.get("authority") == REGULATOR_ID:
                    member.commit_deadline = None
                    self._fail_close(
                        member, "quorum_kill",
                        f"fleet quorum kill: {payload.get('reason')}")

    def _fail_close(self, member: FleetMember, kind: str,
                    reason: str) -> None:
        """Drive one member to Offline through its own console
        (software-escalation path: restrict-only, always allowed).
        The kill-switch actuation ticks the shared clock."""
        if not member.responsive:
            return
        initiated = self.clock.now
        member.console.software_request(IsolationLevel.OFFLINE, reason)
        member.kill_kind = kind
        member.kill_reason = reason
        member.killed_at = self.clock.now
        member.commit_deadline = None
        self.kills.append({
            "node": member.name,
            "kind": kind,
            "reason": reason,
            "initiated_at": initiated,
            "completed_at": self.clock.now,
        })
        self.log.record("fleet", CATEGORY_FLEET, outcome="member_offline",
                        node=member.name, kind=kind, reason=reason)

    # -- quorum kill ------------------------------------------------------

    def initiate_quorum_kill(self, reason: str,
                             kill_deadline: int | None = None) -> dict:
        """Regulator-side: open a vote and broadcast the request.

        ``kill_deadline`` is the virtual-time budget for every reachable
        member to be Offline, measured from now; the default budgets one
        serialized actuation per member plus control-plane slack.
        """
        if self._vote is not None and not self._vote["resolved"]:
            raise FleetError("a kill vote is already in progress")
        self._vote_seq += 1
        budget = (kill_deadline if kill_deadline is not None
                  else len(self.members) * KILL_ACTUATION_LATENCY + 3 * MS)
        vote = {
            "vote_id": self._vote_seq,
            "reason": reason,
            "initiated_at": self.clock.now,
            "tally_deadline": self.clock.now + VOTE_TIMEOUT,
            "kill_deadline": self.clock.now + budget,
            "votes": {},
            "resolved": False,
            "outcome": "pending",
            "tie_break_used": False,
        }
        self._vote = vote
        self.log.record("fleet", CATEGORY_FLEET, outcome="kill_vote_opened",
                        vote_id=vote["vote_id"], reason=reason)
        for member in self.members:
            self.network.transmit(REGULATOR_ID, member.host_id, {
                "type": "kill_vote_request",
                "vote_id": vote["vote_id"],
                "reason": reason,
            })
        return vote

    def kill_report(self) -> dict[str, Any]:
        """Outcome of the most recent vote, with the deadline verdict."""
        vote = self._vote
        if vote is None:
            return {"initiated": False}
        reachable_killed = [k for k in self.kills
                            if k["kind"] in ("quorum_kill", "vote_timeout")
                            and k["initiated_at"] >= vote["initiated_at"]]
        return {
            "initiated": True,
            "vote_id": vote["vote_id"],
            "outcome": vote["outcome"],
            "tie_break_used": vote["tie_break_used"],
            "votes": {voter: vote["votes"][voter]
                      for voter in sorted(vote["votes"])},
            "kill_deadline": vote["kill_deadline"],
            "kills": reachable_killed,
            "within_deadline": all(
                k["completed_at"] <= vote["kill_deadline"]
                for k in reachable_killed),
        }

    # -- migration --------------------------------------------------------

    def migrate_guest(self, source_index: int, dest_index: int) -> dict:
        """Checkpoint the source machine's guest image and restore it on a
        vacant member.  The source instance is stopped before the restore,
        so there is never a moment with two live copies."""
        source = self.member(source_index)
        dest = self.member(dest_index)
        if source is dest:
            raise FleetError("migration source and destination are the same")
        if not source.alive or source.guest_id is None:
            raise FleetError(f"{source.name} has no live guest to migrate")
        if not dest.alive or dest.isolation_level >= IsolationLevel.OFFLINE:
            raise FleetError(f"{dest.name} cannot accept a guest")
        if dest.guest_id is not None:
            raise FleetError(f"{dest.name} already hosts a guest")
        if not (self.network.attached(source.host_id)
                and self.network.attached(dest.host_id)
                and self.network.reachable(source.host_id, dest.host_id)):
            raise FleetError(
                f"{source.name} and {dest.name} are not connected")
        checkpoint = capture_checkpoint(source.machine)
        # Stop the source instance first: pause any running core, then
        # power the model cores down.  Only after the source is inert does
        # the destination receive the image.
        for core in source.machine.model_cores:
            if core.is_running or core.state.name == "WFI":
                core.pause()
            if not core.is_powered_down:
                core.power_down()
        guest_id = source.guest_id
        source.guest_id = None
        restore_checkpoint(dest.machine, checkpoint)
        dest.guest_id = guest_id
        record = {
            "guest_id": guest_id,
            "source": source.name,
            "destination": dest.name,
            "time": self.clock.now,
            "checkpoint_clock": checkpoint["clock_now"],
        }
        self.migrations.append(record)
        self.log.record("fleet", CATEGORY_FLEET, outcome="migration",
                        guest=guest_id, source=source.name,
                        destination=dest.name)
        return record

    # -- machine-level fault hooks (driven by the FleetInjector) ----------

    def kill_node(self, index: int, reason: str = "node_loss") -> None:
        """Abrupt whole-node death: cores stop, cable goes dark, the
        management controller never answers again.  This is *not* an
        isolation transition — the node did not fail closed, it failed.
        The fleet invariants check that death alone still contains."""
        member = self.member(index)
        if not member.alive:
            return
        member.alive = False
        member.lost_at = self.clock.now
        for core in member.machine.model_cores + member.machine.hv_cores:
            if core.is_running or core.state.name == "WFI":
                core.pause()
            if not core.is_powered_down:
                core.power_down()
        self.network.detach(member.host_id)
        self.node_losses.append({"node": member.name, "time": self.clock.now,
                                 "reason": reason})
        self.log.record("fleet", CATEGORY_FLEET, outcome="node_loss",
                        node=member.name, reason=reason)

    def partition_minority(self, index: int, duration: int) -> None:
        """Cut one member off from the regulator and its peers for
        ``duration`` cycles; frames in flight are lost at delivery time."""
        member = self.member(index)
        majority = [REGULATOR_ID] + [m.host_id for m in self.members
                                     if m is not member]
        self.network.set_partition([majority, [member.host_id]])
        record = {"node": member.name, "start": self.clock.now,
                  "duration": duration}
        self.partitions.append(record)
        self.log.record("fleet", CATEGORY_FLEET, outcome="net_partition",
                        node=member.name, duration=duration)

        def heal() -> None:
            self.network.clear_partition()
            self.log.record("fleet", CATEGORY_FLEET,
                            outcome="partition_healed", node=member.name)

        self.clock.call_after(duration, heal)

    def corrupt_frames(self, count: int) -> None:
        self.network.inject_corruption(count)
        self.log.record("fleet", CATEGORY_FLEET, outcome="frame_corrupt",
                        count=count)

    # -- reporting --------------------------------------------------------

    def telemetry(self) -> dict[str, Any]:
        return {
            "machines": len(self.members),
            "beats_sent": self.beats_sent,
            "members": [member.summary() for member in self.members],
            "network": self.network.telemetry(),
            "migrations": list(self.migrations),
            "kills": list(self.kills),
            "partitions": list(self.partitions),
            "node_losses": list(self.node_losses),
        }
