"""Fleet-scale Guillotine: N machines, one control network, one clock.

The fleet layer is where the paper's §3.3 network story becomes
mechanical: a regulator host and every member machine's NIC share one
deterministic :class:`repro.net.Network`, guests migrate between
machines through ``repro.fleet/2`` checkpoint artifacts, and a quorum
vote over that network drives every member's kill switch — degrading to
per-machine fail-closed isolation whenever the fabric is partitioned.
"""

from repro.fleet.checkpoint import (
    CHECKPOINT_SCHEMA,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.fleet.fleet import Fleet, FleetMember
from repro.fleet.injector import FleetInjector
from repro.fleet.campaign import run_fleet, run_fleet_campaign

__all__ = [
    "CHECKPOINT_SCHEMA",
    "capture_checkpoint",
    "restore_checkpoint",
    "Fleet",
    "FleetMember",
    "FleetInjector",
    "run_fleet",
    "run_fleet_campaign",
]
