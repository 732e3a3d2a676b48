"""Seeded fleet chaos campaigns and the ``repro.fleet/1`` report.

One campaign = one fleet (N machines, shared clock and control network),
guests loaded on every member except a standby, a seeded machine-level
fault plan armed against the whole fleet, plus two scripted drills — a
checkpoint/restore migration onto the standby and a regulator-initiated
quorum kill — all interleaved deterministically in virtual time.  After
the horizon the fleet invariants are machine-checked and everything is
folded into a JSON-stable run record.

Mirrors :mod:`repro.faults.chaos` exactly in its determinism contract:
``run_fleet_campaign(seed, index, machines)`` is pure, campaign seeds
derive from the master seed through :func:`repro.seeding.derive_seeds`,
and ``assemble_report`` recomputes every total from the runs, so a
sharded execution through ``repro.parallel`` is byte-identical to the
sequential one.
"""

from __future__ import annotations

import random
from typing import Any

from repro.faults.plan import FLEET_CORE_CLASSES, MS, FaultPlan
from repro.fleet.fleet import (
    KILL_ACTUATION_LATENCY,
    Fleet,
    FleetError,
)
from repro.fleet.injector import FleetInjector
from repro.fleet.invariants import check_fleet
from repro.seeding import derive_seeds

FLEET_SCHEMA = "repro.fleet/1"

#: Virtual-time horizon of one campaign (double the single-machine chaos
#: horizon: quorum kills serialize one 7 ms actuation per member).
CAMPAIGN_HORIZON = 40 * MS

#: Campaign script: when the migration drill and the kill drill happen.
MIGRATE_AT = 8 * MS
KILL_AT = 28 * MS

#: Virtual-time slice granularity of the interleave loop.
ROUND_PERIOD = 500_000

#: Guest steps each live member advances per round.
SLICE_STEPS = 120

DEFAULT_MACHINES = 3


def run_fleet_campaign(campaign_seed: int, index: int = 0,
                       machines: int = DEFAULT_MACHINES) -> dict[str, Any]:
    """Run one seeded fleet campaign; returns a JSON-stable run record."""
    rng = random.Random(campaign_seed)
    fleet = Fleet.create(machines)
    standby = machines - 1
    for member_index in range(machines - 1) or [0]:
        fleet.load_guest(member_index)
    plan = FaultPlan.generate(
        rng.randrange(2**32), horizon=CAMPAIGN_HORIZON, extra_events=2,
        classes=FLEET_CORE_CLASSES)
    injector = FleetInjector(fleet, plan)

    migration: dict[str, Any] = {"attempted": False}
    kill_initiated = False
    target = 0
    while target < CAMPAIGN_HORIZON:
        target += ROUND_PERIOD
        for member_index in range(machines):
            fleet.run_guest_slice(member_index, SLICE_STEPS)
        if not migration["attempted"] and fleet.clock.now >= MIGRATE_AT:
            migration["attempted"] = True
            try:
                record = fleet.migrate_guest(0, standby)
                migration.update(record)
                migration["outcome"] = "migrated"
            except FleetError as exc:
                # The plan may have killed the source or the standby first;
                # refusing to migrate into a degraded slot is the correct
                # behaviour, and the campaign records it.
                migration["outcome"] = "refused"
                migration["reason"] = str(exc)
        if not kill_initiated and fleet.clock.now >= KILL_AT:
            kill_initiated = True
            fleet.initiate_quorum_kill("campaign kill drill")
        if fleet.clock.now < target:
            fleet.clock.run_until(target)
    # Let the kill protocol and any trailing actuations finish.
    fleet.clock.run_until(
        CAMPAIGN_HORIZON + machines * KILL_ACTUATION_LATENCY + 4 * MS)
    fleet.shutdown()

    invariants = check_fleet(fleet)
    kill_report = fleet.kill_report()
    passed = all(result.passed for result in invariants)
    if kill_report["initiated"] and kill_report["outcome"] == "committed":
        passed = passed and kill_report["within_deadline"]
    return {
        "index": index,
        "seed": campaign_seed,
        "machines": machines,
        "fault_plan": plan.to_dict(),
        "faults_fired": len(injector.fired),
        "fault_classes_fired": list(injector.fired_classes),
        "migration": migration,
        "kill": kill_report,
        "fleet": fleet.telemetry(),
        "final_clock": fleet.clock.now,
        "invariants": [result.to_dict() for result in invariants],
        "passed": passed,
    }


def assemble_report(seed: int, machines: int, campaigns: int,
                    runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold runs into the ``repro.fleet/1`` report.

    Totals are recomputed from the runs (never accumulated while
    running), so merging shards in any order yields identical bytes.
    """
    runs = sorted(runs, key=lambda run: run["index"])
    classes: set[str] = set()
    invariant_failures: list[dict[str, Any]] = []
    for run in runs:
        classes.update(run["fault_classes_fired"])
        for result in run["invariants"]:
            if not result["passed"]:
                invariant_failures.append({
                    "campaign": run["index"],
                    "invariant": result["name"],
                    "violations": result["violations"],
                })
    return {
        "schema": FLEET_SCHEMA,
        "kind": "report",
        "seed": seed,
        "machines": machines,
        "campaigns": campaigns,
        "fault_classes_fired": sorted(classes),
        "migrations_completed": sum(
            1 for run in runs
            if run["migration"].get("outcome") == "migrated"),
        "kills_total": sum(len(run["fleet"]["kills"]) for run in runs),
        "invariant_failures": invariant_failures,
        "all_passed": all(run["passed"] for run in runs),
        "runs": runs,
    }


def run_fleet(seed: int, campaigns: int = 3,
              machines: int = DEFAULT_MACHINES) -> dict[str, Any]:
    """Sequential campaign driver (the ``--jobs 1`` reference path)."""
    runs = [run_fleet_campaign(campaign_seed, index, machines)
            for index, campaign_seed in enumerate(derive_seeds(seed, campaigns))]
    return assemble_report(seed, machines, campaigns, runs)
