"""Seeded fleet chaos campaigns: determinism, coverage, report assembly."""

from __future__ import annotations

import json

import pytest

from repro.fleet.campaign import (
    FLEET_SCHEMA,
    assemble_report,
    run_fleet,
    run_fleet_campaign,
)
from repro.seeding import derive_seeds

MASTER_SEED = 7


@pytest.fixture(scope="module")
def campaign_run():
    return run_fleet_campaign(derive_seeds(MASTER_SEED, 1)[0], 0)


class TestDeterminism:
    def test_same_seed_same_run(self, campaign_run):
        again = run_fleet_campaign(derive_seeds(MASTER_SEED, 1)[0], 0)
        assert campaign_run == again
        assert (json.dumps(campaign_run, sort_keys=True)
                == json.dumps(again, sort_keys=True))

    def test_seed_derivation_is_stable_and_prefix_closed(self):
        seeds = derive_seeds(MASTER_SEED, 4)
        assert seeds == derive_seeds(MASTER_SEED, 4)
        assert seeds[:2] == derive_seeds(MASTER_SEED, 2)
        assert len(set(seeds)) == 4


class TestCampaignCoverage:
    def test_machine_level_faults_fire(self, campaign_run):
        fired = set(campaign_run["fault_classes_fired"])
        assert "node_loss" in fired
        assert "net_partition" in fired
        assert campaign_run["faults_fired"] >= len(fired)

    def test_drills_ran(self, campaign_run):
        assert campaign_run["migration"]["attempted"]
        assert campaign_run["migration"]["outcome"] in ("migrated", "refused")
        assert campaign_run["kill"]["initiated"]

    def test_invariants_all_pass(self, campaign_run):
        failures = [result for result in campaign_run["invariants"]
                    if not result["passed"]]
        assert failures == []
        assert campaign_run["passed"]

    def test_run_is_json_stable(self, campaign_run):
        encoded = json.dumps(campaign_run, sort_keys=True)
        assert json.loads(encoded) == campaign_run


class TestReportAssembly:
    def test_merge_is_order_independent(self, campaign_run):
        other = run_fleet_campaign(derive_seeds(MASTER_SEED, 2)[1], 1)
        forward = assemble_report(MASTER_SEED, 3, 2, [campaign_run, other])
        reverse = assemble_report(MASTER_SEED, 3, 2, [other, campaign_run])
        assert forward == reverse
        assert (json.dumps(forward, sort_keys=True)
                == json.dumps(reverse, sort_keys=True))

    def test_report_shape_and_totals(self, campaign_run):
        report = assemble_report(MASTER_SEED, 3, 1, [campaign_run])
        assert report["schema"] == FLEET_SCHEMA
        assert report["kind"] == "report"
        assert report["machines"] == 3
        assert report["campaigns"] == 1
        assert report["fault_classes_fired"] == sorted(
            set(campaign_run["fault_classes_fired"]))
        assert report["kills_total"] == len(campaign_run["fleet"]["kills"])
        assert report["all_passed"] == campaign_run["passed"]
        assert report["invariant_failures"] == []

    def test_sequential_driver_matches_manual_assembly(self, campaign_run):
        report = run_fleet(MASTER_SEED, campaigns=1)
        manual = assemble_report(MASTER_SEED, 3, 1, [campaign_run])
        assert report == manual
