"""The determinism contract: views, canonical bytes, report assembly."""

from __future__ import annotations

import json

from repro.parallel.merge import canonical_bytes, deterministic_view


class TestDeterministicView:
    def test_chaos_reports_pass_through_whole(self):
        from repro.faults.chaos import run_chaos

        report = run_chaos(seed=5, campaigns=1)
        assert deterministic_view(report) == report

    def test_bench_wall_fields_are_stripped(self):
        report = {
            "schema": "repro.bench/1",
            "benchmarks": [{
                "name": "x", "steps": 10, "cycles": 20,
                "wall_seconds": 0.5, "slow_wall_seconds": 1.0,
                "steps_per_second": 20.0, "cycles_per_second": 40.0,
                "speedup": 2.0, "deterministic": True,
            }],
            "totals": {
                "steps": 10, "fast_wall_seconds": 0.5,
                "slow_wall_seconds": 1.0, "steps_per_second": 20.0,
                "cycles_per_second": 40.0, "speedup": 2.0,
                "all_deterministic": True,
            },
        }
        view = deterministic_view(report)
        row = view["benchmarks"][0]
        assert row == {"name": "x", "steps": 10, "cycles": 20,
                       "deterministic": True}
        assert view["totals"] == {"steps": 10, "all_deterministic": True}
        # The original is untouched.
        assert "wall_seconds" in report["benchmarks"][0]

    def test_canonical_bytes_is_sorted_json(self):
        report = {"schema": "repro.chaos/1", "b": 1, "a": 2}
        parsed = json.loads(canonical_bytes(report))
        assert parsed == report
        assert canonical_bytes(report) == canonical_bytes(
            {"schema": "repro.chaos/1", "a": 2, "b": 1})


class TestMergeFunctions:
    def test_chaos_merge_reorders_shards_by_index(self):
        from repro.faults.chaos import assemble_report, run_campaign, run_chaos
        from repro.seeding import derive_seeds

        seeds = derive_seeds(9, 3)
        runs = [run_campaign(seed, index) for index, seed in enumerate(seeds)]
        shuffled = [runs[2], runs[0], runs[1]]
        merged = assemble_report(9, 3, shuffled)
        assert merged == run_chaos(9, 3)

    def test_campaign_merge_matches_sequential(self):
        from repro.core.scenarios import (
            campaign_roster,
            report_from_results,
            run_one_attack,
            run_paired_campaign,
        )

        roster_size = len(campaign_roster(4))
        b_seq, g_seq = run_paired_campaign(seed=4)
        baseline = report_from_results(
            "baseline",
            [run_one_attack("baseline", i, seed=4)
             for i in range(roster_size)])
        guillotine = report_from_results(
            "guillotine",
            [run_one_attack("guillotine", i, seed=4)
             for i in range(roster_size)])
        assert baseline.to_dict() == b_seq.to_dict()
        assert guillotine.to_dict() == g_seq.to_dict()
