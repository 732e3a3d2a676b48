"""End-to-end fabric tests: real spawned workers, byte-compared reports.

These tests spawn actual worker processes (the ``spawn`` start method —
the same configuration the CLI uses), so they prove the full contract:
task descriptors pickle, workers import the stack from a clean slate,
and the merged report is byte-identical to the sequential one.
"""

from __future__ import annotations

import json

import pytest

from repro.parallel.fabric import run_tasks
from repro.parallel.merge import canonical_bytes
from repro.parallel.pool import ShardedRunner
from repro.parallel.tasks import Task
from tests.sharded import chaos_tasks, run_chaos_sharded, run_fleet_sharded

SEED = 7
CAMPAIGNS = 4


@pytest.fixture(scope="module")
def sequential_report() -> dict:
    from repro.faults.chaos import run_chaos

    return run_chaos(SEED, CAMPAIGNS)


class TestChaosByteIdentity:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_report_byte_identical(self, jobs, sequential_report):
        report, timing = run_chaos_sharded(SEED, CAMPAIGNS, jobs=jobs)
        assert timing["mode"] == "parallel"
        assert timing["jobs"] == jobs
        assert canonical_bytes(report) == canonical_bytes(sequential_report)
        # Not just canonically equal — the exact dict the CLI serialises.
        assert report == sequential_report

    def test_timing_never_leaks_into_the_payload(self, sequential_report):
        report, timing = run_chaos_sharded(SEED, CAMPAIGNS, jobs=2)
        assert "wall_seconds" in timing
        assert "wall_seconds" not in json.dumps(report)


class TestCrashRetry:
    def test_worker_crash_produces_the_same_report(self, tmp_path,
                                                   sequential_report):
        """A task that hard-kills its first worker (os._exit) is retried
        on a fresh pool and the merged report is unchanged."""
        from repro.faults.chaos import assemble_report

        token = str(tmp_path / "crash-once")
        tasks = chaos_tasks(SEED, CAMPAIGNS, crash={1: token})
        with ShardedRunner(2, task_timeout=300) as runner:
            runs = runner.map(tasks)
        report = assemble_report(SEED, CAMPAIGNS, runs)
        assert report == sequential_report
        assert runner.stats.retries >= 1
        assert runner.stats.pool_restarts >= 1
        assert runner.stats.tasks_completed == CAMPAIGNS

    def test_crash_marker_written_exactly_once(self, tmp_path):
        token = str(tmp_path / "marker")
        tasks = [Task("repro.faults.chaos:run_campaign", (99, 0),
                      crash_token=token)]
        with ShardedRunner(2, task_timeout=300) as runner:
            runner.map(tasks)
        with open(token, encoding="utf-8") as handle:
            # One pid: the task crashed one worker, then ran clean.
            assert handle.read().strip().isdigit()


class TestBatchBenchJobsInvariance:
    """--jobs must change only WHERE a batch-bench leg ran, never what
    it computed: lane states, simulated cycles, and the bit-identity
    verdict are compared field by field against the sequential suite."""

    @staticmethod
    def _deterministic(results) -> list[dict]:
        return [
            {"name": r.name, "batch": r.batch,
             "steps_per_lane": r.steps_per_lane,
             "guest_steps": r.guest_steps, "cycles": r.cycles,
             "bit_identical": r.bit_identical,
             "mismatched_lanes": r.mismatched_lanes, "stats": r.stats}
            for r in results
        ]

    def test_sharded_suite_matches_sequential(self):
        from repro.core.bench import (
            BATCH_QUICK_STEPS,
            BATCH_SUITE,
            combine_batch_samples,
            run_batch_suite,
        )

        sequential = run_batch_suite(2, quick=True)
        tasks = [Task("repro.core.bench:run_batch_one",
                      (row, 2, BATCH_QUICK_STEPS, mode))
                 for row in range(len(BATCH_SUITE))
                 for mode in ("scalar", "batch")]
        legs, timing = run_tasks(tasks, 2)
        sharded = [combine_batch_samples(scalar, lockstep)
                   for scalar, lockstep in zip(legs[::2], legs[1::2])]
        assert timing["mode"] == "parallel"
        assert self._deterministic(sharded) == \
            self._deterministic(sequential)


class TestWorkerThreadPins:
    """Every spawned worker must pin its numeric thread pools: N workers
    each opening a BLAS/OpenMP pool oversubscribes the box and wrecks
    shard scaling (the lockstep batch rows are tiny; intra-op threads
    can never pay for themselves here)."""

    def test_spawned_workers_see_pinned_env(self):
        from repro.parallel.pool import WORKER_THREAD_PINS
        from repro.parallel.tasks import WARMUP

        with ShardedRunner(2, task_timeout=300) as runner:
            results = runner.map([WARMUP, WARMUP])
        assert len(results) == 2
        for result in results:
            assert result["ready"] is True
            assert result["thread_pins"] == {
                key: "1" for key in WORKER_THREAD_PINS}


class TestSequentialGuard:
    """--jobs 1 runs every task in this process, not in a one-worker pool."""

    def test_jobs_one_never_builds_a_runner(self, monkeypatch,
                                            sequential_report):
        import repro.parallel.fabric as fabric_mod

        def explode(*args, **kwargs):
            raise AssertionError("jobs=1 constructed a worker pool")

        monkeypatch.setattr(fabric_mod, "ShardedRunner", explode)
        report, timing = run_chaos_sharded(SEED, CAMPAIGNS, jobs=1)
        assert timing["mode"] == "sequential"
        assert report == sequential_report

    def test_single_campaign_stays_sequential_at_any_jobs(self, monkeypatch):
        import repro.parallel.fabric as fabric_mod

        monkeypatch.setattr(
            fabric_mod, "ShardedRunner",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pooled")))
        report, timing = run_chaos_sharded(3, 1, jobs=8)
        assert timing["mode"] == "sequential"
        from repro.faults.chaos import run_chaos

        assert report == run_chaos(3, 1)

    def test_jobs_one_honours_monkeypatched_campaign(self, monkeypatch):
        """An in-process task resolves chaos.run_campaign through the
        module global at call time, so a monkeypatched unit is honoured."""
        import repro.faults.chaos as chaos_mod

        calls = []
        real = chaos_mod.run_campaign

        def spying(seed, index=0):
            calls.append(index)
            return real(seed, index=index)

        monkeypatch.setattr(chaos_mod, "run_campaign", spying)
        run_chaos_sharded(5, 2, jobs=1)
        assert calls == [0, 1]


class TestCampaignFabric:
    def test_parallel_matches_sequential(self):
        from repro.core.scenarios import (
            campaign_roster,
            report_from_results,
            run_paired_campaign,
        )

        b_seq, g_seq = run_paired_campaign(seed=11)
        roster = len(campaign_roster(11))
        tasks = [Task("repro.core.scenarios:run_one_attack",
                      (platform, index, 11))
                 for platform in ("baseline", "guillotine")
                 for index in range(roster)]
        results, timing = run_tasks(tasks, 2)
        b_par = report_from_results("baseline", results[:roster])
        g_par = report_from_results("guillotine", results[roster:])
        assert timing["mode"] == "parallel"
        assert b_par.to_dict() == b_seq.to_dict()
        assert g_par.to_dict() == g_seq.to_dict()


class TestFleetByteIdentity:
    """The fleet campaign driver rides the same fabric contract: sharded
    execution is byte-identical to sequential, and ``--jobs 1`` builds no
    pool."""

    FLEET_CAMPAIGNS = 2

    @pytest.fixture(scope="class")
    def fleet_sequential(self) -> dict:
        from repro.fleet.campaign import run_fleet

        return run_fleet(SEED, campaigns=self.FLEET_CAMPAIGNS)

    def test_parallel_report_byte_identical(self, fleet_sequential):
        report, timing = run_fleet_sharded(
            SEED, self.FLEET_CAMPAIGNS, 3, jobs=2)
        assert timing["mode"] == "parallel"
        assert timing["jobs"] == 2
        assert canonical_bytes(report) == canonical_bytes(fleet_sequential)
        assert report == fleet_sequential

    def test_jobs_one_never_builds_a_runner(self, monkeypatch,
                                            fleet_sequential):
        import repro.parallel.fabric as fabric_mod

        def explode(*args, **kwargs):
            raise AssertionError("jobs=1 constructed a worker pool")

        monkeypatch.setattr(fabric_mod, "ShardedRunner", explode)
        report, timing = run_fleet_sharded(
            SEED, self.FLEET_CAMPAIGNS, 3, jobs=1)
        assert timing["mode"] == "sequential"
        assert report == fleet_sequential


class TestBenchTraceByteIdentity:
    """Trace-compilation counters must survive shard merges bit-for-bit.

    The superblock counters (trace_hits/trace_steps/trace_bailouts) are
    simulated-cost statistics, so they sit inside the compared view —
    ``deterministic_view`` strips only wall-clock keys.  A quick suite
    sharded at ``--jobs 2`` must therefore reproduce the sequential
    report byte-for-byte, trace stats included."""

    def test_jobs_two_matches_jobs_one_including_trace_stats(
            self, tmp_path, capsys):
        from repro.__main__ import main

        reports = {}
        for jobs, mode in (("1", "sequential"), ("2", "parallel")):
            out = tmp_path / f"bench-jobs{jobs}.json"
            assert main(["bench", "--quick", "--jobs", jobs,
                         "--out", str(out)]) == 0
            assert f"jobs={jobs}, {mode}" in capsys.readouterr().out
            reports[jobs] = json.loads(out.read_text())
        seq, par = reports["1"], reports["2"]
        assert canonical_bytes(par) == canonical_bytes(seq)
        # The byte-compare is only meaningful if the trace counters are
        # actually in the compared view and actually engaged.
        view = json.loads(canonical_bytes(par))
        rows = view["benchmarks"]
        for row in rows:
            assert {"trace_hits", "trace_steps",
                    "trace_bailouts"} <= row.keys()
        assert any(row["trace_steps"] > 0 for row in rows)
        assert view["traces"] is True
        assert view["totals"]["all_deterministic"] is True
        assert view["totals"]["all_cycles_match"] is True
