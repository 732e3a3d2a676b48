"""Merge-path edge cases: empty shards, single-task shards, total retry.

The fabric's byte-identity contract has to survive the degenerate shapes a
real campaign can hit: an empty task list, a workload that collapses to a
single task, and the worst-case schedule where *every* shard crashes its
worker once and reruns.  Each case must still merge to exactly the bytes
the sequential path produces.
"""

import pytest

from repro.faults.chaos import assemble_report, run_chaos
from repro.fuzz.campaign import assemble_fuzz_report, run_fuzz, run_one_batch
from repro.parallel.merge import canonical_bytes
from repro.parallel.pool import ShardedRunner
from repro.parallel.tasks import Task
from repro.seeding import derive_seeds


def fuzz_task(batch_seed: int, index: int, count: int,
              crash_token: str | None = None) -> Task:
    return Task("repro.fuzz.campaign:run_one_batch",
                (batch_seed, index, count, 600), crash_token=crash_token)


class TestEmptyShard:
    def test_runner_maps_an_empty_task_list(self):
        with ShardedRunner(2, task_timeout=300) as runner:
            assert runner.map([]) == []
        assert runner.stats.tasks_dispatched == 0
        assert runner.stats.tasks_completed == 0

    def test_fuzz_report_assembles_from_zero_runs(self):
        report = assemble_fuzz_report(7, 0, 25, 600, [])
        assert report["runs"] == []
        assert report["totals"]["programs"] == 0
        assert report["totals"]["divergences"] == 0
        assert report["totals"]["coverage"] == []
        assert report["totals"]["all_passed"] is True

    def test_chaos_report_assembles_from_zero_runs(self):
        report = assemble_report(7, 0, [])
        assert report["campaigns"] == 0
        assert report["runs"] == []
        assert report["totals"]["fault_events_fired"] == 0
        assert report["totals"]["all_passed"] is True


class TestSingleTaskShard:
    def test_one_fuzz_batch_through_a_two_worker_pool(self):
        (seed,) = derive_seeds(11, 1)
        with ShardedRunner(2, task_timeout=300) as runner:
            runs = runner.map([fuzz_task(seed, 0, 10)])
        report = assemble_fuzz_report(11, 10, 25, 600, runs)
        assert report == run_fuzz(11, 10)

    def test_one_chaos_campaign_through_a_two_worker_pool(self):
        (seed,) = derive_seeds(11, 1)
        with ShardedRunner(2, task_timeout=300) as runner:
            runs = runner.map([Task("repro.faults.chaos:run_campaign",
                                    (seed, 0))])
        assert assemble_report(11, 1, runs) == run_chaos(11, 1)


class TestAllShardsRetried:
    """Every task crashes its first worker; the rerun must merge clean."""

    @pytest.mark.parametrize("batches", [2, 3])
    def test_total_crash_schedule_still_merges_byte_identical(
            self, tmp_path, batches):
        count = batches * 5
        sequential = run_fuzz(99, count, batch_size=5)
        seeds = derive_seeds(99, batches)
        tasks = [
            fuzz_task(seed, index, 5,
                      crash_token=str(tmp_path / f"tok{index}"))
            for index, seed in enumerate(seeds)
        ]
        with ShardedRunner(2, task_timeout=300) as runner:
            runs = runner.map(tasks)
        report = assemble_fuzz_report(99, count, 5, 600, runs)
        assert canonical_bytes(report) == canonical_bytes(sequential)
        assert runner.stats.retries >= batches
        assert runner.stats.tasks_completed == batches

    def test_every_crash_token_fired_exactly_once(self, tmp_path):
        seeds = derive_seeds(99, 2)
        tokens = [tmp_path / "tok0", tmp_path / "tok1"]
        tasks = [
            fuzz_task(seed, index, 5, crash_token=str(tokens[index]))
            for index, seed in enumerate(seeds)
        ]
        with ShardedRunner(2, task_timeout=300) as runner:
            runner.map(tasks)
        for token in tokens:
            assert token.read_text(encoding="utf-8").strip().isdigit()


class TestRetriedResultsAreIdentical:
    def test_a_retried_batch_equals_a_clean_run(self, tmp_path):
        (seed,) = derive_seeds(5, 1)
        task = fuzz_task(seed, 0, 5, crash_token=str(tmp_path / "tok"))
        with ShardedRunner(2, task_timeout=300) as runner:
            (run,) = runner.map([task])
        assert run == run_one_batch(seed, 0, 5, max_steps=600)
