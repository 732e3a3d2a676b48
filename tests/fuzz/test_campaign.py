"""Campaign plumbing: seed derivation, batching, merging, jobs-identity."""

import hashlib
import json
import random

import pytest

from repro.fuzz.campaign import (
    DEFAULT_BATCH_SIZE,
    FUZZ_SCHEMA,
    assemble_fuzz_report,
    run_fuzz,
    run_one_batch,
)
from repro.parallel.merge import canonical_bytes
from repro.parallel.tasks import Task, execute_task
from repro.seeding import derive_seeds, split_sizes
from tests.sharded import run_fuzz_sharded

SEED = 42
COUNT = 50


@pytest.fixture(scope="module")
def sequential_report():
    return run_fuzz(SEED, COUNT)


class TestPlanBatches:
    def test_even_split(self):
        assert split_sizes(100, 25) == [25, 25, 25, 25]

    def test_short_last_batch(self):
        assert split_sizes(101, 25) == [25, 25, 25, 25, 1]

    def test_single_short_batch(self):
        assert split_sizes(10, 25) == [10]

    def test_sizes_sum_to_count(self):
        for count in (1, 24, 25, 26, 99, 250):
            assert sum(split_sizes(count, DEFAULT_BATCH_SIZE)) == count

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError):
            split_sizes(0, DEFAULT_BATCH_SIZE)
        with pytest.raises(ValueError):
            split_sizes(10, 0)


class TestSeedDerivation:
    def test_matches_the_chaos_style_derivation(self):
        master = random.Random(SEED)
        expected = [master.randrange(2 ** 32) for _ in range(4)]
        assert derive_seeds(SEED, 4) == expected

    def test_prefix_stable(self):
        # Growing the campaign must not reseed earlier batches.
        assert derive_seeds(SEED, 8)[:4] == derive_seeds(SEED, 4)

    def test_zero_batches_raise(self):
        with pytest.raises(ValueError):
            derive_seeds(SEED, 0)


class TestRunOneBatch:
    def test_batch_is_a_pure_function_of_its_arguments(self):
        first = run_one_batch(777, 2, 10)
        second = run_one_batch(777, 2, 10)
        assert first == second
        assert first["index"] == 2
        assert first["programs"] == 10

    def test_execute_task_dispatches_to_run_one_batch(self):
        task = Task("repro.fuzz.campaign:run_one_batch", (777, 2, 10, 600))
        assert execute_task(task) == run_one_batch(777, 2, 10,
                                                   max_steps=600)

    def test_counters_are_consistent(self):
        run = run_one_batch(777, 0, 20)
        assert sum(run["states"].values()) == 20
        assert sum(run["origins"].values()) == 20
        assert run["admitted"] + run["rejected"] == 20
        assert run["passed"]


class TestReportAssembly:
    def test_schema_and_totals(self, sequential_report):
        report = sequential_report
        assert report["schema"] == FUZZ_SCHEMA
        assert report["seed"] == SEED
        assert report["count"] == COUNT
        assert report["batch_size"] == DEFAULT_BATCH_SIZE
        totals = report["totals"]
        assert totals["programs"] == COUNT
        assert sum(totals["states"].values()) == COUNT
        assert totals["divergences"] == 0
        assert totals["all_passed"] is True
        assert totals["coverage_tokens"] == len(totals["coverage"])

    def test_merge_is_order_insensitive(self, sequential_report):
        runs = sequential_report["runs"]
        shuffled = assemble_fuzz_report(
            SEED, COUNT, DEFAULT_BATCH_SIZE,
            sequential_report["max_steps"], list(reversed(runs)))
        assert shuffled == sequential_report


class TestReportBytes:
    """The report's bytes, pinned.  ``--jobs 1`` against ``--jobs 2``
    runs the same code on both sides, so a deterministic change to what
    the oracles compute (a machine-reuse leak, say) passes that compare;
    it fails this one."""

    DIGEST = "0a7412063f3cfc946ad015da17821fff1522e39b4d9b37c698fd1583f445011e"

    def test_canonical_digest(self, sequential_report):
        canonical = json.dumps(sequential_report, sort_keys=True,
                               separators=(",", ":"))
        assert hashlib.sha256(canonical.encode()).hexdigest() == self.DIGEST

    def test_totals(self, sequential_report):
        totals = sequential_report["totals"]
        assert totals["programs"] == 50
        assert totals["states"] == {"FAULTED": 39, "HALTED": 10,
                                    "RUNNING": 1}
        assert (totals["admitted"], totals["rejected"]) == (9, 41)
        assert totals["noninterference_certified"] == 26
        assert totals["coverage_tokens"] == 71


class TestJobsIdentity:
    def test_jobs_one_takes_the_sequential_path(self, sequential_report):
        report, timing = run_fuzz_sharded(SEED, COUNT, jobs=1)
        assert timing["mode"] == "sequential"
        assert report == sequential_report

    def test_sharded_report_is_byte_identical(self, sequential_report):
        report, timing = run_fuzz_sharded(SEED, COUNT, jobs=2)
        assert timing["mode"] == "parallel"
        assert canonical_bytes(report) == canonical_bytes(sequential_report)

    def test_single_batch_workload_stays_sequential(self):
        # One batch cannot be sharded; jobs>1 must fall back cleanly.
        report, timing = run_fuzz_sharded(SEED, 10, jobs=4)
        assert timing["mode"] == "sequential"
        assert report == run_fuzz(SEED, 10)
