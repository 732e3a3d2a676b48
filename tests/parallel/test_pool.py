"""Unit tests for the sharded worker pool (no processes spawned here)."""

from __future__ import annotations

import pytest

from repro.parallel.pool import MAX_AUTO_JOBS, PoolStats, ShardedRunner, resolve_jobs
from repro.parallel.tasks import WARMUP, Task, execute_task


def bench_task(suite_index: int, iterations: int, mode: str,
               traces: bool = True) -> Task:
    return Task("repro.core.bench:run_one",
                (suite_index, iterations, mode, traces))


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_explicit_value_clamped_to_one(self):
        assert resolve_jobs(-2) == 1

    def test_auto_detect_is_positive_and_bounded(self):
        auto = resolve_jobs(None)
        assert 1 <= auto <= MAX_AUTO_JOBS
        assert resolve_jobs(0) == auto

    def test_large_explicit_value_not_clamped(self):
        # Only auto-detection is capped; an explicit ask is honoured.
        assert resolve_jobs(MAX_AUTO_JOBS + 4) == MAX_AUTO_JOBS + 4


class TestRunnerValidation:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            ShardedRunner(2, task_timeout=0)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            ShardedRunner(2, max_rounds=0)

    def test_no_pool_until_used(self):
        runner = ShardedRunner(2)
        assert runner._executor is None
        runner.close()

    def test_context_manager_closes(self):
        with ShardedRunner(2) as runner:
            pass
        assert runner._executor is None

    def test_stats_start_empty(self):
        stats = ShardedRunner(2).stats
        assert isinstance(stats, PoolStats)
        assert stats.tasks_dispatched == 0
        assert stats.to_dict()["workers_seen"] == 0


class TestExecuteTaskDispatch:
    """execute_task is the worker entry point; exercise it in-process."""

    def test_chaos_task_runs_a_campaign(self):
        from repro.faults.chaos import run_campaign

        task = Task("repro.faults.chaos:run_campaign", (1234, 3))
        assert execute_task(task) == run_campaign(1234, 3)

    def test_campaign_task_runs_one_attack(self):
        from repro.core.scenarios import run_one_attack

        task = Task("repro.core.scenarios:run_one_attack",
                    ("guillotine", 0, 5))
        assert execute_task(task) == run_one_attack("guillotine", 0, seed=5)

    def test_bench_task_shape(self):
        unit = execute_task(bench_task(0, 1, "slow"))
        assert unit["suite_index"] == 0
        assert unit["mode"] == "slow"
        assert len(unit["samples"]) == 1

    def test_bench_task_traces_flag_controls_trace_counters(self):
        on = execute_task(bench_task(0, 200, "fast", traces=True))
        off = execute_task(bench_task(0, 200, "fast", traces=False))
        on_sample, off_sample = on["samples"][0], off["samples"][0]
        # Simulated counters are engine-independent; only the
        # Python-cost trace stats respond to the flag.
        assert (on_sample["steps"], on_sample["cycles"]) == \
            (off_sample["steps"], off_sample["cycles"])
        assert on_sample["trace_hits"] > 0
        assert on_sample["trace_steps"] > 0
        assert off_sample["trace_hits"] == 0
        assert off_sample["trace_steps"] == 0

    def test_warmup_reports_pid_and_thread_pins(self):
        import os

        from repro.parallel.pool import WORKER_THREAD_PINS

        result = execute_task(WARMUP)
        assert result["ready"] is True
        assert result["pid"] == os.getpid()
        # In-process the env is whatever the host set; the keys reported
        # must be exactly the pinned set (values asserted end-to-end in
        # test_fabric's spawned-worker test).
        assert set(result["thread_pins"]) == set(WORKER_THREAD_PINS)

    def test_unknown_descriptor_rejected(self):
        # A task must name its function as "module:function".
        with pytest.raises(ValueError):
            execute_task(Task("repro.faults.chaos"))


class TestWorkerInit:
    def test_init_worker_pins_numeric_pools(self, monkeypatch):
        import os

        from repro.parallel.pool import WORKER_THREAD_PINS, _init_worker

        for key in WORKER_THREAD_PINS:
            monkeypatch.setenv(key, "8")
        _init_worker()
        for key, value in WORKER_THREAD_PINS.items():
            assert os.environ[key] == value


class TestInlineFallback:
    def test_map_falls_back_inline_when_pool_unavailable(self, monkeypatch):
        """If no pool can be built at all, the parent still finishes."""
        runner = ShardedRunner(2, max_rounds=1)
        monkeypatch.setattr(
            runner, "_pool",
            lambda: (_ for _ in ()).throw(OSError("no processes")))
        from repro.faults.chaos import run_campaign

        tasks = [Task("repro.faults.chaos:run_campaign", (77, 0)),
                 Task("repro.faults.chaos:run_campaign", (78, 1))]
        results = runner.map(tasks)
        assert results == [run_campaign(77, 0), run_campaign(78, 1)]
        assert runner.stats.inline_runs == 2
        runner.close()
