"""The ``repro bench --parallel`` scaling sweep (``repro.parallel/1``).

Runs the same chaos-campaign workload at jobs ∈ {1, 2, 4, cores},
measuring wall time with *warm* pools (workers are spawned and have
pre-imported the stack before the clock starts — the sweep measures
sharded execution, not process start-up, which is reported separately
as ``warmup_seconds``).  The jobs=1 run executes every campaign in this
process and serves as both the throughput baseline and the reference
report every parallel merge is byte-compared against.

The emitted document intentionally contains wall-clock numbers — it is
a benchmark artifact, the designated home for everything the chaos and
campaign payloads exclude.  The one deterministic claim it makes is the
``merge_deterministic`` flag per entry (and ``all_merges_deterministic``
in totals), which CI fails on.
"""

from __future__ import annotations

import platform
import time

from repro.parallel.fabric import run_tasks
from repro.parallel.merge import canonical_bytes
from repro.parallel.pool import ShardedRunner, resolve_jobs
from repro.parallel.tasks import Task

PARALLEL_SCHEMA = "repro.parallel/1"
DEFAULT_OUTPUT = "BENCH_parallel.json"

#: Default sweep workload: enough campaigns that every jobs level has
#: work for each worker, small enough for a CI smoke job.
DEFAULT_SEED = 7
DEFAULT_CAMPAIGNS = 16


def _chaos(seed: int, campaigns: int, **how) -> tuple[dict, dict]:
    """The chaos report and its timing, run as ``how`` says."""
    from repro.faults.chaos import assemble_report
    from repro.seeding import derive_seeds

    tasks = [Task("repro.faults.chaos:run_campaign", (campaign_seed, index))
             for index, campaign_seed
             in enumerate(derive_seeds(seed, campaigns))]
    runs, timing = run_tasks(tasks, **how)
    return assemble_report(seed, campaigns, runs), timing


def sweep_points(cores: int | None = None) -> list[int]:
    """jobs ∈ {1, 2, 4, cores}, deduplicated, ascending."""
    cores = cores or resolve_jobs(None)
    return sorted({1, 2, 4, cores} | {1})


def scaling_sweep(seed: int = DEFAULT_SEED,
                  campaigns: int = DEFAULT_CAMPAIGNS,
                  jobs_list: list[int] | None = None) -> dict:
    """Measure chaos-campaign throughput across worker counts."""
    if jobs_list is None:
        jobs_list = sweep_points()
    jobs_list = sorted({max(1, int(jobs)) for jobs in jobs_list})
    if 1 not in jobs_list:
        jobs_list.insert(0, 1)

    entries = []
    baseline_bytes: str | None = None
    baseline_wall: float | None = None
    for jobs in jobs_list:
        if jobs == 1:
            start = time.perf_counter()
            report, timing = _chaos(seed, campaigns, jobs=1)
            wall = time.perf_counter() - start
            warmup_seconds = 0.0
            pool_stats = None
        else:
            with ShardedRunner(jobs) as runner:
                warm_start = time.perf_counter()
                runner.warm_up()
                warmup_seconds = time.perf_counter() - warm_start
                start = time.perf_counter()
                report, timing = _chaos(seed, campaigns, runner=runner)
                wall = time.perf_counter() - start
                pool_stats = runner.stats.to_dict()
        report_bytes = canonical_bytes(report)
        if baseline_bytes is None:
            baseline_bytes = report_bytes
            baseline_wall = wall
        entry = {
            "jobs": jobs,
            "mode": timing["mode"],
            "wall_seconds": wall,
            "warmup_seconds": warmup_seconds,
            "campaigns": campaigns,
            "campaigns_per_second": campaigns / wall if wall > 0 else 0.0,
            "speedup": (baseline_wall / wall) if wall > 0 else 0.0,
            "efficiency": (baseline_wall / wall / jobs) if wall > 0 else 0.0,
            "merge_deterministic": report_bytes == baseline_bytes,
            "pool": pool_stats,
        }
        entries.append(entry)

    best = max(entries, key=lambda e: e["campaigns_per_second"])
    return {
        "schema": PARALLEL_SCHEMA,
        "workload": {
            "kind": "chaos-campaigns",
            "seed": seed,
            "campaigns": campaigns,
        },
        "host": {
            "usable_cores": resolve_jobs(None),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "entries": entries,
        "totals": {
            "all_merges_deterministic": all(
                entry["merge_deterministic"] for entry in entries),
            "best_jobs": best["jobs"],
            "best_campaigns_per_second": best["campaigns_per_second"],
            "max_speedup": max(entry["speedup"] for entry in entries),
        },
    }
