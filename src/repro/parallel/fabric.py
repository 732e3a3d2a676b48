"""The one sharded driver: run a list of tasks in order, and time it.

``jobs <= 1``, or a single task, runs the tasks one after another in this
process through the same :func:`~repro.parallel.tasks.execute_task` a
worker uses — no pool is built, so ``--jobs 1`` costs nothing beyond the
work itself.  Otherwise the tasks map over a :class:`ShardedRunner`.
Either way the results come back in task order, and the caller folds
them with the workload's own assembler (``assemble_report``,
``assemble_fuzz_report``, ``assemble_serve_report``,
``report_from_results``, ``combine_samples``) — the same function its
sequential driver uses — so ``--jobs`` decides only which process runs
each task, never what the report says.

The timing dict is the non-compared section (wall seconds, throughput,
pool stats) for CLI summary lines and the scaling sweep.
"""

from __future__ import annotations

import time

from repro.parallel.pool import ShardedRunner, resolve_jobs
from repro.parallel.tasks import Task, execute_task


def run_tasks(tasks: list[Task], jobs: int | None = None, *,
              units: int | None = None,
              runner: ShardedRunner | None = None) -> tuple[list, dict]:
    """Run ``tasks``; returns ``(results in task order, timing)``.

    ``units`` is the work the tasks cover for the throughput figure
    (programs, requests, suite rows); it defaults to one per task.  A
    caller-owned ``runner`` (warm, reused across calls) overrides
    ``jobs``; otherwise a pool is built for this call and closed after."""
    jobs = runner.jobs if runner is not None else resolve_jobs(jobs)
    start = time.perf_counter()
    pool = None
    if jobs <= 1 or len(tasks) <= 1:
        jobs = 1
        results = [execute_task(task) for task in tasks]
    else:
        pool = runner if runner is not None else ShardedRunner(jobs)
        try:
            results = pool.map(tasks)
        finally:
            if runner is None:
                pool.close()
    wall = time.perf_counter() - start
    units = len(tasks) if units is None else units
    return results, {
        "wall_seconds": wall,
        "units": units,
        "units_per_second": units / wall if wall > 0 else 0.0,
        "jobs": jobs,
        "mode": "sequential" if pool is None else "parallel",
        "pool": pool.stats.to_dict() if pool is not None else None,
    }
