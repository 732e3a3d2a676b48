"""Multiprocess execution fabric for every ``--jobs`` workload.

A workload is a list of spawn-safe :class:`Task` objects (a
``"module:function"`` name plus positional arguments).  :func:`run_tasks`
runs them in-process or across warm spawn-method worker processes and
returns the results in task order; the caller folds them into a report
with the same assembler its sequential driver uses, so the report is
byte-identical at any ``--jobs``.  See :mod:`repro.parallel.fabric` for
the driver and :mod:`repro.parallel.merge` for the determinism contract.
"""

from repro.parallel.fabric import run_tasks
from repro.parallel.merge import canonical_bytes, deterministic_view
from repro.parallel.pool import MAX_AUTO_JOBS, PoolStats, ShardedRunner, resolve_jobs
from repro.parallel.sweep import (
    DEFAULT_OUTPUT,
    PARALLEL_SCHEMA,
    scaling_sweep,
    sweep_points,
)
from repro.parallel.tasks import Task, execute_task

__all__ = [
    "DEFAULT_OUTPUT",
    "MAX_AUTO_JOBS",
    "PARALLEL_SCHEMA",
    "PoolStats",
    "ShardedRunner",
    "Task",
    "canonical_bytes",
    "deterministic_view",
    "execute_task",
    "resolve_jobs",
    "run_tasks",
    "scaling_sweep",
    "sweep_points",
]
