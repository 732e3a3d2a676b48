"""The sharded worker pool: warm process reuse, timeouts, straggler retry.

:class:`ShardedRunner` owns one ``ProcessPoolExecutor`` (``spawn``
context) and keeps it warm across :meth:`map` calls — workers pay the
interpreter/import start-up once per sweep, not once per task.  Failure
handling is built around one observation: every task descriptor is
deterministic, so *where* a task finally runs never matters, only *that*
it runs.  The recovery ladder is therefore simple:

1. a task that times out or dies with its worker is retried on a fresh
   round (the broken pool is discarded and respawned);
2. after ``max_rounds`` of that, survivors run inline in the parent —
   slower, but guaranteed, and byte-identical by construction.

Nothing in this module knows what a chaos campaign or a benchmark is;
it maps :class:`~repro.parallel.tasks.Task` objects to their results,
preserving input order.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from multiprocessing import get_context

from repro.parallel.tasks import WARMUP, execute_task

#: Upper bound on worker processes however many cores the box claims —
#: beyond this the merge/dispatch thread is the bottleneck anyway.
MAX_AUTO_JOBS = 16

#: BLAS/OpenMP thread-pool knobs pinned to ``"1"`` in every worker.
#: The workloads here vectorize over *lanes* (tiny uint64 rows), never
#: large GEMMs, so intra-op threads can't help — but N workers each
#: spawning a BLAS pool oversubscribes the box cores*jobs-fold and
#: wrecks shard scaling.  Pinned in the pool initializer so the child
#: sets them before numpy loads its backend (OpenBLAS and friends read
#: these once, at import).
WORKER_THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _init_worker() -> None:
    """Pin the numeric thread pools in a freshly spawned worker."""
    os.environ.update(WORKER_THREAD_PINS)


def resolve_jobs(jobs: int | None) -> int:
    """``None``/``0`` -> auto-detect usable cores; otherwise clamp to >= 1.

    Auto-detection prefers the scheduler affinity mask (containers and CI
    runners routinely expose fewer usable cores than ``cpu_count``)."""
    if jobs:
        return max(1, int(jobs))
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count() or 1
    return max(1, min(usable, MAX_AUTO_JOBS))


@dataclass
class PoolStats:
    """Where the work actually ran (reported, never compared)."""

    jobs: int
    tasks_dispatched: int = 0
    tasks_completed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    inline_runs: int = 0
    warmups: int = 0
    rounds: int = 0
    worker_pids: set = field(default_factory=set)

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "tasks_dispatched": self.tasks_dispatched,
            "tasks_completed": self.tasks_completed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "inline_runs": self.inline_runs,
            "warmups": self.warmups,
            "rounds": self.rounds,
            "workers_seen": len(self.worker_pids),
        }


class ShardedRunner:
    """A warm, order-preserving, crash-tolerant task mapper."""

    def __init__(self, jobs: int | None = None, *,
                 task_timeout: float = 600.0, max_rounds: int = 3,
                 mp_start_method: str = "spawn") -> None:
        if task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        self.jobs = resolve_jobs(jobs)
        self.task_timeout = task_timeout
        self.max_rounds = max_rounds
        self._mp_start_method = mp_start_method
        self._executor: ProcessPoolExecutor | None = None
        self.stats = PoolStats(jobs=self.jobs)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=get_context(self._mp_start_method),
                initializer=_init_worker,
            )
        return self._executor

    def _discard_pool(self) -> None:
        """Drop a broken or poisoned pool; the next round respawns."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        self.stats.pool_restarts += 1
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        # A worker wedged mid-task survives shutdown(wait=False); kill it
        # so a straggler cannot outlive its retry.  (Private attribute,
        # guarded: worst case the process lingers until interpreter exit.)
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass

    def warm_up(self) -> None:
        """Start every worker and pre-import the stack (one task each)."""
        pool = self._pool()
        futures = [pool.submit(execute_task, WARMUP)
                   for _ in range(self.jobs)]
        for future in futures:
            result = future.result(timeout=self.task_timeout)
            self.stats.worker_pids.add(result.get("pid"))
            self.stats.warmups += 1

    def close(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------

    def map(self, tasks: list) -> list:
        """Run every task; results in input order, completion guaranteed."""
        results: list = [None] * len(tasks)
        pending = list(enumerate(tasks))
        self.stats.tasks_dispatched += len(tasks)
        rounds = 0
        while pending and rounds < self.max_rounds:
            rounds += 1
            self.stats.rounds += 1
            survivors = self._run_round(pending, results)
            if survivors:
                self.stats.retries += len(survivors)
            pending = survivors
        for index, task in pending:
            # Last resort: the parent runs the task itself.  Determinism
            # makes this a pure relocation, not a different computation.
            results[index] = execute_task(task)
            self.stats.inline_runs += 1
            self.stats.tasks_completed += 1
        return results

    def _run_round(self, pending: list, results: list) -> list:
        """One dispatch round; returns the tasks that still need running."""
        try:
            pool = self._pool()
        except Exception:
            return pending  # cannot build a pool here: fall through inline
        submitted = [(index, task, pool.submit(execute_task, task))
                     for index, task in pending]
        failed: list = []
        poisoned = False
        for index, task, future in submitted:
            if poisoned:
                # Pool already known broken/wedged: everything still
                # outstanding goes to the retry round.
                if future.done() and not future.cancelled():
                    try:
                        results[index] = future.result(timeout=0)
                        self.stats.tasks_completed += 1
                        continue
                    except Exception:
                        pass
                failed.append((index, task))
                continue
            try:
                results[index] = future.result(timeout=self.task_timeout)
                self.stats.tasks_completed += 1
            except FutureTimeoutError:
                self.stats.timeouts += 1
                failed.append((index, task))
                poisoned = True  # a wedged worker taints the warm pool
            except BrokenExecutor:
                failed.append((index, task))
                poisoned = True
            except Exception:
                failed.append((index, task))
        if poisoned:
            self._discard_pool()
        return failed
