"""The spawn-safe task and the worker-side entry point.

A :class:`Task` names its function as a ``"module:function"`` string and
carries positional arguments that pickle by value — seeds, indices,
sizes, frozen config dataclasses — never a live object.  Workers started
with the ``spawn`` method share *nothing* with the parent beyond what
pickles through a task, which is the whole point: a task that executes
identically in the parent, a warm pooled worker, or a freshly retried one
is a task whose results fold back into a byte-identical report.

:func:`execute_task` is the single entry point worker processes run.  It
must stay importable at module top level (``spawn`` pickles it by
qualified name).  It resolves the function by name at call time, so a
worker imports only the modules its tasks need and an in-process run
calls whatever the module attribute is bound to at that moment (a
monkeypatched unit included).

``crash_token`` exists for the straggler-retry tests: a task carrying a
token path hard-kills its worker (``os._exit``) the first time it is
attempted, then runs normally on retry — letting tests prove that a
worker crash changes nothing about the merged report.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Any, Callable

#: Exit code used by the deliberate-crash test hook (visible in worker
#: post-mortems; any nonzero code breaks the pool the same way).
CRASH_EXIT_CODE = 17


@dataclass(frozen=True)
class Task:
    """One unit of work: ``fn(*args)``, with ``fn`` a ``"module:function"``."""

    fn: str
    args: tuple = ()
    crash_token: str | None = None


def resolve(name: str) -> Callable[..., Any]:
    """The function a ``"module:function"`` name refers to."""
    module_name, _, attribute = name.partition(":")
    if not module_name or not attribute:
        raise ValueError(f"task function {name!r} is not 'module:function'")
    return getattr(importlib.import_module(module_name), attribute)


def _maybe_crash(token: str | None) -> None:
    """First attempt with a token: leave a marker and kill the worker.

    ``os._exit`` (not an exception) so the parent sees exactly what a
    real worker crash looks like — a broken pool, not a tidy error."""
    if token is None or os.path.exists(token):
        return
    with open(token, "w", encoding="utf-8") as handle:
        handle.write(str(os.getpid()))
    os._exit(CRASH_EXIT_CODE)


def execute_task(task: Task) -> Any:
    """Run one task to completion in this process; returns its result."""
    _maybe_crash(task.crash_token)
    return resolve(task.fn)(*task.args)


def warm_up_worker() -> dict:
    """Pre-load the simulation stack in a fresh worker.

    Submitted once per worker before timing starts, so interpreter
    start-up and the numpy/repro import tax land outside the measured
    window — the scaling sweep measures sharded *execution*, with pool
    spawn cost reported separately."""
    import repro.core.sandbox  # noqa: F401  (pre-load the stack)
    from repro.parallel.pool import WORKER_THREAD_PINS

    return {
        "ready": True,
        "pid": os.getpid(),
        # What the worker's numeric thread pools actually see, so a
        # regression test can assert the initializer pinned them.
        "thread_pins": {key: os.environ.get(key)
                        for key in sorted(WORKER_THREAD_PINS)},
    }


#: The task :meth:`ShardedRunner.warm_up` submits to every worker.
WARMUP = Task("repro.parallel.tasks:warm_up_worker")
