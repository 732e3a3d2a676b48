"""Workloads run through the sharded driver, as their ``--jobs`` commands do.

Each helper builds the command's task list, runs it with
:func:`repro.parallel.run_tasks` and folds the results with the
workload's own assembler, returning ``(report, timing)``.  Tests compare
the report against the sequential driver's at different ``jobs``.
"""

from __future__ import annotations

from repro.fuzz.campaign import DEFAULT_BATCH_SIZE, assemble_fuzz_report
from repro.fuzz.oracles import DEFAULT_MAX_STEPS
from repro.parallel import Task, run_tasks
from repro.seeding import derive_seeds, split_sizes
from repro.serve.load import DEFAULT_CELL_SIZE, assemble_serve_report
from repro.serve.service import ServiceConfig


def chaos_tasks(seed: int, campaigns: int,
                crash: dict[int, str] | None = None) -> list[Task]:
    """One task per chaos campaign; ``crash`` maps an index to a token."""
    crash = crash or {}
    return [Task("repro.faults.chaos:run_campaign", (campaign_seed, index),
                 crash_token=crash.get(index))
            for index, campaign_seed
            in enumerate(derive_seeds(seed, campaigns))]


def run_chaos_sharded(seed: int, campaigns: int, **how):
    from repro.faults.chaos import assemble_report

    runs, timing = run_tasks(chaos_tasks(seed, campaigns), **how)
    return assemble_report(seed, campaigns, runs), timing


def run_fleet_sharded(seed: int, campaigns: int, machines: int, **how):
    from repro.fleet.campaign import assemble_report

    tasks = [Task("repro.fleet.campaign:run_fleet_campaign",
                  (campaign_seed, index, machines))
             for index, campaign_seed
             in enumerate(derive_seeds(seed, campaigns))]
    runs, timing = run_tasks(tasks, **how)
    return assemble_report(seed, machines, campaigns, runs), timing


def run_fuzz_sharded(seed: int, count: int, *,
                     batch_size: int = DEFAULT_BATCH_SIZE,
                     max_steps: int = DEFAULT_MAX_STEPS, **how):
    sizes = split_sizes(count, batch_size)
    tasks = [Task("repro.fuzz.campaign:run_one_batch",
                  (batch_seed, index, size, max_steps))
             for index, (batch_seed, size)
             in enumerate(zip(derive_seeds(seed, len(sizes)), sizes))]
    runs, timing = run_tasks(tasks, units=count, **how)
    return assemble_fuzz_report(seed, count, batch_size, max_steps,
                                runs), timing


def run_serve_sharded(seed: int, load: int, *,
                      cell_size: int = DEFAULT_CELL_SIZE, config=None, **how):
    config = config or ServiceConfig()
    sizes = split_sizes(load, cell_size)
    tasks = [Task("repro.serve.service:run_cell",
                  (cell_seed, index, size, config))
             for index, (cell_seed, size)
             in enumerate(zip(derive_seeds(seed, len(sizes)), sizes))]
    cells, timing = run_tasks(tasks, units=load, **how)
    return assemble_serve_report(seed, load, cell_size, config,
                                 cells), timing
