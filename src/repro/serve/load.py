"""The seeded load generator and the ``repro.serve/1`` report.

A campaign of ``load`` requests is split into independently seeded cells
(:mod:`repro.seeding`, the same scheme every other sharded campaign in the
repo uses), each run by :func:`repro.serve.service.run_cell`.
:func:`assemble_serve_report` recomputes every aggregate from the
per-cell results, so the report is a
pure function of ``(seed, load, config)`` — byte-identical whether the
cells ran sequentially, across N workers, or survived a worker crash.

No wall-clock time appears anywhere in the payload; the CLI prints its
timing summary to stderr, per the ``repro.bench/1`` convention.
"""

from __future__ import annotations

from repro.seeding import derive_seeds, split_sizes
from repro.serve.service import OUTCOMES, ServiceConfig, run_cell

SERVE_SCHEMA = "repro.serve/1"

#: Default requests per cell: big enough that the seeded mix exercises
#: every profile, small enough that a 1000-request load shards well.
DEFAULT_CELL_SIZE = 50


def _nearest_rank(sorted_values: list[int], q: int) -> int:
    """Nearest-rank percentile: smallest value with at least q% below-or-at."""
    if not sorted_values:
        return 0
    rank = (q * len(sorted_values) + 99) // 100  # ceil(q/100 * n)
    rank = min(max(rank, 1), len(sorted_values))
    return sorted_values[rank - 1]


def assemble_serve_report(seed: int, load: int, cell_size: int,
                          config: ServiceConfig,
                          cells: list[dict]) -> dict:
    """Merge per-cell results into the canonical ``repro.serve/1`` payload.

    Every aggregate is recomputed here from cell data; cells are ordered
    by index regardless of completion order."""
    ordered = sorted(cells, key=lambda cell: cell["index"])
    outcome_totals = {outcome: 0 for outcome in OUTCOMES}
    contained_reasons: dict[str, int] = {}
    tenants: dict[str, dict] = {}
    latencies: list[int] = []
    violations: list[dict] = []
    checks = 0
    flagged = 0
    requests = 0
    serviced = 0
    makespan_total = 0
    pool_totals = {"machines": config.machines, "leases": 0, "scrubs": 0}
    cell_summaries = []
    for cell in ordered:
        requests += cell["requests"]
        serviced += cell["serviced"]
        flagged += cell["flagged"]
        makespan_total += cell["makespan"]
        latencies.extend(cell["latencies"])
        for outcome, value in cell["outcomes"].items():
            outcome_totals[outcome] += value
        for reason, value in cell["contained_reasons"].items():
            contained_reasons[reason] = (
                contained_reasons.get(reason, 0) + value)
        checks += cell["isolation"]["checks"]
        violations.extend(cell["isolation"]["violations"])
        pool_totals["leases"] += cell["pool"]["leases"]
        pool_totals["scrubs"] += cell["pool"]["scrubs"]
        for tenant, stats in cell["tenants"].items():
            merged = tenants.setdefault(tenant, {
                "requests": 0, "admitted": 0, "flagged": 0,
                "rejected_admission": 0, "rejected_backpressure": 0,
                "completed": 0, "contained": 0, "service_cycles": 0,
            })
            for key in merged:
                merged[key] += stats[key]
        cell_summaries.append({
            "index": cell["index"],
            "cell_seed": cell["cell_seed"],
            "requests": cell["requests"],
            "outcomes": cell["outcomes"],
            "serviced": cell["serviced"],
            "makespan": cell["makespan"],
        })
    latencies.sort()
    latency = {
        "samples": len(latencies),
        "p50": _nearest_rank(latencies, 50),
        "p95": _nearest_rank(latencies, 95),
        "p99": _nearest_rank(latencies, 99),
        "max": latencies[-1] if latencies else 0,
        "mean": (round(sum(latencies) / len(latencies), 4)
                 if latencies else 0),
    }
    throughput = (round(1_000_000 * serviced / makespan_total, 4)
                  if makespan_total else 0)
    return {
        "schema": SERVE_SCHEMA,
        "seed": seed,
        "load": load,
        "cell_size": cell_size,
        "cells": len(ordered),
        "machines": config.machines,
        "queue_cap": config.queue_cap,
        "budget_cycles": config.budget_cycles,
        "engine": config.engine,
        "requests": requests,
        "outcomes": outcome_totals,
        "contained_reasons": dict(sorted(contained_reasons.items())),
        "flagged": flagged,
        "serviced": serviced,
        "latency": latency,
        "throughput_rpmc": throughput,
        "makespan_cycles": makespan_total,
        "tenants": {tenant: tenants[tenant] for tenant in sorted(tenants)},
        "isolation": {
            "tenants": len(tenants),
            "checks": checks,
            "violations": violations,
            "all_isolated": not violations,
        },
        "pool": pool_totals,
        "cell_results": cell_summaries,
    }


def run_serve(seed: int, load: int, *, cell_size: int = DEFAULT_CELL_SIZE,
              config: ServiceConfig | None = None) -> dict:
    """Sequential reference driver for a whole load campaign."""
    config = config or ServiceConfig()
    sizes = split_sizes(load, cell_size)
    seeds = derive_seeds(seed, len(sizes))
    cells = [
        run_cell(cell_seed, index, count, config)
        for index, (cell_seed, count) in enumerate(zip(seeds, sizes))
    ]
    return assemble_serve_report(seed, load, cell_size, config, cells)
