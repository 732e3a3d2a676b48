"""The determinism-comparison views of a report.

A sharded run must emit reports byte-identical to the sequential path.
Two report families need different treatment:

* ``repro.chaos/1``, ``repro.fleet/1``, ``repro.fuzz/1``,
  ``repro.serve/1`` and ``repro.campaign/1`` contain *no* wall-clock
  fields at all (timing is a CLI summary line and a ``repro.parallel/1``
  artifact, never part of the payload), so the comparison is plain byte
  equality of the canonical JSON.
* ``repro.bench/1`` necessarily embeds wall-clock measurements
  (``wall_seconds``, ``steps_per_second``, ``speedup``...).  Those are
  the *non-compared section*: :func:`deterministic_view` strips them,
  leaving the simulated steps/cycles and the determinism/equivalence
  verdicts, which must match bit-for-bit however the suite was sharded.

There is no merge code here: callers fold task results with the
aggregation that lives next to each sequential implementation
(``assemble_report``, ``suite_report``, ``report_from_results``...)
precisely so the sharded path cannot drift from the sequential one.
"""

from __future__ import annotations

import json

#: Wall-clock-derived keys inside each ``repro.bench/1`` benchmark row.
_BENCH_ROW_WALL_KEYS = frozenset({
    "wall_seconds", "slow_wall_seconds", "steps_per_second",
    "cycles_per_second", "speedup",
})

#: Wall-clock-derived keys inside the ``repro.bench/1`` totals block.
_BENCH_TOTAL_WALL_KEYS = frozenset({
    "fast_wall_seconds", "slow_wall_seconds", "steps_per_second",
    "cycles_per_second", "speedup",
})

#: Wall-clock-derived keys inside the batch section's rows and totals.
_BATCH_WALL_KEYS = frozenset({
    "wall_seconds", "scalar_wall_seconds", "guest_steps_per_second",
    "scalar_guest_steps_per_second", "speedup", "aggregate_speedup",
})


def deterministic_view(report: dict) -> dict:
    """The portion of a report that must be identical however it ran.

    For every timing-free document this is the whole report; for bench
    documents the wall-clock fields (the non-compared section) are
    stripped from every row and from the totals."""
    if report.get("schema") != "repro.bench/1":
        return dict(report)
    view = dict(report)
    view["benchmarks"] = [
        {key: value for key, value in row.items()
         if key not in _BENCH_ROW_WALL_KEYS}
        for row in report.get("benchmarks", ())
    ]
    view["totals"] = {
        key: value for key, value in report.get("totals", {}).items()
        if key not in _BENCH_TOTAL_WALL_KEYS
    }
    if report.get("batch"):
        batch = dict(report["batch"])
        batch["rows"] = [
            {key: value for key, value in row.items()
             if key not in _BATCH_WALL_KEYS}
            for row in batch.get("rows", ())
        ]
        batch["totals"] = {
            key: value for key, value in batch.get("totals", {}).items()
            if key not in _BATCH_WALL_KEYS
        }
        view["batch"] = batch
    return view


def canonical_bytes(report: dict) -> str:
    """Canonical JSON of the deterministic view (what tests compare)."""
    return json.dumps(deterministic_view(report), indent=2, sort_keys=True)
