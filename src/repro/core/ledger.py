"""The committed performance ledger: ``BENCH_ledger.json``.

``BENCH_hw.json`` is a full ``repro.bench/1`` snapshot of *one* run; the
ledger is the longitudinal view.  Every ``repro bench --ledger PATH`` run
appends one summary row — overall speedup, per-machine steps/second,
decoded/trace hit rates, and the git revision it measured — so the
repository history carries the interpreter's performance trajectory
alongside the code that produced it.

The ledger is also the CI regression gate: :func:`check_regression`
compares the newest entry against the previous entry measured under the
same configuration (``quick`` × ``traces`` × ``batch``) and fails when
overall speedup dropped by more than :data:`REGRESSION_TOLERANCE`.  Wall-clock
noise between runners is real, which is why the gate compares the
speedup *ratio* (fast wall vs reference wall on the same machine in the
same run) rather than raw steps/second, and why the tolerance is 10%
rather than 1%.

Since the serve layer landed, the ledger holds two row kinds:

* ``kind="bench"`` (the default for historical rows) — the interpreter
  suite summary above.
* ``kind="serve"`` — one row per ``repro serve`` campaign: simulated
  throughput (requests per million cycles), latency percentiles, and the
  isolation verdict.  Serve throughput is measured in *virtual* cycles,
  so a drop beyond the tolerance is a real scheduling/workload change,
  never runner noise.

Rows only regression-diff against rows of the same kind and
configuration (:func:`_config_key` keys on the kind first).
"""

from __future__ import annotations

import json
import os
import subprocess

from repro.artifacts import (
    NUMBER,
    ArtifactError,
    check_fields,
    json_name,
    load_document,
)

#: JSON schema identifier for the ledger (bump on incompatible change).
LEDGER_SCHEMA = "repro.ledger/1"

#: Default ledger path, relative to the current working directory.
DEFAULT_LEDGER = "BENCH_ledger.json"

#: Maximum tolerated fractional drop in overall speedup between two
#: consecutive same-configuration entries.
REGRESSION_TOLERANCE = 0.10

#: Entries kept per (quick, traces) configuration; older rows age out so
#: the committed file stays reviewable.
MAX_ENTRIES_PER_CONFIG = 50


def git_revision(cwd: str | None = None) -> str:
    """The short git revision of the working tree, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def entry_from_report(report: dict, *, git_rev: str | None = None) -> dict:
    """Compress one ``repro.bench/1`` report into a ledger row."""
    if report.get("schema") != "repro.bench/1":
        raise ValueError(f"not a repro.bench/1 report: {report.get('schema')!r}")
    totals = report["totals"]
    rows = report.get("benchmarks", [])

    steps_per_second: dict[str, float] = {}
    by_machine: dict[str, dict[str, float]] = {}
    for row in rows:
        acc = by_machine.setdefault(row["machine"], {"steps": 0, "wall": 0.0})
        acc["steps"] += row["steps"]
        acc["wall"] += row["wall_seconds"]
    for machine, acc in sorted(by_machine.items()):
        steps_per_second[machine] = round(
            acc["steps"] / acc["wall"], 1) if acc["wall"] else 0.0

    total_steps = sum(row["steps"] for row in rows)
    trace_steps = sum(row.get("trace_steps", 0) for row in rows)
    decoded_rate = (
        sum(row["decoded_hit_rate"] * row["steps"] for row in rows)
        / total_steps if total_steps else 0.0)

    e1 = [row for row in rows if row["name"] == "e1_harness"]
    entry = {
        "kind": "bench",
        "git_rev": git_rev if git_rev is not None else git_revision(),
        "quick": bool(report.get("quick")),
        "traces": bool(report.get("traces", True)),
        "batch": 0,
        "speedup": totals["speedup"],
        "e1_speedup": e1[0]["speedup"] if e1 else None,
        "steps_per_second": steps_per_second,
        "decoded_hit_rate": round(decoded_rate, 4),
        "trace_step_rate": round(
            trace_steps / total_steps, 4) if total_steps else 0.0,
        "all_deterministic": totals["all_deterministic"],
        "all_cycles_match": totals["all_cycles_match"],
    }
    batch = report.get("batch")
    if batch:
        batch_totals = batch["totals"]
        entry["batch"] = int(batch["batch"])
        entry["batch_guest_steps_per_second"] = (
            batch_totals["guest_steps_per_second"])
        entry["batch_scalar_guest_steps_per_second"] = (
            batch_totals["scalar_guest_steps_per_second"])
        entry["batch_speedup"] = batch_totals["aggregate_speedup"]
        entry["batch_bit_identical"] = batch_totals["all_bit_identical"]
    return entry


def serve_entry_from_report(report: dict, *,
                            git_rev: str | None = None) -> dict:
    """Compress one ``repro.serve/1`` report into a ledger row."""
    if report.get("schema") != "repro.serve/1":
        raise ValueError(
            f"not a repro.serve/1 report: {report.get('schema')!r}")
    outcomes = report["outcomes"]
    latency = report["latency"]
    return {
        "kind": "serve",
        "git_rev": git_rev if git_rev is not None else git_revision(),
        "load": report["load"],
        "cell_size": report["cell_size"],
        "machines": report["machines"],
        "queue_cap": report["queue_cap"],
        "budget_cycles": report["budget_cycles"],
        "engine": report["engine"],
        "serviced": report["serviced"],
        "throughput_rpmc": report["throughput_rpmc"],
        "latency_p50": latency["p50"],
        "latency_p95": latency["p95"],
        "latency_p99": latency["p99"],
        "completed": outcomes["completed"],
        "contained": outcomes["contained"],
        "rejected_admission": outcomes["rejected_admission"],
        "rejected_backpressure": outcomes["rejected_backpressure"],
        "all_isolated": report["isolation"]["all_isolated"],
    }


#: Per row kind, the JSON type of every field ``repro ledger`` prints and
#: :func:`check_regression` / :func:`_config_key` read.
_ENTRY_FIELDS = {
    "bench": {
        "git_rev": str, "quick": bool, "traces": bool, "speedup": NUMBER,
        "e1_speedup": (NUMBER, type(None)), "trace_step_rate": NUMBER,
        "all_deterministic": bool, "all_cycles_match": bool,
        # Absent on rows written before the batch suite existed.
        "batch": int, "batch_speedup": NUMBER,
        "batch_bit_identical": bool,
    },
    "serve": {
        "git_rev": str, "load": int, "cell_size": int, "machines": int,
        "queue_cap": int, "budget_cycles": int, "engine": str,
        "throughput_rpmc": NUMBER, "latency_p50": int, "latency_p95": int,
        "latency_p99": int, "all_isolated": bool,
    },
}
_OPTIONAL_BENCH_FIELDS = ("batch", "batch_speedup", "batch_bit_identical")


def _check_entry(entry) -> None:
    if not isinstance(entry, dict):
        raise ArtifactError(f"is {json_name(entry)}, not an object")
    kind = entry.get("kind", "bench")
    if type(kind) is not str or kind not in _ENTRY_FIELDS:
        raise ArtifactError(f"field kind is {kind!r}, not 'bench' or 'serve'")
    check_fields(entry, _ENTRY_FIELDS[kind], _OPTIONAL_BENCH_FIELDS)


def load_ledger(path: str = DEFAULT_LEDGER) -> dict:
    """The ledger document at ``path``, or a fresh empty one.

    A file that exists but is not a ``repro.ledger/1`` document, or holds
    an entry the table or the regression gate cannot read, raises
    :class:`repro.artifacts.ArtifactError` (``entry <i>: <reason>``)."""
    if not os.path.exists(path):
        return {"schema": LEDGER_SCHEMA, "entries": []}
    document = load_document(path, LEDGER_SCHEMA, {"entries": list})
    for index, entry in enumerate(document["entries"]):
        try:
            _check_entry(entry)
        except ArtifactError as exc:
            raise ArtifactError(f"entry {index}: {exc}") from None
    return document


def _config_key(entry: dict) -> tuple:
    """The full measurement configuration, keyed on the row kind first.

    Bench rows key on ``quick`` x ``traces`` x ``batch`` (0 = no batch
    suite ran); serve rows key on the campaign shape (load, cell size,
    pool, budget, engine).  Keying on the whole tuple means a row can
    never be regression-diffed against a differently configured one."""
    if entry.get("kind", "bench") == "serve":
        return ("serve", entry.get("load"), entry.get("cell_size"),
                entry.get("machines"), entry.get("queue_cap"),
                entry.get("budget_cycles"), entry.get("engine"))
    return ("bench", bool(entry.get("quick")),
            bool(entry.get("traces", True)), int(entry.get("batch", 0)))


def _append(entry: dict, path: str) -> dict:
    """Append ``entry`` and rewrite the ledger, aging out old rows.

    Rows beyond :data:`MAX_ENTRIES_PER_CONFIG` for the new row's
    configuration age out oldest-first.  Returns the appended entry."""
    document = load_ledger(path)
    document["entries"].append(entry)

    key = _config_key(entry)
    same = [e for e in document["entries"] if _config_key(e) == key]
    if len(same) > MAX_ENTRIES_PER_CONFIG:
        drop = set(map(id, same[:len(same) - MAX_ENTRIES_PER_CONFIG]))
        document["entries"] = [
            e for e in document["entries"] if id(e) not in drop]

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return entry


def append_entry(report: dict, path: str = DEFAULT_LEDGER, *,
                 git_rev: str | None = None) -> dict:
    """Append one bench summary row for ``report`` (see :func:`_append`)."""
    return _append(entry_from_report(report, git_rev=git_rev), path)


def append_serve_entry(report: dict, path: str = DEFAULT_LEDGER, *,
                       git_rev: str | None = None) -> dict:
    """Append one serve summary row for ``report`` (see :func:`_append`)."""
    return _append(serve_entry_from_report(report, git_rev=git_rev), path)


def _check_serve_regression(latest: dict, entries: list[dict],
                            tolerance: float) -> list[str]:
    """Gate problems for a newest-is-serve ledger (throughput + isolation)."""
    problems = []
    if not latest.get("all_isolated", True):
        problems.append("latest serve entry violated tenant isolation")
    previous = [e for e in entries[:-1]
                if _config_key(e) == _config_key(latest)]
    if previous:
        prior = previous[-1]
        floor = prior["throughput_rpmc"] * (1.0 - tolerance)
        if latest["throughput_rpmc"] < floor:
            problems.append(
                f"serve throughput regressed beyond {tolerance:.0%}: "
                f"{prior['throughput_rpmc']:.1f} rpmc ({prior['git_rev']}) "
                f"-> {latest['throughput_rpmc']:.1f} rpmc "
                f"({latest['git_rev']}), floor {floor:.1f}")
    return problems


def check_regression(path: str = DEFAULT_LEDGER, *,
                     tolerance: float = REGRESSION_TOLERANCE) -> list[str]:
    """Problems with the newest ledger entry, as human-readable strings.

    The newest entry is compared against the previous entry with the same
    :func:`_config_key`; a speedup (bench) or throughput (serve) drop
    beyond ``tolerance`` — or a failed determinism/equivalence/isolation
    verdict — is a problem.  An empty list means the gate passes
    (including the trivial cases of an empty ledger or no prior
    same-configuration entry)."""
    document = load_ledger(path)
    entries = document["entries"]
    if not entries:
        return []
    latest = entries[-1]
    if latest.get("kind", "bench") == "serve":
        return _check_serve_regression(latest, entries, tolerance)
    problems = []
    if not latest.get("all_deterministic"):
        problems.append("latest entry is not deterministic")
    if not latest.get("all_cycles_match"):
        problems.append("latest entry diverged from the reference interpreter")
    if latest.get("batch") and not latest.get("batch_bit_identical"):
        problems.append(
            "latest entry's lockstep batch run diverged from scalar "
            "execution")

    previous = [e for e in entries[:-1] if _config_key(e) == _config_key(latest)]
    if previous:
        prior = previous[-1]
        floor = prior["speedup"] * (1.0 - tolerance)
        if latest["speedup"] < floor:
            problems.append(
                f"speedup regressed beyond {tolerance:.0%}: "
                f"{prior['speedup']:.3f}x ({prior['git_rev']}) -> "
                f"{latest['speedup']:.3f}x ({latest['git_rev']}), "
                f"floor {floor:.3f}x")
        if latest.get("batch") and prior.get("batch_speedup") is not None:
            batch_floor = prior["batch_speedup"] * (1.0 - tolerance)
            if latest.get("batch_speedup", 0.0) < batch_floor:
                problems.append(
                    f"batch speedup regressed beyond {tolerance:.0%}: "
                    f"{prior['batch_speedup']:.3f}x ({prior['git_rev']}) "
                    f"-> {latest.get('batch_speedup', 0.0):.3f}x "
                    f"({latest['git_rev']}), floor {batch_floor:.3f}x")
    return problems
