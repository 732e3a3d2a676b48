"""Seeded fuzz campaigns: batches of generated programs through the oracles.

The campaign mirrors the chaos subsystem's determinism contract
(:mod:`repro.faults.chaos`): the program count splits into batches and a
master seed expands into per-batch seeds (:mod:`repro.seeding`), each
batch is a *pure function* of ``(batch_seed, index, count, max_steps)``
(:func:`run_one_batch`), and :func:`assemble_fuzz_report` folds batch
dicts into a ``repro.fuzz/1`` report by recomputing every total from the
merged runs.  Because the batch — not the program — is the unit of work,
coverage-guided mutation (which is inherently sequential) stays *inside*
a batch, and ``repro fuzz --jobs N`` can shard batches across worker
processes while the merged report stays byte-identical to the sequential
path.

Any oracle violation inside a batch is delta-debugged by the shrinker and
embedded as a ``repro.replay/1`` divergence artifact, ready for
``python -m repro replay``.
"""

from __future__ import annotations

from collections import Counter

from repro.fuzz.gen import GeneratorConfig, ProgramGenerator
from repro.fuzz.oracles import (
    DEFAULT_MAX_STEPS,
    check_program,
    violation_predicate,
)
from repro.fuzz.replay import divergence_artifact
from repro.fuzz.shrink import shrink_words
from repro.seeding import derive_seeds, split_sizes

FUZZ_SCHEMA = "repro.fuzz/1"

#: Programs per batch.  The batch is the parallel work unit *and* the
#: mutation-feedback scope; the partitioning depends only on the total
#: count, never on the jobs count.
DEFAULT_BATCH_SIZE = 25

#: Shrinker budget per divergence (each evaluation is a few machine runs;
#: divergences are rare, so this only matters when a real bug is caught).
SHRINK_MAX_EVALS = 150


def run_one_batch(
    batch_seed: int,
    index: int,
    count: int,
    max_steps: int = DEFAULT_MAX_STEPS,
    *,
    shrink: bool = True,
) -> dict:
    """The pure, dispatchable fuzz work unit.

    Generates ``count`` programs from a batch-local coverage-guided
    generator, runs every oracle over each, shrinks any divergence, and
    returns a plain JSON-safe dict fully determined by the arguments."""
    generator = ProgramGenerator(batch_seed, GeneratorConfig())
    states: Counter[str] = Counter()
    origins: Counter[str] = Counter()
    admitted = rejected = 0
    cross_compared = asymmetries = 0
    noninterference_certified = taint_flagged = 0
    new_coverage_events = 0
    divergences: list[dict] = []

    for position in range(count):
        program = generator.next_program()
        outcome = check_program(program.words, max_steps=max_steps)
        states[outcome.fast.state] += 1
        origins[program.origin] += 1
        if outcome.admitted:
            admitted += 1
        elif outcome.admitted is not None:
            rejected += 1
        if outcome.cross_compared:
            cross_compared += 1
        if "machines:asymmetry" in outcome.coverage:
            asymmetries += 1
        if outcome.noninterference:
            noninterference_certified += 1
        if outcome.taint_flows:
            taint_flagged += 1
        if generator.observe(program, set(outcome.coverage)):
            new_coverage_events += 1

        if outcome.violations:
            oracles = frozenset(v.oracle for v in outcome.violations)
            shrunk = None
            if shrink:
                minimal = shrink_words(
                    outcome.words,
                    violation_predicate(oracles, max_steps=max_steps),
                    max_evals=SHRINK_MAX_EVALS,
                )
                if minimal != outcome.words:
                    shrunk = minimal
            divergences.append(divergence_artifact(
                outcome,
                name=f"fuzz-b{index:03d}-p{position:03d}",
                seed=batch_seed,
                batch=index,
                program_index=position,
                max_steps=max_steps,
                shrunk_words=shrunk,
            ))

    return {
        "index": index,
        "seed": batch_seed,
        "programs": count,
        "origins": dict(sorted(origins.items())),
        "states": dict(sorted(states.items())),
        "admitted": admitted,
        "rejected": rejected,
        "cross_compared": cross_compared,
        "containment_asymmetries": asymmetries,
        "noninterference_certified": noninterference_certified,
        "taint_flagged": taint_flagged,
        "coverage": sorted(generator.coverage),
        "corpus_size": len(generator.corpus),
        "new_coverage_events": new_coverage_events,
        "divergences": divergences,
        "passed": not divergences,
    }


def assemble_fuzz_report(
    seed: int,
    count: int,
    batch_size: int,
    max_steps: int,
    runs: list[dict],
) -> dict:
    """Fold per-batch dicts into the ``repro.fuzz/1`` campaign report.

    Pure aggregation ordered by batch index with every total recomputed
    from the merged runs — feeding this the outputs of N worker processes
    yields the same bytes as the sequential loop.  No wall-clock fields:
    timing belongs to the CLI summary line, never the payload."""
    runs = sorted(runs, key=lambda run: run["index"])
    coverage = sorted({token for run in runs for token in run["coverage"]})
    states: Counter[str] = Counter()
    for run in runs:
        states.update(run["states"])
    divergences = [
        {"batch": run["index"], "artifact": artifact}
        for run in runs
        for artifact in run["divergences"]
    ]
    return {
        "schema": FUZZ_SCHEMA,
        "seed": seed,
        "count": count,
        "batch_size": batch_size,
        "max_steps": max_steps,
        "runs": runs,
        "totals": {
            "programs": sum(run["programs"] for run in runs),
            "states": dict(sorted(states.items())),
            "admitted": sum(run["admitted"] for run in runs),
            "rejected": sum(run["rejected"] for run in runs),
            "cross_compared": sum(run["cross_compared"] for run in runs),
            "containment_asymmetries": sum(
                run["containment_asymmetries"] for run in runs
            ),
            "noninterference_certified": sum(
                run["noninterference_certified"] for run in runs
            ),
            "taint_flagged": sum(run["taint_flagged"] for run in runs),
            "coverage_tokens": len(coverage),
            "coverage": coverage,
            "divergences": len(divergences),
            "divergence_index": [
                {
                    "batch": entry["batch"],
                    "name": entry["artifact"]["name"],
                    "oracles": sorted({
                        violation["oracle"]
                        for violation in entry["artifact"]["expected"][
                            "violations"]
                    }),
                }
                for entry in divergences
            ],
            "all_passed": not divergences,
        },
    }


def run_fuzz(
    seed: int,
    count: int,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> dict:
    """Run a fuzz campaign sequentially; assemble the ``repro.fuzz/1``
    report.  ``repro fuzz --jobs N`` shards the same batches."""
    sizes = split_sizes(count, batch_size)
    seeds = derive_seeds(seed, len(sizes))
    runs = [
        run_one_batch(batch_seed, index, size, max_steps)
        for index, (batch_seed, size) in enumerate(zip(seeds, sizes))
    ]
    return assemble_fuzz_report(seed, count, batch_size, max_steps, runs)
