"""Differential fuzzing and golden record/replay for the GISA substrate.

The paper's claims are architectural: reachability, mediation, and monotonic
isolation must hold for *every* guest program, not just the hand-written
attack corpus.  This package turns the test suite into a generative oracle:

* :mod:`repro.fuzz.gen` — a seeded, coverage-guided GISA program generator
  with a weighted instruction mix (self-modifying stores, doorbell floods,
  timing probes, MMU/TLB churn, forbidden-IO attempts, raw invalid words);
* :mod:`repro.fuzz.oracles` — the six differential oracles: fast-path vs
  reference interpreter (cycle- and state-bit-identical), guillotine vs
  baseline machine (architectural agreement on benign programs, containment
  asymmetry on flagged ones), analyzer-verdict vs runtime behaviour
  (admission consistency plus the reachability/lockdown invariants),
  taint noninterference probes, checkpoint/restore migration equivalence,
  and lockstep-batch vs scalar execution of the probe lanes;
* :mod:`repro.fuzz.shrink` — a delta-debugging shrinker that minimises any
  diverging program while preserving the divergence;
* :mod:`repro.fuzz.replay` — ``repro.replay/1`` golden-record artifacts
  (seed, program bytes, config, event-log digest) and the deterministic
  re-execution path behind ``python -m repro replay``;
* :mod:`repro.fuzz.campaign` — seeded batch campaigns that shard through
  the :mod:`repro.parallel` fabric into byte-identical ``repro.fuzz/1``
  reports at any ``--jobs``.
"""

from __future__ import annotations

from repro.fuzz.campaign import (
    FUZZ_SCHEMA,
    assemble_fuzz_report,
    run_fuzz,
    run_one_batch,
)
from repro.fuzz.gen import GeneratedProgram, GeneratorConfig, ProgramGenerator
from repro.fuzz.oracles import (
    ExecutionRecord,
    OracleViolation,
    ProgramOutcome,
    batch_noninterference_probes,
    check_program,
    execute_program,
)
from repro.fuzz.replay import (
    REPLAY_SCHEMA,
    ReplayResult,
    divergence_artifact,
    golden_artifact,
    replay_artifact,
)
from repro.fuzz.shrink import shrink_words

__all__ = [
    "FUZZ_SCHEMA",
    "REPLAY_SCHEMA",
    "ExecutionRecord",
    "GeneratedProgram",
    "GeneratorConfig",
    "OracleViolation",
    "ProgramGenerator",
    "ProgramOutcome",
    "ReplayResult",
    "assemble_fuzz_report",
    "batch_noninterference_probes",
    "check_program",
    "divergence_artifact",
    "execute_program",
    "golden_artifact",
    "replay_artifact",
    "run_fuzz",
    "run_one_batch",
    "shrink_words",
]
