"""Load-time static analysis over GISA programs and machine topology.

The paper argues the Guillotine TCB should be "formally verified for
correctness" and that isolation must be provable from topology rather than
enforced reactively at runtime.  This package is the reproduction's take on
that claim: a pass pipeline that decides what a guest binary *can* do before
it is granted compute, plus a prover that certifies the bus graph before
anything boots.

Pipeline stages:

* :mod:`repro.analysis.decoder` — decode a :class:`~repro.hw.isa.Program`
  (or raw instruction words, so injected payloads are analyzable too);
* :mod:`repro.analysis.cfg` — basic blocks and the control-flow graph,
  with resolved direct targets and marked indirect jumps;
* :mod:`repro.analysis.dataflow` — forward abstract interpretation on an
  interval domain over the 16 registers, resolving computed store/jump
  targets and ``MAP``/``UNMAP`` arguments (one fixpoint per analysis,
  shared by every pass);
* :mod:`repro.analysis.passes` — the lint-pass registry producing typed
  :class:`~repro.analysis.passes.Finding` objects;
* :mod:`repro.analysis.taint` — the information-flow pass, a taint
  fixpoint over the same interval states;
* :mod:`repro.analysis.topology` — the static bus-graph prover.

Entry points: :func:`analyze_program` (one binary -> report) and
:func:`~repro.analysis.topology.prove_topology` (one machine -> certificate).
Admission control in :class:`repro.hv.hypervisor.GuillotineHypervisor` calls
both at load time.
"""

from __future__ import annotations

from repro.analysis.cfg import BasicBlock, ControlFlowGraph, build_cfg
from repro.analysis.dataflow import DataflowResult, Interval, run_dataflow
from repro.analysis.decoder import DecodedInstruction, decode_stream
from repro.analysis.passes import (
    AnalysisContext,
    AnalysisReport,
    Finding,
    Severity,
    analysis_cache_stats,
    analyze_program,
    registered_passes,
    reset_analysis_cache,
)
from repro.analysis.taint import (
    MemoryWindow,
    SourceSinkModel,
    TaintFlow,
    TaintResult,
    analyze_taint,
)
from repro.analysis.topology import TopologyCheck, TopologyReport, prove_topology

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "BasicBlock",
    "ControlFlowGraph",
    "DataflowResult",
    "DecodedInstruction",
    "Finding",
    "Interval",
    "MemoryWindow",
    "Severity",
    "SourceSinkModel",
    "TaintFlow",
    "TaintResult",
    "TopologyCheck",
    "TopologyReport",
    "analysis_cache_stats",
    "analyze_program",
    "analyze_taint",
    "build_cfg",
    "decode_stream",
    "prove_topology",
    "registered_passes",
    "reset_analysis_cache",
    "run_dataflow",
]
