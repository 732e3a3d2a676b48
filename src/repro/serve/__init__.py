"""Multi-tenant Guillotine-as-a-service (ROADMAP item 1).

The paper's end state is Guillotine run as shared infrastructure: many
untrusted AI guests multiplexed over a pool of isolated machines.  This
package is that service layer, in four pieces:

* :mod:`repro.serve.workload` — tenant roster, seeded request generation,
  and the guest-program builders for each tenant profile;
* :mod:`repro.serve.admission` — the admission gate, reusing the static
  and taint analyzers under the tenant's policy exactly as
  :meth:`repro.hv.hypervisor.GuillotineHypervisor.load_guest` does;
* :mod:`repro.serve.pool` — warm simulated machines with lease/release
  and a full between-tenant scrub (:func:`repro.hw.machine.reset_machine`);
* :mod:`repro.serve.service` — the deterministic virtual-time cell loop:
  arrivals, bounded admission queue with backpressure, per-tenant
  fair-share dispatch, cycle-budget containment, per-tenant namespacing;
* :mod:`repro.serve.load` — the seeded load generator behind
  ``repro serve --load N`` and the ``repro.serve/1`` report, byte-identical
  at any ``--jobs`` like every other report in the repo.
"""

from __future__ import annotations

from repro.serve.admission import AdmissionDecision, admit
from repro.serve.load import (
    SERVE_SCHEMA,
    assemble_serve_report,
    run_serve,
)
from repro.serve.pool import MachinePool
from repro.serve.service import ServiceConfig, pick_next, run_cell
from repro.serve.workload import (
    PROFILES,
    TENANTS,
    Request,
    TenantSpec,
    build_program,
    generate_requests,
)

__all__ = [
    "PROFILES",
    "SERVE_SCHEMA",
    "TENANTS",
    "AdmissionDecision",
    "MachinePool",
    "Request",
    "ServiceConfig",
    "TenantSpec",
    "admit",
    "assemble_serve_report",
    "build_program",
    "generate_requests",
    "pick_next",
    "run_cell",
    "run_serve",
]
