"""The deterministic service loop for one cell of tenant requests.

A *cell* is an independently seeded slice of the load campaign: its own
arrival schedule, its own machine pool, its own virtual timeline.  Cells
are the unit of parallelism (:func:`run_cell` is the task ``repro serve
--jobs N`` ships to worker processes), and everything inside one is a
pure function of ``(cell_seed, count, config)`` — no wall-clock, no OS
state — which is what makes the merged ``repro.serve/1`` report
byte-identical at any ``--jobs``.

Pipeline per request (section 3.3's admission story, made operational):

1. **Backpressure** — a full admission queue sheds the request with a
   structured rejection before any analysis work is spent.
2. **Admission** — the static/taint analyzers run under the tenant's
   policy (:func:`repro.serve.admission.admit`); refusals never reach a
   machine.
3. **Dispatch** — per-tenant fair share: among queued requests, the
   tenant with the least accumulated service cycles goes first
   (:func:`pick_next`), onto the lowest-index free machine.
4. **Run** — the guest executes on the leased machine under a hard cycle
   budget; overruns and faults are *contained* (machine reclaimed and
   scrubbed), never errors.
5. **Release** — :meth:`repro.hw.machine.Machine.scrub` wipes the machine
   before the next lease; per-tenant artifacts (event-log text,
   telemetry) are namespaced and cross-checked for isolation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from repro.hw.core import CoreState
from repro.serve.admission import admit
from repro.serve.pool import MachinePool
from repro.serve.workload import (
    DATA_PAGES,
    TENANTS,
    Request,
    build_program,
    generate_requests,
)

#: Terminal request outcomes (exactly one per submitted request).
OUTCOMES = ("completed", "contained", "rejected_admission",
            "rejected_backpressure")


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for one cell's service loop (all virtual-cycle units)."""

    machines: int = 4
    queue_cap: int = 6
    budget_cycles: int = 4000
    engine: str = "trace"
    #: Admission analysis charged to the request's service interval.
    admission_base_cost: int = 50
    admission_word_cost: int = 5
    #: Between-tenant scrub, charged before the machine frees up.
    scrub_cost: int = 25
    #: Steps per ``core.run`` slice between budget checks.
    run_chunk: int = 64


def pick_next(queue: Sequence[Request],
              service_cycles: dict) -> int:
    """Fair-share scheduling decision: position of the queued request to
    dispatch next.

    Picks the request whose tenant has accumulated the fewest service
    cycles so far; ties break on submission order.  Pure — the property
    suite drives it directly with random queues."""
    if not queue:
        raise ValueError("cannot pick from an empty queue")
    best = 0
    best_key = (service_cycles.get(queue[0].tenant, 0), queue[0].index)
    for position in range(1, len(queue)):
        request = queue[position]
        key = (service_cycles.get(request.tenant, 0), request.index)
        if key < best_key:
            best = position
            best_key = key
    return best


def _execute(machine, program, config: ServiceConfig) -> tuple[str, str | None, int]:
    """Run one admitted guest on a freshly scrubbed machine.

    Returns ``(outcome, reason, exec_cycles)``.  The machine clock starts
    at zero (scrub guarantees it), so the budget check is simply the
    clock value."""
    core = machine.model_cores[0]
    layout = machine.load_program(
        core, program, data_pages=DATA_PAGES, map_io_region=True)
    machine.control_bus.lockdown_mmu(
        core.name, 0, layout["code_pages"] - 1)
    core.resume()
    while (core.state is CoreState.RUNNING
           and machine.clock.now < config.budget_cycles):
        core.run(max_steps=config.run_chunk)
    exec_cycles = machine.clock.now
    state = core.state
    if state is CoreState.HALTED:
        return "completed", None, exec_cycles
    if state is CoreState.FAULTED:
        return "contained", "fault", exec_cycles
    if state is CoreState.RUNNING:
        return "contained", "budget", exec_cycles
    return "contained", "stall", exec_cycles  # WFI/PAUSED: never finishes


def _new_tenant_stats() -> dict:
    return {
        "requests": 0,
        "admitted": 0,
        "flagged": 0,
        "rejected_admission": 0,
        "rejected_backpressure": 0,
        "completed": 0,
        "contained": 0,
        "service_cycles": 0,
    }


def run_cell(cell_seed: int, index: int, count: int,
             config: ServiceConfig | None = None) -> dict:
    """Run one seeded cell to completion; returns a JSON-safe dict."""
    config = config or ServiceConfig()
    requests = generate_requests(cell_seed, count)
    pool = MachinePool(config.machines, config.engine)
    records: list[dict | None] = [None] * count
    tenant_stats = {spec.tenant: _new_tenant_stats() for spec in TENANTS}
    tenant_log: dict[str, list[str]] = {spec.tenant: [] for spec in TENANTS}
    service_cycles = {spec.tenant: 0 for spec in TENANTS}
    queue: list[Request] = []
    programs: dict[int, object] = {}
    verdicts: dict[int, str] = {}
    #: machine index -> (finish vtime, request, outcome, reason, exec_cycles)
    running: dict[int, tuple] = {}
    schedule: list[dict] = []
    arrivals = list(requests)
    arrival_pos = 0
    vtime = 0

    def record_terminal(request: Request, outcome: str, *, verdict=None,
                        reason=None, latency=None, exec_cycles=None,
                        machine=None, decision=None) -> None:
        stats = tenant_stats[request.tenant]
        stats["requests"] += 1
        stats[outcome] += 1
        if verdict == "admitted":
            stats["admitted"] += 1
        elif verdict == "flagged":
            stats["flagged"] += 1
        records[request.index] = {
            "index": request.index,
            "tenant": request.tenant,
            "profile": request.profile,
            "policy": request.policy,
            "arrival": request.arrival,
            "outcome": outcome,
            "verdict": verdict,
            "reason": reason,
            "latency": latency,
            "exec_cycles": exec_cycles,
            "machine": machine,
            "admission": None if decision is None else {
                "errors": decision.errors,
                "warnings": decision.warnings,
                "flows": decision.flows,
                "categories": list(decision.categories),
            },
        }
        tenant_log[request.tenant].append(
            f"{request.tenant} request={request.index} outcome={outcome} "
            f"verdict={verdict} reason={reason}")

    def dispatch(now: int) -> None:
        while queue:
            leased = pool.lease()
            if leased is None:
                return
            machine_index, machine = leased
            position = pick_next(queue, service_cycles)
            request = queue.pop(position)
            program = programs.pop(request.index)
            admission_cost = (config.admission_base_cost
                              + config.admission_word_cost * len(program))
            machine.log.record(
                "serve", "serve.lease",
                tenant=request.tenant, request=request.index)
            outcome, reason, exec_cycles = _execute(machine, program, config)
            machine.log.record(
                "serve", "serve.outcome",
                tenant=request.tenant, request=request.index,
                outcome=outcome, reason=reason, cycles=exec_cycles)
            # The leased machine's audit trail becomes part of this
            # tenant's namespaced artifact — if the scrub ever leaked a
            # previous tenant's records, the isolation check would see
            # the foreign tenant id right here.
            tenant_log[request.tenant].extend(
                record.to_json() for record in machine.log)
            duration = admission_cost + exec_cycles + config.scrub_cost
            service_cycles[request.tenant] += duration
            running[machine_index] = (
                now + duration, request, outcome, reason, exec_cycles)
            schedule.append({
                "request": request.index,
                "tenant": request.tenant,
                "machine": machine_index,
                "vtime": now,
            })

    while arrival_pos < len(arrivals) or queue or running:
        next_finish = (min((entry[0], midx) for midx, entry
                           in running.items())
                       if running else None)
        next_arrival = (arrivals[arrival_pos].arrival
                        if arrival_pos < len(arrivals) else None)
        if next_finish is not None and (
                next_arrival is None or next_finish[0] <= next_arrival):
            # Completions fire before arrivals at equal virtual times.
            finish, machine_index = next_finish
            _, request, outcome, reason, exec_cycles = running.pop(
                machine_index)
            vtime = finish
            pool.release(machine_index)
            record_terminal(
                request, outcome,
                verdict=verdicts.pop(request.index),
                reason=reason,
                latency=finish - request.arrival,
                exec_cycles=exec_cycles,
                machine=machine_index,
            )
            dispatch(vtime)
            continue
        request = arrivals[arrival_pos]
        arrival_pos += 1
        vtime = request.arrival
        if len(queue) >= config.queue_cap:
            # Structured backpressure: shed before analysis is spent.
            record_terminal(request, "rejected_backpressure",
                            reason="queue_full")
            continue
        program = build_program(request.profile, request.program_seed)
        decision = admit(program, name=f"serve-{request.profile}",
                         policy=request.policy)
        if decision.refuse:
            record_terminal(request, "rejected_admission",
                            verdict=decision.verdict, reason="verifier",
                            decision=decision)
            continue
        programs[request.index] = program
        verdicts[request.index] = decision.verdict
        queue.append(request)
        dispatch(vtime)

    # -- per-tenant artifacts and the in-cell isolation check ---------------
    tenants = {}
    for spec in TENANTS:
        stats = dict(tenant_stats[spec.tenant])
        stats["service_cycles"] = service_cycles[spec.tenant]
        stats["artifact"] = "\n".join(tenant_log[spec.tenant])
        tenants[spec.tenant] = stats
    violations = []
    checks = 0
    for spec in TENANTS:
        artifact = (tenants[spec.tenant]["artifact"]
                    + json.dumps(tenants[spec.tenant], sort_keys=True))
        for other in TENANTS:
            if other.tenant == spec.tenant:
                continue
            checks += 1
            if other.tenant in artifact:
                violations.append({
                    "tenant": spec.tenant,
                    "leaked": other.tenant,
                })

    completed_records = [r for r in records if r is not None]
    assert len(completed_records) == count, "request conservation violated"
    outcome_counts = {outcome: 0 for outcome in OUTCOMES}
    reasons: dict[str, int] = {}
    latencies = []
    for record in completed_records:
        outcome_counts[record["outcome"]] += 1
        if record["outcome"] == "contained":
            reasons[record["reason"]] = reasons.get(record["reason"], 0) + 1
        if record["latency"] is not None:
            latencies.append(record["latency"])
    serviced = outcome_counts["completed"] + outcome_counts["contained"]
    return {
        "index": index,
        "cell_seed": cell_seed,
        "requests": count,
        "outcomes": outcome_counts,
        "contained_reasons": dict(sorted(reasons.items())),
        "flagged": sum(1 for r in completed_records
                       if r["verdict"] == "flagged"),
        "serviced": serviced,
        "makespan": vtime,
        "latencies": latencies,
        "records": completed_records,
        "schedule": schedule,
        "tenants": tenants,
        "isolation": {"checks": checks, "violations": violations},
        "pool": {
            "machines": pool.size,
            "leases": pool.leases,
            "scrubs": pool.scrubs,
        },
    }
