"""Command-line driver: ``python -m repro <command>``.

Commands:

* ``demo``       — the quickstart flow (build, attest, mediated IO, sever)
* ``campaign``   — the E13 containment scoreboard (9 adversaries, both
  platforms)
* ``sidechannel``— the E2 prime+probe comparison, including the shared-cache
  ablation
* ``verify``     — bounded model-checking of the isolation state machine
* ``topology``   — dump the Figure-1 component/edge topology
* ``analyze``    — run the load-time static verifier (lint passes + the
  information-flow taint analyzer) over guest binaries
* ``bench``      — the interpreter performance suite (fast path vs the
  reference interpreter, with determinism and cycle-equivalence checks)
* ``chaos``      — seeded fault-injection campaigns with machine-checked
  fail-closed invariants (the robustness suite)
* ``fleet``      — multi-machine fleet campaigns: checkpoint/restore
  migration, quorum kill, and machine-level chaos with fleet invariants
* ``fuzz``       — coverage-guided differential fuzzing: generated GISA
  programs through the engine/machine/verdict/taint/migration oracles,
  divergences shrunk into ``repro.replay/1`` golden records
* ``replay``     — deterministically re-execute golden records (a file or a
  directory of them) against the current tree
* ``serve``      — the multi-tenant service layer: a seeded load of guest
  submissions through admission control, fair-share scheduling over a warm
  machine pool, and per-tenant isolation accounting (``repro.serve/1``)
"""

from __future__ import annotations

import argparse
import json
import sys


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import GuillotineSandbox, IsolationLevel
    from repro.hv.guest import PortRequestFailed

    sandbox = GuillotineSandbox.create()
    print(f"deployment up  | isolation={sandbox.isolation_level.name} "
          f"| invariant violations={len(sandbox.check_invariants())}")
    sandbox.console.load_model("demo-model")
    print("model loaded after attestation")
    disk = sandbox.client_for("disk0", holder="demo-model")
    disk.request({"op": "write", "block": 0, "data": b"hello"})
    print("mediated write ok; audit records:", len(sandbox.log))
    sandbox.console.admin_transition(
        IsolationLevel.SEVERED, {"admin0", "admin1", "admin2"}, "demo")
    try:
        disk.request({"op": "read", "block": 0, "length": 5})
    except PortRequestFailed:
        print("severed: ports dead, as designed")
    return 0


#: JSON schema identifier emitted by ``campaign --json``.
CAMPAIGN_SCHEMA = "repro.campaign/1"


def _timing_summary(label: str, timing: dict, unit: str) -> str:
    """One human-facing wall-clock line (never part of a JSON payload)."""
    return (f"{label}: {timing['units']} {unit} in "
            f"{timing['wall_seconds']:.2f}s "
            f"({timing['units_per_second']:.1f} {unit}/s, "
            f"jobs={timing['jobs']}, {timing['mode']})")


def _write_json(document: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def _emit(args: argparse.Namespace, report: dict, timing: dict, unit: str,
          ledger_row=None) -> None:
    """The shared tail of every workload command.

    ``--json`` prints the report on stdout and sends every note (timing,
    file writes, ledger) to stderr, so stdout stays byte-comparable across
    ``--jobs`` counts and reruns.  ``--out`` writes the report;
    ``--ledger PATH`` appends the summary row ``ledger_row`` makes of it.
    The wall-clock timing line is never part of the report."""
    notes = sys.stderr if args.json else sys.stdout
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    print(_timing_summary(args.command, timing, unit), file=notes)
    if args.out:
        _write_json(report, args.out)
        print(f"wrote {args.out}", file=notes)
    if args.ledger:
        entry = ledger_row(report, args.ledger)
        print(f"ledger: appended {entry['git_rev']} ({entry['kind']}) "
              f"to {args.ledger}", file=notes)


def _nonpositive(args: argparse.Namespace, *flags: str) -> bool:
    """Report the first of ``flags`` set below 1 (unset ones pass)."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < 1:
            print(f"error: {flag} must be positive, got {value}",
                  file=sys.stderr)
            return True
    return False


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.core.scenarios import campaign_roster, report_from_results
    from repro.parallel import Task, run_tasks

    roster = len(campaign_roster(args.seed))
    tasks = [Task("repro.core.scenarios:run_one_attack",
                  (platform, index, args.seed))
             for platform in ("baseline", "guillotine")
             for index in range(roster)]
    results, timing = run_tasks(tasks, args.jobs)
    baseline = report_from_results("baseline", results[:roster])
    guillotine = report_from_results("guillotine", results[roster:])
    if not args.json:
        width = 34
        print(f"{'adversary':<{width}}{'traditional':<13}{'guillotine':<13}")
        for b, g in zip(baseline.results, guillotine.results):
            print(f"{b.adversary:<{width}}"
                  f"{'ESCAPED' if b.succeeded else 'contained':<13}"
                  f"{'ESCAPED' if g.succeeded else 'contained':<13}")
        print(f"{'containment':<{width}}"
              f"{baseline.containment_rate:<13.0%}"
              f"{guillotine.containment_rate:<13.0%}")
    payload = {
        "schema": CAMPAIGN_SCHEMA,
        "seed": args.seed,
        "baseline": baseline.to_dict(),
        "guillotine": guillotine.to_dict(),
    }
    _emit(args, payload, timing, "attacks")
    return 0 if guillotine.containment_rate == 1.0 else 1


def _cmd_sidechannel(args: argparse.Namespace) -> int:
    from repro.core import harnesses as H

    secret = bytes([5, 17, 33, 60, 2, 44, 21, 9])
    for platform in (H.PLATFORM_BASELINE, H.PLATFORM_GUILLOTINE,
                     H.PLATFORM_ABLATION_SHARED_CACHE):
        result = H.side_channel_run(platform, secret)
        print(f"{platform:<28} accuracy={result.accuracy:.3f} "
              f"bits/trial={result.bits_per_trial:.1f}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.core.verify import explore

    report = explore(depth=args.depth)
    print(f"depth={report.depth}  sequences={report.sequences_run}  "
          f"abstract states={len(report.states_seen)}  "
          f"violations={len(report.violations)}")
    for trace, problem in report.violations[:10]:
        print("  VIOLATION:", " -> ".join(trace), "::", problem)
    return 0 if report.clean else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro import GuillotineSandbox, Host
    from repro.core.telemetry import format_report, gather

    sandbox = GuillotineSandbox.create()
    sandbox.network.attach(Host("user"))
    sandbox.console.load_model("stats-demo")
    service = sandbox.build_service(replicas=2)
    for index in range(4):
        service.submit(f"telemetry demo question {index}",
                       client_host="user")
    service.drain()
    print(format_report(gather(sandbox)))
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from repro import GuillotineSandbox

    sandbox = GuillotineSandbox.create()
    topology = sandbox.topology()
    for kind, components in topology["components"].items():
        print(f"{kind:12s} {', '.join(components)}")
    print("edges:")
    for a, b in topology["edges"]:
        print(f"  {a} -> {b}")
    return 0


#: JSON schema identifier emitted by ``analyze --json`` (documented in
#: docs/ANALYSIS.md; bump on incompatible changes).  ``/2`` added the
#: information-flow block: per-report ``flows`` (each with a minimal
#: source->sink witness path) and ``no_flows``, and dropped the
#: nondeterministic ``wall_seconds`` from the summary so two runs over the
#: same tree emit identical bytes.
ANALYZE_SCHEMA = "repro.analysis/2"


def _cmd_analyze_corpus(args: argparse.Namespace) -> int:
    """``analyze --corpus-dir``: re-run the information-flow analyzer over a
    directory of ``repro.replay/1`` artifacts and cross-check the flow kinds
    against each artifact's recorded ``taint:flow:*`` coverage tokens.

    A benign golden program (no recorded flow tokens) that now produces
    flows is a false positive; a seeded exfiltration program that no longer
    produces its recorded flows is a regression.  Either way the exit code
    is nonzero — this is the CI analyze-smoke gate.
    """
    import os

    from repro.analysis import analyze_program
    from repro.fuzz.oracles import FUZZ_SOURCES
    from repro.fuzz.replay import load_artifact

    try:
        names = sorted(
            name for name in os.listdir(args.corpus_dir)
            if name.endswith(".json")
        )
    except OSError as exc:
        print(f"error: cannot read {args.corpus_dir}: {exc}", file=sys.stderr)
        return 2
    if not names:
        print(f"error: no artifacts in {args.corpus_dir}", file=sys.stderr)
        return 2

    prefix = "taint:flow:"
    entries = []
    mismatched = 0
    for name in names:
        path = os.path.join(args.corpus_dir, name)
        try:
            artifact = load_artifact(path)
            words = tuple(
                int(text, 16)
                for text in artifact["program"]["words_hex"]
            )
        except ValueError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        label = artifact.get("name", name)
        report = analyze_program(
            words, name=label, profile=args.profile, sources=FUZZ_SOURCES
        )
        expected = sorted(
            token[len(prefix):]
            for token in artifact["expected"].get("coverage", [])
            if token.startswith(prefix)
        )
        actual = sorted({f.detail["kind"] for f in report.flows})
        consistent = actual == expected
        if not consistent:
            mismatched += 1
        entries.append({
            "artifact": name,
            "name": label,
            "expected_flows": expected,
            "actual_flows": actual,
            "consistent": consistent,
            "flows": [
                {
                    "kind": f.detail["kind"],
                    "labels": list(f.detail["labels"]),
                    "severity": f.severity.name,
                    "witness": list(f.detail["witness"]),
                }
                for f in report.flows
            ],
        })

    if args.json:
        payload = {
            "schema": ANALYZE_SCHEMA,
            "mode": "corpus",
            "profile": args.profile,
            "artifacts": entries,
            "all_consistent": mismatched == 0,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for entry in entries:
            verdict = "ok" if entry["consistent"] else "MISMATCH"
            flows = ",".join(entry["actual_flows"]) or "(none)"
            print(f"{entry['name']:<24} {verdict:<9} flows: {flows}")
            if not entry["consistent"]:
                print(f"    expected: "
                      f"{','.join(entry['expected_flows']) or '(none)'}")
            for flow in entry["flows"]:
                path_text = " -> ".join(str(pc) for pc in flow["witness"])
                print(f"    {flow['severity']:<8} {flow['kind']:<20} "
                      f"pc {path_text}")
        print(f"\n{len(entries)} artifact(s), {mismatched} flow mismatch(es)")
    if mismatched:
        print(f"error: {mismatched} artifact(s) disagree with their "
              f"recorded taint coverage", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.corpus_dir is not None:
        return _cmd_analyze_corpus(args)

    from repro.analysis import analyze_program, prove_topology
    from repro.analysis.corpus import corpus_entry, corpus_names
    from repro.core.metrics import analyzer_run_summary
    from repro.hw.machine import build_guillotine_machine

    profile = args.profile
    if args.asm is not None:
        from pathlib import Path

        from repro.hw.asm import asm
        from repro.hw.isa import AssemblyError

        source = Path(args.asm)
        try:
            program = asm(source.read_text())
        except OSError as exc:
            print(f"error: cannot read {args.asm}: {exc}", file=sys.stderr)
            return 2
        except AssemblyError as exc:
            print(f"error: {args.asm}: {exc}", file=sys.stderr)
            return 2
        reports = [analyze_program(program, name=source.name,
                                   profile=profile)]
        summary = None
    else:
        names = [args.program] if args.program else None
        if names is None:
            summary, reports = analyzer_run_summary()
        else:
            try:
                entry = corpus_entry(names[0])
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
            reports = [analyze_program(entry.build(), name=entry.name,
                                       profile=profile)]
            summary, _ = analyzer_run_summary(names)

    topology = prove_topology(build_guillotine_machine())

    if args.json:
        payload = {
            "schema": ANALYZE_SCHEMA,
            "profile": profile,
            "programs": [report.to_dict() for report in reports],
            "summary": summary.to_dict() if summary is not None else None,
            "topology": topology.to_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            verdict = ("REJECT" if report.errors
                       else "clean" if report.clean else "warn")
            print(f"{report.name}: {verdict}  "
                  f"({len(report.findings)} finding(s))")
            for finding in report.findings:
                print(f"  {finding.severity.name:<8} {finding.category:<15} "
                      f"pc={finding.pc:<5} {finding.message}")
                witness = finding.detail.get("witness")
                if witness:
                    path_text = " -> ".join(str(pc) for pc in witness)
                    print(f"           witness: pc {path_text}")
        if summary is not None:
            print(f"\nscanned {summary.programs_scanned} program(s), "
                  f"{summary.instructions_decoded} instruction(s) "
                  f"in {summary.wall_seconds * 1000:.1f} ms")
            if summary.findings_by_severity:
                counts = ", ".join(
                    f"{k}={v}"
                    for k, v in sorted(summary.findings_by_severity.items()))
                print(f"findings: {counts}")
            print(f"rejected: {', '.join(summary.rejected) or '(none)'}")
        print(f"topology: {'certified' if topology.certified else 'REFUTED'}"
              f" ({len(topology.checks)} checks)")
    any_errors = any(report.errors for report in reports)
    return 1 if (any_errors or not topology.certified) else 0


def _cmd_bench_parallel(args: argparse.Namespace) -> int:
    from repro.parallel.sweep import DEFAULT_OUTPUT, DEFAULT_SEED, scaling_sweep

    campaigns = 8 if args.quick else 16
    doc = scaling_sweep(seed=DEFAULT_SEED, campaigns=campaigns)

    print(f"{'jobs':<6}{'wall s':>9}{'campaigns/s':>13}{'speedup':>9}"
          f"{'efficiency':>12}  {'merge'}")
    for entry in doc["entries"]:
        merge = ("deterministic" if entry["merge_deterministic"]
                 else "NONDETERMINISTIC")
        print(f"{entry['jobs']:<6}{entry['wall_seconds']:>9.3f}"
              f"{entry['campaigns_per_second']:>13.1f}"
              f"{entry['speedup']:>8.2f}x"
              f"{entry['efficiency']:>11.0%}  {merge}")
    totals = doc["totals"]
    print(f"best: jobs={totals['best_jobs']} at "
          f"{totals['best_campaigns_per_second']:.1f} campaigns/s "
          f"(max speedup {totals['max_speedup']:.2f}x)")

    out = args.out or DEFAULT_OUTPUT
    _write_json(doc, out)
    print(f"wrote {out}")

    if not totals["all_merges_deterministic"]:
        print("error: parallel merge diverged from the sequential report",
              file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.core import bench
    from repro.core.ledger import append_entry
    from repro.parallel import Task, run_tasks

    if args.parallel:
        return _cmd_bench_parallel(args)
    if args.batch < 0:
        print("error: --batch must be a positive lane count", file=sys.stderr)
        return 2

    # Each suite row is a fast leg and a reference leg; each batch row a
    # scalar leg and a lockstep leg.  Legs pair up in task order.
    traces = args.traces != "off"
    tasks = [Task("repro.core.bench:run_one",
                  (index, row[4] if args.quick else row[3], mode, traces))
             for index, row in enumerate(bench.SUITE)
             for mode in ("fast", "slow")]
    if args.batch:
        steps = bench.BATCH_QUICK_STEPS if args.quick else bench.BATCH_STEPS
        tasks += [Task("repro.core.bench:run_batch_one",
                       (index, args.batch, steps, mode))
                  for index in range(len(bench.BATCH_SUITE))
                  for mode in ("scalar", "batch")]
    legs, timing = run_tasks(tasks, args.jobs, units=len(tasks) // 2)
    suite_legs = legs[:2 * len(bench.SUITE)]
    batch_legs = legs[2 * len(bench.SUITE):]
    results = [
        bench.combine_samples(
            fast["name"], fast["machine"],
            *(bench.RunSample(**sample)
              for sample in fast["samples"] + slow["samples"]))
        for fast, slow in zip(suite_legs[::2], suite_legs[1::2])
    ]
    batch_results = [
        bench.combine_batch_samples(scalar, lockstep)
        for scalar, lockstep in zip(batch_legs[::2], batch_legs[1::2])
    ]
    report = bench.suite_report(results, quick=args.quick, traces=traces,
                                batch_results=batch_results,
                                batch=args.batch)

    print(f"{'benchmark':<16}{'machine':<12}{'steps/s':>12}{'cycles/s':>14}"
          f"{'speedup':>9}  {'checks'}")
    for result in results:
        checks = []
        checks.append("deterministic" if result.deterministic
                      else "NONDETERMINISTIC")
        checks.append("cycles-match" if result.cycles_match_slow
                      else "CYCLE-MISMATCH")
        print(f"{result.name:<16}{result.machine:<12}"
              f"{result.steps_per_second:>12,.0f}"
              f"{result.cycles_per_second:>14,.0f}"
              f"{result.speedup:>8.2f}x  {' '.join(checks)}")
    totals = report["totals"]
    print(f"{'TOTAL':<16}{'':<12}{totals['steps_per_second']:>12,.0f}"
          f"{totals['cycles_per_second']:>14,.0f}"
          f"{totals['speedup']:>8.2f}x")

    if batch_results:
        print(f"\nlockstep batch suite (batch={args.batch}):")
        print(f"{'row':<24}{'guest-steps/s':>15}{'scalar/s':>12}"
              f"{'speedup':>9}  {'gate'}")
        for row in batch_results:
            gate = ("bit-identical" if row.bit_identical
                    else "MISMATCH lanes " + ",".join(
                        map(str, row.mismatched_lanes)))
            print(f"{row.name:<24}"
                  f"{row.guest_steps_per_second:>15,.0f}"
                  f"{row.scalar_guest_steps_per_second:>12,.0f}"
                  f"{row.speedup:>8.2f}x  {gate}")
        batch_totals = report["batch"]["totals"]
        print(f"{'AGGREGATE':<24}"
              f"{batch_totals['guest_steps_per_second']:>15,.0f}"
              f"{batch_totals['scalar_guest_steps_per_second']:>12,.0f}"
              f"{batch_totals['aggregate_speedup']:>8.2f}x")

    _emit(args, report, timing, "rows", ledger_row=append_entry)
    if not totals["all_deterministic"]:
        print("error: nondeterministic cycle counts across identical runs",
              file=sys.stderr)
        return 1
    if not totals["all_cycles_match"]:
        print("error: fast path diverged from the reference interpreter",
              file=sys.stderr)
        return 1
    if batch_results and not report["batch"]["totals"]["all_bit_identical"]:
        print("error: lockstep batch execution diverged from scalar "
              "execution", file=sys.stderr)
        return 1
    return 0


def _read_ledger(path: str) -> dict | None:
    """The ledger at ``path``, or ``None`` after printing why it is not one
    as ``error: <path>: <reason>``."""
    from repro.artifacts import ArtifactError
    from repro.core.ledger import load_ledger

    try:
        return load_ledger(path)
    except ArtifactError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _cmd_ledger(args: argparse.Namespace) -> int:
    from repro.core.ledger import check_regression

    document = _read_ledger(args.path)
    if document is None:
        return 2
    entries = document["entries"]
    if not entries:
        print(f"{args.path}: empty ledger")
        return 0

    bench_entries = [e for e in entries if e.get("kind", "bench") == "bench"]
    serve_entries = [e for e in entries if e.get("kind") == "serve"]
    if bench_entries:
        print(f"{'rev':<10}{'quick':<7}{'traces':<8}{'batch':<7}"
              f"{'speedup':>9}"
              f"{'e1':>8}{'batch x':>9}{'trace rate':>12}  {'checks'}")
        for entry in bench_entries[-args.tail:]:
            e1 = (f"{entry['e1_speedup']:.2f}x"
                  if entry.get("e1_speedup") else "-")
            batch = entry.get("batch", 0)
            batch_speedup = (f"{entry['batch_speedup']:.2f}x"
                             if entry.get("batch_speedup") is not None
                             else "-")
            ok = (entry["all_deterministic"] and entry["all_cycles_match"]
                  and (not batch or entry.get("batch_bit_identical")))
            checks = "ok" if ok else "FAILED"
            print(f"{entry['git_rev']:<10}"
                  f"{str(entry['quick']).lower():<7}"
                  f"{'on' if entry['traces'] else 'off':<8}"
                  f"{batch or '-':<7}"
                  f"{entry['speedup']:>8.2f}x{e1:>8}"
                  f"{batch_speedup:>9}"
                  f"{entry['trace_step_rate']:>11.1%}  {checks}")
    if serve_entries:
        if bench_entries:
            print()
        print(f"{'rev':<10}{'load':<7}{'pool':<6}{'engine':<11}"
              f"{'rpmc':>9}{'p50':>7}{'p95':>7}{'p99':>7}  {'checks'}")
        for entry in serve_entries[-args.tail:]:
            checks = "ok" if entry.get("all_isolated") else "LEAKED"
            print(f"{entry['git_rev']:<10}"
                  f"{entry['load']:<7}"
                  f"{entry['machines']:<6}"
                  f"{entry['engine']:<11}"
                  f"{entry['throughput_rpmc']:>9.1f}"
                  f"{entry['latency_p50']:>7}"
                  f"{entry['latency_p95']:>7}"
                  f"{entry['latency_p99']:>7}  {checks}")

    if args.check:
        problems = check_regression(args.path)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        if problems:
            return 1
        print("regression gate: ok")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import assemble_report
    from repro.parallel import Task, run_tasks
    from repro.seeding import derive_seeds

    if _nonpositive(args, "--campaigns"):
        return 2
    tasks = [Task("repro.faults.chaos:run_campaign", (campaign_seed, index))
             for index, campaign_seed
             in enumerate(derive_seeds(args.seed, args.campaigns))]
    runs, timing = run_tasks(tasks, args.jobs)
    report = assemble_report(args.seed, args.campaigns, runs)

    print(f"{'campaign':<10}{'faults':<8}{'classes':<9}{'isolation':<14}"
          f"{'drill':<24}{'invariants'}")
    for run in report["runs"]:
        bad = [inv["name"] for inv in run["invariants"] if not inv["passed"]]
        verdict = "ok" if not bad else "FAIL: " + ",".join(bad)
        print(f"{run['index']:<10}{run['faults_fired']:<8}"
              f"{len(run['fault_classes_fired']):<9}"
              f"{run['final_isolation']:<14}"
              f"{run['operator_drill']['outcome']:<24}{verdict}")
    totals = report["totals"]
    print(f"fault classes exercised: "
          f"{', '.join(totals['fault_classes'])}")
    _emit(args, report, timing, "campaigns")

    if not totals["all_passed"]:
        for failure in totals["invariant_failures"]:
            print(f"error: campaign {failure['campaign']} violated "
                  f"{failure['invariant']}", file=sys.stderr)
        return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet.campaign import assemble_report
    from repro.parallel import Task, run_tasks
    from repro.seeding import derive_seeds

    if _nonpositive(args, "--campaigns", "--machines"):
        return 2
    tasks = [Task("repro.fleet.campaign:run_fleet_campaign",
                  (campaign_seed, index, args.machines))
             for index, campaign_seed
             in enumerate(derive_seeds(args.seed, args.campaigns))]
    runs, timing = run_tasks(tasks, args.jobs)
    report = assemble_report(args.seed, args.machines, args.campaigns, runs)

    print(f"{'campaign':<10}{'faults':<8}{'classes':<9}{'migration':<12}"
          f"{'kill':<22}{'invariants'}")
    for run in report["runs"]:
        bad = [inv["name"] for inv in run["invariants"] if not inv["passed"]]
        verdict = "ok" if not bad else "FAIL: " + ",".join(bad)
        kill = run["kill"]
        if not kill["initiated"]:
            kill_text = "-"
        else:
            kill_text = kill["outcome"]
            if kill["outcome"] == "committed":
                kill_text += (" (deadline ok)" if kill["within_deadline"]
                              else " (LATE)")
        print(f"{run['index']:<10}{run['faults_fired']:<8}"
              f"{len(run['fault_classes_fired']):<9}"
              f"{run['migration'].get('outcome', '-'):<12}"
              f"{kill_text:<22}{verdict}")
    print(f"fault classes exercised: "
          f"{', '.join(report['fault_classes_fired'])}")
    print(f"migrations completed: {report['migrations_completed']}; "
          f"member kills: {report['kills_total']}")
    _emit(args, report, timing, "campaigns")

    if not report["all_passed"]:
        for failure in report["invariant_failures"]:
            print(f"error: campaign {failure['campaign']} violated "
                  f"{failure['invariant']}", file=sys.stderr)
        if not report["invariant_failures"]:
            print("error: a quorum kill missed its actuation deadline",
                  file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import os

    from repro.fuzz.campaign import DEFAULT_BATCH_SIZE, assemble_fuzz_report
    from repro.fuzz.oracles import DEFAULT_MAX_STEPS
    from repro.parallel import Task, run_tasks
    from repro.seeding import derive_seeds, split_sizes

    if _nonpositive(args, "--count", "--batch-size", "--max-steps"):
        return 2
    batch_size = args.batch_size or DEFAULT_BATCH_SIZE
    max_steps = args.max_steps or DEFAULT_MAX_STEPS
    sizes = split_sizes(args.count, batch_size)
    tasks = [Task("repro.fuzz.campaign:run_one_batch",
                  (batch_seed, index, size, max_steps))
             for index, (batch_seed, size)
             in enumerate(zip(derive_seeds(args.seed, len(sizes)), sizes))]
    runs, timing = run_tasks(tasks, args.jobs, units=args.count)
    report = assemble_fuzz_report(args.seed, args.count, batch_size,
                                  max_steps, runs)

    print(f"{'batch':<7}{'programs':<10}{'admitted':<10}{'rejected':<10}"
          f"{'coverage':<10}{'verdict'}")
    for run in report["runs"]:
        verdict = ("ok" if run["passed"]
                   else f"DIVERGED x{len(run['divergences'])}")
        print(f"{run['index']:<7}{run['programs']:<10}{run['admitted']:<10}"
              f"{run['rejected']:<10}{len(run['coverage']):<10}{verdict}")
    totals = report["totals"]
    states = ", ".join(f"{name}={count}"
                       for name, count in totals["states"].items())
    print(f"states: {states}")
    print(f"coverage: {totals['coverage_tokens']} tokens; "
          f"cross-machine compared {totals['cross_compared']}, "
          f"containment asymmetries {totals['containment_asymmetries']}")
    _emit(args, report, timing, "programs")

    if totals["divergences"]:
        os.makedirs(args.artifacts, exist_ok=True)
        for entry in totals["divergence_index"]:
            artifact = next(
                art for run in report["runs"]
                for art in run["divergences"]
                if art["name"] == entry["name"]
            )
            path = os.path.join(args.artifacts, f"{entry['name']}.json")
            _write_json(artifact, path)
            print(f"error: oracle(s) {','.join(entry['oracles'])} violated "
                  f"-> {path}", file=sys.stderr)
        return 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import os

    from repro.fuzz.replay import load_artifact, replay_artifact

    paths: list[str] = []
    for target in args.artifacts:
        if os.path.isdir(target):
            paths.extend(
                os.path.join(target, name)
                for name in sorted(os.listdir(target))
                if name.endswith(".json")
            )
        else:
            paths.append(target)
    if not paths:
        print("error: no artifacts to replay", file=sys.stderr)
        return 2

    results = []
    failed = 0
    for path in paths:
        try:
            result = replay_artifact(load_artifact(path))
        except (ValueError, KeyError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        results.append((path, result))
        if not result.reproduced:
            failed += 1

    if args.json:
        payload = {
            "schema": "repro.replay-run/1",
            "results": [
                dict(result.to_dict(), path=path)
                for path, result in results
            ],
            "all_reproduced": failed == 0,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for path, result in results:
            status = "reproduced" if result.reproduced else "NOT REPRODUCED"
            print(f"{result.kind:<11} {result.name:<28} {status}")
            for mismatch in result.mismatches:
                print(f"    {mismatch}")
    if failed:
        print(f"error: {failed}/{len(results)} artifact(s) failed to "
              f"reproduce", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.ledger import append_serve_entry
    from repro.parallel import Task, run_tasks
    from repro.seeding import derive_seeds, split_sizes
    from repro.serve.load import assemble_serve_report
    from repro.serve.service import ServiceConfig

    if _nonpositive(args, "--load", "--machines", "--cell-size",
                    "--queue-cap", "--budget"):
        return 2
    config = ServiceConfig(machines=args.machines, queue_cap=args.queue_cap,
                           budget_cycles=args.budget, engine=args.engine)
    sizes = split_sizes(args.load, args.cell_size)
    tasks = [Task("repro.serve.service:run_cell",
                  (cell_seed, index, size, config))
             for index, (cell_seed, size)
             in enumerate(zip(derive_seeds(args.seed, len(sizes)), sizes))]
    cells, timing = run_tasks(tasks, args.jobs, units=args.load)
    report = assemble_serve_report(args.seed, args.load, args.cell_size,
                                   config, cells)

    problems = []
    if report["requests"] != args.load:
        problems.append(
            f"request conservation violated: {report['requests']} recorded "
            f"of {args.load} submitted")
    if sum(report["outcomes"].values()) != report["requests"]:
        problems.append("request conservation violated: outcome counts do "
                        "not sum to the request count")
    if not report["isolation"]["all_isolated"]:
        leaks = ", ".join(
            f"{v['leaked']} -> {v['tenant']}"
            for v in report["isolation"]["violations"])
        problems.append(f"tenant isolation violated: {leaks}")

    if not args.json:
        outcomes = report["outcomes"]
        print(f"{'outcome':<24}{'count':>7}")
        for outcome, count in sorted(outcomes.items()):
            print(f"{outcome:<24}{count:>7}")
        reasons = ", ".join(f"{k}={v}" for k, v
                            in report["contained_reasons"].items())
        print(f"contained reasons: {reasons or '(none)'}; "
              f"flagged admissions: {report['flagged']}")
        latency = report["latency"]
        print(f"latency cycles: p50={latency['p50']} p95={latency['p95']} "
              f"p99={latency['p99']} max={latency['max']} "
              f"({latency['samples']} samples)")
        print(f"throughput: {report['throughput_rpmc']:.1f} requests per "
              f"million cycles over {report['cells']} cell(s)")
        print(f"\n{'tenant':<24}{'reqs':>6}{'done':>6}{'cont':>6}"
              f"{'rej-adm':>9}{'rej-bp':>8}{'flagged':>9}{'cycles':>10}")
        for tenant, stats in report["tenants"].items():
            print(f"{tenant:<24}{stats['requests']:>6}"
                  f"{stats['completed']:>6}{stats['contained']:>6}"
                  f"{stats['rejected_admission']:>9}"
                  f"{stats['rejected_backpressure']:>8}"
                  f"{stats['flagged']:>9}{stats['service_cycles']:>10}")
        isolation = report["isolation"]
        print(f"isolation: {isolation['checks']} checks, "
              f"{len(isolation['violations'])} violation(s)")
    _emit(args, report, timing, "requests", ledger_row=append_serve_entry)

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


#: Default of a shared flag a command does not take (``None`` is a real
#: default: ``campaign --seed`` unset runs the standard roster order).
_ABSENT = object()


def _workload(subparsers, name: str, help: str, *, jobs: int = 0,
              seed=_ABSENT, out=_ABSENT, json_flag: bool = False,
              ledger: bool = False) -> argparse.ArgumentParser:
    """A workload command with the shared flags it takes, declared once.

    Every workload takes ``--jobs``; ``--seed`` and ``--out`` exist when
    given a default, ``--json`` and ``--ledger`` when asked for.  A flag a
    command does not take still gets a namespace default, so
    :func:`_emit` can read ``args.out``, ``args.json`` and ``args.ledger``
    on every workload."""
    parser = subparsers.add_parser(name, help=help)
    # Parser-level defaults first: the argument defaults below win.
    parser.set_defaults(out=None, json=False, ledger=None)
    if seed is not _ABSENT:
        parser.add_argument(
            "--seed", type=int, default=seed,
            help=f"master seed for a reproducible run (default {seed})")
    parser.add_argument(
        "--jobs", type=int, default=jobs,
        help=f"worker processes (0 = auto-detect cores, 1 = sequential; "
             f"default {jobs})")
    if out is not _ABSENT:
        parser.add_argument(
            "--out", default=out,
            help="write the JSON report to this path"
                 + (f" (default {out})" if out else ""))
    if json_flag:
        parser.add_argument(
            "--json", action="store_true",
            help="emit the JSON report on stdout; notes go to stderr")
    if ledger:
        parser.add_argument(
            "--ledger", default=None, metavar="PATH",
            help="append this run's summary row to the performance ledger "
                 "at PATH (default: no ledger write)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Guillotine (HotOS 2025) reproduction driver",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("demo", help="quickstart flow")
    _workload(subparsers, "campaign", "E13 containment scoreboard",
              seed=None, json_flag=True)
    subparsers.add_parser("sidechannel", help="E2 + A1 comparison")
    verify_parser = subparsers.add_parser(
        "verify", help="bounded model-checking of the isolation machine")
    verify_parser.add_argument("--depth", type=int, default=2)
    subparsers.add_parser("topology", help="dump the Figure-1 topology")
    subparsers.add_parser(
        "stats", help="run a short workload and print deployment telemetry")
    analyze_parser = subparsers.add_parser(
        "analyze", help="static-verify guest binaries (admission control)")
    analyze_group = analyze_parser.add_mutually_exclusive_group()
    analyze_group.add_argument(
        "--program", help="corpus program name (default: whole corpus)")
    analyze_group.add_argument(
        "--asm", help="path to a GISA assembly file to analyze")
    analyze_group.add_argument(
        "--corpus-dir", default=None,
        help="directory of repro.replay/1 artifacts: re-run the "
             "information-flow analyzer over each program and fail on any "
             "disagreement with the recorded taint coverage")
    analyze_parser.add_argument(
        "--profile", choices=("guillotine", "baseline"), default="guillotine",
        help="lint profile (baseline tolerates direct device IO)")
    analyze_parser.add_argument(
        "--json", action="store_true",
        help="emit the repro.analysis/2 JSON document")
    bench_parser = _workload(
        subparsers, "bench",
        "interpreter performance suite (fast vs reference); writes its "
        "report only to --out",
        jobs=1, out=None, ledger=True)
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="smaller iteration counts (CI smoke mode)")
    bench_parser.add_argument(
        "--parallel", action="store_true",
        help="run the repro.parallel/1 scaling sweep (jobs in {1,2,4,cores} "
             "over a chaos-campaign workload) instead of the suite; "
             "--out defaults to BENCH_parallel.json")
    bench_parser.add_argument(
        "--traces", choices=("on", "off"), default="on",
        help="superblock trace compilation for the fast runs (default on; "
             "'off' measures the decoded-cache fast path alone — simulated "
             "cycles must be identical either way)")
    bench_parser.add_argument(
        "--batch", type=int, default=0, metavar="N",
        help="also run the lockstep batch suite with N guest lanes per "
             "row (scalar vs repro.hw.batch, bit-compared lane by lane; "
             "0 = skip)")
    ledger_parser = subparsers.add_parser(
        "ledger", help="inspect the committed performance ledger")
    ledger_parser.add_argument(
        "--path", default="BENCH_ledger.json",
        help="ledger file (default BENCH_ledger.json)")
    ledger_parser.add_argument(
        "--tail", type=int, default=10,
        help="entries to display (default 10)")
    ledger_parser.add_argument(
        "--check", action="store_true",
        help="fail if the newest entry regressed >10%% vs the previous "
             "same-configuration entry (the CI gate)")
    chaos_parser = _workload(
        subparsers, "chaos",
        "seeded fault-injection campaigns + invariant checks",
        seed=7, out="BENCH_chaos.json")
    chaos_parser.add_argument(
        "--campaigns", type=int, default=5,
        help="number of seeded campaigns to run")
    fleet_parser = _workload(
        subparsers, "fleet",
        "multi-machine fleet campaigns: migration, quorum kill, "
        "machine-level chaos",
        seed=7, out="BENCH_fleet.json")
    fleet_parser.add_argument(
        "--campaigns", type=int, default=3,
        help="number of seeded fleet campaigns to run")
    fleet_parser.add_argument(
        "--machines", type=int, default=3,
        help="Guillotine machines per fleet (default 3)")
    fuzz_parser = _workload(
        subparsers, "fuzz",
        "coverage-guided differential fuzzing (six oracles)",
        seed=42, out="BENCH_fuzz.json")
    fuzz_parser.add_argument(
        "--count", type=int, default=200,
        help="total number of generated programs")
    fuzz_parser.add_argument(
        "--batch-size", type=int, default=None,
        help="programs per batch (the parallel work unit and the "
             "coverage-feedback scope; default 25)")
    fuzz_parser.add_argument(
        "--max-steps", type=int, default=None,
        help="per-program execution budget in steps (default 600)")
    fuzz_parser.add_argument(
        "--artifacts", default="fuzz-artifacts",
        help="directory for repro.replay/1 divergence artifacts")
    serve_parser = _workload(
        subparsers, "serve",
        "multi-tenant service layer: seeded load through admission, "
        "scheduling, and the warm machine pool",
        seed=42, out=None, json_flag=True, ledger=True)
    serve_parser.add_argument(
        "--load", type=int, default=200,
        help="total number of guest submissions in the campaign")
    serve_parser.add_argument(
        "--cell-size", type=int, default=50,
        help="requests per cell (the parallel work unit; default 50)")
    serve_parser.add_argument(
        "--machines", type=int, default=4,
        help="warm pooled machines per cell (default 4)")
    serve_parser.add_argument(
        "--queue-cap", type=int, default=6,
        help="admission queue bound; overflow is shed as structured "
             "backpressure rejections (default 6)")
    serve_parser.add_argument(
        "--budget", type=int, default=4000,
        help="per-guest cycle budget; overruns are contained (default 4000)")
    serve_parser.add_argument(
        "--engine", choices=("reference", "fast", "trace"), default="trace",
        help="interpreter engine for pooled machines (cycle-identical; "
             "default trace)")
    replay_parser = subparsers.add_parser(
        "replay", help="re-execute repro.replay/1 golden records")
    replay_parser.add_argument(
        "artifacts", nargs="+",
        help="artifact JSON file(s) or directories of them")
    replay_parser.add_argument(
        "--json", action="store_true",
        help="emit a repro.replay-run/1 JSON document")

    args = parser.parse_args(argv)
    # A --ledger the run could not append to fails before the run, not
    # after it.
    if getattr(args, "ledger", None) and _read_ledger(args.ledger) is None:
        return 2
    handlers = {
        "demo": _cmd_demo,
        "campaign": _cmd_campaign,
        "sidechannel": _cmd_sidechannel,
        "verify": _cmd_verify,
        "topology": _cmd_topology,
        "stats": _cmd_stats,
        "analyze": _cmd_analyze,
        "bench": _cmd_bench,
        "ledger": _cmd_ledger,
        "chaos": _cmd_chaos,
        "fleet": _cmd_fleet,
        "fuzz": _cmd_fuzz,
        "replay": _cmd_replay,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
