"""Tests for the ``python -m repro`` command-line driver."""

import pytest

from repro.__main__ import main


class TestCommands:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "model loaded after attestation" in out
        assert "severed: ports dead" in out

    def test_sidechannel(self, capsys):
        assert main(["sidechannel"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "guillotine" in out
        assert "accuracy=1.000" in out        # baseline + ablation leak
        assert "accuracy=0.000" in out        # intact guillotine does not

    def test_verify_depth_one(self, capsys):
        assert main(["verify", "--depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "violations=0" in out

    def test_topology(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "model_core0 -> model_dram" in out
        assert "console -> hv_core0" in out

    def test_campaign(self, capsys):
        assert main(["campaign"]) == 0
        out = capsys.readouterr().out
        assert "100%" in out and "0%" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["fly-to-the-moon"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "hypervisor:" in out and "chain=ok" in out

    def test_fleet(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "fleet.json"
        assert main(["fleet", "--seed", "7", "--campaigns", "1",
                     "--jobs", "1", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "migration" in out and "kill" in out
        assert "fault classes exercised:" in out
        assert "node_loss" in out and "net_partition" in out
        report = json.loads(out_path.read_text())
        assert report["schema"] == "repro.fleet/1"
        assert report["all_passed"] is True


class TestAnalyze:
    def test_whole_corpus_flags_attacks(self, capsys):
        assert main(["analyze"]) == 1        # attack kernels -> exit 1
        out = capsys.readouterr().out
        assert "store_to_code: REJECT" in out
        assert "checksum: clean" in out
        assert "topology: certified" in out

    def test_single_clean_program_exits_zero(self, capsys):
        assert main(["analyze", "--program", "checksum"]) == 0
        out = capsys.readouterr().out
        assert "checksum: clean" in out
        assert "rejected: (none)" in out

    def test_single_attack_program_exits_one(self, capsys):
        assert main(["analyze", "--program", "flood"]) == 1
        out = capsys.readouterr().out
        assert "doorbell-flood" in out

    def test_json_schema(self, capsys):
        import json

        assert main(["analyze", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.analysis/2"
        assert payload["topology"]["certified"] is True
        names = {p["name"] for p in payload["programs"]}
        assert {"flood", "checksum"} <= names
        assert payload["summary"]["programs_scanned"] == len(names)
        # Byte-stability contract: no wall-clock field in the payload.
        assert "wall_seconds" not in payload["summary"]
        severities = {f["severity"]
                      for p in payload["programs"] for f in p["findings"]}
        assert severities <= {"info", "warning", "error"}

    def test_json_reports_flows_with_witnesses(self, capsys):
        import json

        assert main(["analyze", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        by_name = {p["name"]: p for p in payload["programs"]}
        probe = by_name["prime_probe"]
        assert probe["no_flows"] is False
        assert probe["flows"], "prime_probe must carry taint flows"
        for flow in probe["flows"]:
            assert flow["kind"] == "timing-measurement"
            assert len(flow["witness"]) >= 2
            assert flow["witness"][-1] == flow["sink_pc"]
        assert by_name["checksum"]["no_flows"] is True
        assert by_name["checksum"]["flows"] == []

    def test_text_output_renders_witness_paths(self, capsys):
        assert main(["analyze", "--program", "prime_probe"]) == 1
        out = capsys.readouterr().out
        assert "flow-timing" in out
        assert "witness: pc" in out

    def test_corpus_dir_mode(self, capsys):
        import json
        import os

        corpus_dir = os.path.join(
            os.path.dirname(__file__), "fuzz", "corpus")
        assert main(["analyze", "--corpus-dir", corpus_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.analysis/2"
        assert payload["all_consistent"] is True
        by_name = {e["name"]: e for e in payload["artifacts"]}
        assert by_name["golden-exfil"]["actual_flows"] == ["exfil-mailbox"]
        assert by_name["golden-covert"]["actual_flows"] == [
            "branch-channel", "covert-doorbell"]
        assert by_name["golden-alu"]["actual_flows"] == []

    def test_corpus_dir_flags_disagreement(self, capsys, tmp_path):
        import json
        import os
        import shutil

        src = os.path.join(
            os.path.dirname(__file__), "fuzz", "corpus", "golden-exfil.json")
        with open(src, "r", encoding="utf-8") as handle:
            artifact = json.load(handle)
        # Strip the recorded flow tokens: the artifact now claims the
        # program is benign, so the analyzer's flow is a "false positive".
        artifact["expected"]["coverage"] = [
            token for token in artifact["expected"]["coverage"]
            if not token.startswith("taint:flow:")
        ]
        bad_dir = tmp_path / "corpus"
        bad_dir.mkdir()
        with open(bad_dir / "golden-exfil.json", "w",
                  encoding="utf-8") as handle:
            json.dump(artifact, handle)
        shutil.copy(
            os.path.join(os.path.dirname(src), "golden-alu.json"),
            bad_dir / "golden-alu.json")
        assert main(["analyze", "--corpus-dir", str(bad_dir)]) == 1
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.out
        assert "disagree with their recorded taint coverage" in captured.err

    def test_corpus_dir_empty_fails_cleanly(self, capsys, tmp_path):
        assert main(["analyze", "--corpus-dir", str(tmp_path)]) == 2
        assert "no artifacts" in capsys.readouterr().err

    def test_asm_file(self, capsys, tmp_path):
        source = tmp_path / "guest.s"
        source.write_text("movi r1, 1\nhalt\n")
        assert main(["analyze", "--asm", str(source)]) == 0
        assert "guest.s: clean" in capsys.readouterr().out

    def test_unknown_program_name_fails_cleanly(self, capsys):
        assert main(["analyze", "--program", "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown corpus program" in err
        assert "checksum" in err         # the known names are listed

    def test_missing_asm_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["analyze", "--asm", str(tmp_path / "nope.s")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_asm_fails_cleanly(self, capsys, tmp_path):
        source = tmp_path / "bad.s"
        source.write_text("movi r1,\nhalt\n")
        assert main(["analyze", "--asm", str(source)]) == 2
        assert "error" in capsys.readouterr().err

    def test_baseline_profile_tolerates_io(self, capsys, tmp_path):
        source = tmp_path / "io.s"
        source.write_text("iord r1, 0\nhalt\n")
        assert main(["analyze", "--asm", str(source)]) == 1
        assert main(["analyze", "--asm", str(source),
                     "--profile", "baseline"]) == 0


class TestServeCommand:
    """Exit-code contract: 0 ok, 1 isolation/invariant failure, 2 usage."""

    ARGS = ["serve", "--load", "40", "--seed", "7", "--cell-size", "20",
            "--jobs", "1"]

    def test_table_mode_runs_a_seeded_load(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "outcome" in out and "tenant-" in out
        assert "throughput:" in out and "requests/s" in out
        assert "isolation:" in out

    def test_json_mode_emits_the_serve_schema(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "serve.json"
        assert main(self.ARGS + ["--json", "--out", str(out_path)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["schema"] == "repro.serve/1"
        assert payload["requests"] == 40
        assert sum(payload["outcomes"].values()) == 40
        assert json.loads(out_path.read_text()) == payload
        # Timing and file notices stay off the JSON stream.
        assert "requests/s" in captured.err

    def test_nonpositive_load_is_usage_error(self, capsys):
        assert main(["serve", "--load", "0"]) == 2
        assert "--load must be positive" in capsys.readouterr().err

    def test_nonpositive_queue_cap_is_usage_error(self, capsys):
        assert main(["serve", "--queue-cap", "-1"]) == 2
        assert "--queue-cap must be positive" in capsys.readouterr().err

    def test_unknown_engine_is_usage_error(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["serve", "--engine", "jit"])

    def test_isolation_violation_exits_one(self, capsys, monkeypatch):
        import repro.serve.load as load

        real = load.assemble_serve_report

        def doctored(*args, **kwargs):
            report = real(*args, **kwargs)
            report["isolation"]["all_isolated"] = False
            report["isolation"]["violations"] = [
                {"tenant": "tenant-00-batcher",
                 "leaked": "tenant-06-spinner"}]
            return report

        monkeypatch.setattr(load, "assemble_serve_report", doctored)
        assert main(self.ARGS + ["--json"]) == 1
        assert "tenant isolation violated" in capsys.readouterr().err

    def test_ledger_round_trip_and_gate(self, capsys, tmp_path):
        ledger = tmp_path / "ledger.json"
        assert main(self.ARGS + ["--ledger", str(ledger)]) == 0
        assert main(self.ARGS + ["--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["ledger", "--path", str(ledger), "--check"]) == 0
        out = capsys.readouterr().out
        assert "rpmc" in out and "ok" in out
        assert "regression gate: ok" in out


def _golden_record() -> dict:
    import json
    from pathlib import Path

    corpus = Path(__file__).resolve().parent / "fuzz" / "corpus"
    return json.loads((corpus / "golden-alu.json").read_text())


#: Malformed replay artifacts: the golden record with one field replaced.
_REPLAY_EDITS = {
    "words-hex-number": (("program", "words_hex"), 5),
    "expected-list": (("expected",), []),
    "expected-empty": (("expected",), {}),
    "record-empty": (("expected", "record"), {}),
    "record-null": (("expected", "record"), None),
    "violations-null": (("expected", "violations"), None),
    "coverage-null": (("expected", "coverage"), None),
    "coverage-integers": (("expected", "coverage"), [1, 2]),
    "max-steps-string": (("max_steps",), "x"),
    "words-hex-too-wide": (("program", "words_hex"), ["0x1ffffffffffffffff"]),
}

#: Malformed ledgers: a well-formed document around bad entries.
_LEDGER_ENTRIES = {
    "entries-integers": [1, 2],
    "entry-empty": [{}],
    "entry-unknown-kind": [{"kind": "fleet"}],
}


def _malformed(kind: str) -> str:
    """The text of one malformed artifact file."""
    import json
    from pathlib import Path

    record = _golden_record()
    if kind == "top-level-list":
        return json.dumps([record])
    if kind in _REPLAY_EDITS:
        path, value = _REPLAY_EDITS[kind]
        holder = record
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = value
        return json.dumps(record)
    if kind == "truncated-ledger":
        return '{"schema": "repro.ledger/1", "entr'
    if kind == "ledger-list":
        return "[]"
    if kind == "ledger-without-entries":
        return json.dumps({"schema": "repro.ledger/1"})
    if kind == "serve-engine-null":
        committed = Path(__file__).resolve().parent.parent / "BENCH_ledger.json"
        serve_row = next(entry for entry
                         in json.loads(committed.read_text())["entries"]
                         if entry.get("kind") == "serve")
        entries = [dict(serve_row, engine=None)]
    else:
        entries = _LEDGER_ENTRIES[kind]
    return json.dumps({"schema": "repro.ledger/1", "entries": entries})


class TestMalformedArtifacts:
    """Every artifact file the CLI reads back fails with
    ``error: <path>: <reason>`` and exit 2, never a traceback."""

    @pytest.mark.parametrize("command, kind, reason", [
        (command, kind, reason)
        for command in ("replay", "analyze")
        for kind, reason in (
            ("top-level-list", "top level is an array, not an object"),
            ("words-hex-number",
             "field program.words_hex is an integer, not an array"),
            ("expected-list", "field expected is an array, not an object"),
            ("expected-empty", "missing field expected.record"),
            ("record-empty", "field expected.record is empty"),
            ("record-null", "field expected.record is null, not an object"),
            ("violations-null",
             "field expected.violations is null, not an array"),
            ("coverage-null", "field expected.coverage is null, not an array"),
            ("coverage-integers",
             "field expected.coverage holds an integer, not a string"),
            ("max-steps-string",
             "field max_steps is a string, not an integer"),
            ("words-hex-too-wide",
             "field program.words_hex holds '0x1ffffffffffffffff', "
             "not a 64-bit word"),
        )
    ] + [
        (command, kind, reason)
        for command in ("ledger", "serve", "bench")
        for kind, reason in (
            ("truncated-ledger", "not valid JSON"),
            ("ledger-list", "top level is an array, not an object"),
            ("ledger-without-entries", "missing field entries"),
            ("entries-integers", "entry 0: is an integer, not an object"),
            ("entry-empty", "entry 0: missing field git_rev"),
            ("entry-unknown-kind",
             "entry 0: field kind is 'fleet', not 'bench' or 'serve'"),
            ("serve-engine-null",
             "entry 0: field engine is null, not a string"),
        )
    ])
    def test_structured_error_and_exit_two(self, tmp_path, capsys,
                                           command, kind, reason):
        path = tmp_path / f"{kind}.json"
        path.write_text(_malformed(kind))
        argv = {"replay": ["replay", str(path)],
                "analyze": ["analyze", "--corpus-dir", str(tmp_path)],
                "ledger": ["ledger", "--path", str(path)],
                "serve": ["serve", "--load", "20", "--ledger", str(path)],
                "bench": ["bench", "--quick", "--jobs", "1",
                          "--ledger", str(path)]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: {reason}")
        # Refused before the workload ran, and the file left as it was.
        assert captured.out == ""
        assert path.read_text() == _malformed(kind)
