"""The serve report's determinism contract, compared at the byte level.

``repro.serve/1`` payloads are a pure function of ``(seed, load,
config)``: sharding across workers, rerunning with the same seed, or
routing through the CLI must all emit identical bytes.  Wall-clock lives
only in the stderr timing summary.
"""

from __future__ import annotations

import json

from repro.__main__ import main
from repro.serve.load import run_serve
from tests.sharded import run_serve_sharded


def _canonical(report: dict) -> bytes:
    return json.dumps(report, indent=2, sort_keys=True).encode()


class TestReportDeterminism:
    def test_double_run_same_seed_is_byte_identical(self):
        first = run_serve(91, 60, cell_size=20)
        second = run_serve(91, 60, cell_size=20)
        assert _canonical(first) == _canonical(second)

    def test_jobs_two_matches_sequential_byte_for_byte(self):
        sequential, seq_timing = run_serve_sharded(91, 60, jobs=1,
                                                   cell_size=20)
        parallel, par_timing = run_serve_sharded(91, 60, jobs=2,
                                                 cell_size=20)
        assert _canonical(sequential) == _canonical(parallel)
        assert seq_timing["mode"] == "sequential"
        assert par_timing["mode"] == "parallel"

    def test_no_wall_clock_leaks_into_the_payload(self):
        report = run_serve(91, 40, cell_size=20)
        text = json.dumps(report)
        assert "wall" not in text
        assert "seconds" not in text

    def test_single_cell_load_falls_back_to_sequential(self):
        report, timing = run_serve_sharded(91, 10, jobs=4, cell_size=20)
        assert timing["mode"] == "sequential"
        assert report["cells"] == 1
        assert report["requests"] == 10


class TestCliDeterminism:
    def test_json_stdout_identical_across_jobs(self, capsys):
        argv = ["serve", "--load", "60", "--seed", "91",
                "--cell-size", "20", "--json"]
        assert main(argv + ["--jobs", "1"]) == 0
        first = capsys.readouterr()
        assert main(argv + ["--jobs", "2"]) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        # stdout parses as pure JSON; timing goes to stderr.
        payload = json.loads(first.out)
        assert payload["schema"] == "repro.serve/1"
        assert "requests/s" in first.err
        assert "requests/s" in second.err

    def test_json_stdout_identical_across_reruns(self, capsys):
        argv = ["serve", "--load", "40", "--seed", "91",
                "--cell-size", "20", "--jobs", "1", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
