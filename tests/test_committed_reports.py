"""The committed ``BENCH_*.json`` reports match what their commands write,
and the analyzer's reports keep their pinned bytes.

``repro chaos`` and ``repro fleet`` with default flags rewrite these
tracked files, so a report left behind by an older tree would dirty the
checkout on the next default run.  Compared as parsed JSON.

``repro analyze --json`` has no committed file, so its bytes are pinned
by digest: a drift in the interval dataflow or the taint analysis that
stays deterministic run to run still moves the digest.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.faults.chaos import run_chaos
from repro.fleet.campaign import run_fleet

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, default_run", [
    ("BENCH_chaos.json", lambda: run_chaos(7, 5)),
    ("BENCH_fleet.json", lambda: run_fleet(7, 3, 3)),
])
def test_committed_report_matches_a_default_run(name, default_run):
    committed = json.loads((ROOT / name).read_text(encoding="utf-8"))
    assert committed == default_run()


@pytest.mark.parametrize("argv, status, digest", [
    # Exit 1 is the verdict: the campaign roster holds attacks.
    (["analyze", "--json"], 1,
     "b62026cd512691834548bf9b40ce1bf40bea28ab6862c1463780f552cad96264"),
    (["analyze", "--corpus-dir", str(ROOT / "tests" / "fuzz" / "corpus"),
      "--json"], 0,
     "5e91736b99513a40a71993511ea78e98d5c97f29a9ead696c488d30629f7e882"),
])
def test_analyze_report_bytes_are_pinned(capsys, argv, status, digest):
    assert main(argv) == status
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest
