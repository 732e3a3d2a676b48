"""The committed ``BENCH_*.json`` reports match what their commands write.

``repro chaos`` and ``repro fleet`` with default flags rewrite these
tracked files, so a report left behind by an older tree would dirty the
checkout on the next default run.  Compared as parsed JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

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
