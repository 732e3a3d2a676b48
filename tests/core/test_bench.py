"""Unit tests for the ``repro bench`` harness (repro.core.bench)."""

import json

import pytest

from repro.core import bench
from repro.core.bench import (
    BENCH_SCHEMA,
    BenchResult,
    interpreter_mode,
    run_benchmark,
    suite_report,
    write_report,
)
from repro.hw.core import Core
from repro.__main__ import main


class TestInterpreterMode:
    def test_toggles_and_restores_class_default(self):
        original = Core.fast_path
        with interpreter_mode(False):
            assert Core.fast_path is False
        assert Core.fast_path is original

    def test_restores_on_exception(self):
        original = Core.fast_path
        try:
            with interpreter_mode(not original):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert Core.fast_path is original


class TestRunBenchmark:
    def test_alu_loop_is_deterministic_and_equivalent(self):
        result = run_benchmark("alu_loop", "guillotine", bench._alu_loop, 200)
        assert result.deterministic
        assert result.cycles_match_slow
        assert result.passed
        assert result.steps > 200  # at least one step per iteration
        assert result.cycles > 0
        assert 0.0 < result.decoded_hit_rate < 1.0

    def test_baseline_machine_row(self):
        result = run_benchmark("alu_loop", "baseline", bench._alu_loop, 200)
        assert result.passed
        assert result.machine == "baseline"

    def test_memory_stride_row(self):
        result = run_benchmark("memory_stride", "guillotine",
                               bench._memory_stride, 150)
        assert result.passed

    def test_doorbell_flood_row(self):
        result = run_benchmark("doorbell_flood", "baseline",
                               bench._doorbell_flood, 50)
        assert result.passed


class TestSuiteReport:
    def _results(self):
        return [
            BenchResult(name="a", machine="guillotine", steps=1000,
                        cycles=4000, wall_seconds=0.5, slow_wall_seconds=2.0,
                        deterministic=True, cycles_match_slow=True,
                        decoded_hit_rate=0.9),
            BenchResult(name="b", machine="baseline", steps=500,
                        cycles=1000, wall_seconds=0.5, slow_wall_seconds=1.0,
                        deterministic=True, cycles_match_slow=False,
                        decoded_hit_rate=0.8),
        ]

    def test_totals_and_schema(self):
        report = suite_report(self._results(), quick=True)
        assert report["schema"] == BENCH_SCHEMA
        assert report["quick"] is True
        totals = report["totals"]
        assert totals["steps"] == 1500
        assert totals["cycles"] == 5000
        assert totals["steps_per_second"] == 1500.0
        assert totals["speedup"] == 3.0
        assert totals["all_deterministic"] is True
        assert totals["all_cycles_match"] is False

    def test_result_properties(self):
        result = self._results()[0]
        assert result.steps_per_second == 2000.0
        assert result.cycles_per_second == 8000.0
        assert result.speedup == 4.0
        assert result.passed

    def test_write_report_round_trips(self, tmp_path):
        path = tmp_path / "BENCH_hw.json"
        report = suite_report(self._results(), quick=False)
        write_report(report, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(report))


class TestBatchBench:
    def test_legs_bit_identical(self):
        scalar = bench.run_batch_one(0, 4, 500, "scalar")
        batch = bench.run_batch_one(0, 4, 500, "batch")
        result = bench.combine_batch_samples(scalar, batch)
        assert result.bit_identical
        assert result.mismatched_lanes == ()
        # The suite kernels never halt: every lane burns its full budget.
        assert result.guest_steps == 4 * 500
        assert result.stats["lanes"] == 4
        assert result.speedup > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            bench.run_batch_one(0, 2, 10, "warp")

    def test_combine_flags_mismatched_lane(self):
        scalar = bench.run_batch_one(1, 2, 300, "scalar")
        batch = bench.run_batch_one(1, 2, 300, "batch")
        batch["lanes"][1]["registers"][5] ^= 1
        result = bench.combine_batch_samples(scalar, batch)
        assert not result.bit_identical
        assert result.mismatched_lanes == (1,)

    def test_noninterference_lanes_stay_variant_dependent(self):
        """Regression: the noninterference kernel must not collapse to a
        variant-independent fixed point — each secret fill has to leave
        its own register trajectory, or 'different-data replicas' is a
        lie (an earlier kernel converged every lane to r2 = -3)."""
        unit = bench.run_batch_one(2, 4, 4000, "scalar")
        regs = [tuple(lane["registers"]) for lane in unit["lanes"]]
        assert len(set(regs)) == 4

    def test_batch_section_totals(self):
        results = bench.run_batch_suite(2, quick=True)
        section = bench.batch_section(results, 2)
        assert section["batch"] == 2
        assert len(section["rows"]) == len(bench.BATCH_SUITE)
        totals = section["totals"]
        assert totals["all_bit_identical"] is True
        assert totals["aggregate_speedup"] > 0
        assert totals["guest_steps"] == sum(
            row["guest_steps"] for row in section["rows"])

    def test_suite_report_embeds_batch_section(self):
        rows = [
            BenchResult(name="a", machine="guillotine", steps=1000,
                        cycles=4000, wall_seconds=0.5,
                        slow_wall_seconds=2.0, deterministic=True,
                        cycles_match_slow=True, decoded_hit_rate=0.9),
        ]
        batch_results = bench.run_batch_suite(1, quick=True)
        report = suite_report(rows, quick=True,
                              batch_results=batch_results, batch=1)
        assert report["batch"]["batch"] == 1
        assert len(report["batch"]["rows"]) == len(bench.BATCH_SUITE)
        plain = suite_report(rows, quick=True)
        assert plain["batch"] is None


class TestBenchCli:
    TINY_SUITE = (
        ("alu_loop", "guillotine", bench._alu_loop, 300, 100),
    )

    def test_quick_run_writes_report_and_exits_zero(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.setattr(bench, "SUITE", self.TINY_SUITE)
        out = tmp_path / "BENCH_hw.json"
        ledger = tmp_path / "BENCH_ledger.json"
        assert main(["bench", "--quick", "--out", str(out),
                     "--ledger", str(ledger)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == BENCH_SCHEMA
        assert report["quick"] is True
        assert report["traces"] is True
        assert report["totals"]["all_deterministic"] is True
        assert report["totals"]["all_cycles_match"] is True
        assert len(json.loads(ledger.read_text())["entries"]) == 1
        assert "TOTAL" in capsys.readouterr().out

    def test_no_report_without_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "SUITE", self.TINY_SUITE)
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--quick", "--jobs", "1"]) == 0
        assert "TOTAL" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_batch_flag_runs_the_lockstep_suite(self, tmp_path,
                                                monkeypatch, capsys):
        monkeypatch.setattr(bench, "SUITE", self.TINY_SUITE)
        out = tmp_path / "BENCH_hw.json"
        ledger = tmp_path / "BENCH_ledger.json"
        assert main(["bench", "--quick", "--batch", "2", "--jobs", "1",
                     "--out", str(out), "--ledger", str(ledger)]) == 0
        report = json.loads(out.read_text())
        assert report["batch"]["batch"] == 2
        assert report["batch"]["totals"]["all_bit_identical"] is True
        entry = json.loads(ledger.read_text())["entries"][-1]
        assert entry["batch"] == 2
        assert entry["batch_bit_identical"] is True
        assert "AGGREGATE" in capsys.readouterr().out

    def test_batch_must_be_positive(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench, "SUITE", self.TINY_SUITE)
        out = str(tmp_path / "BENCH_hw.json")
        # --batch 0 turns the batch suite off.
        assert main(["bench", "--quick", "--batch", "0", "--out", out]) == 0
        assert json.loads(open(out).read())["batch"] is None
        assert main(["bench", "--quick", "--batch", "-3", "--out", out]) == 2

    def test_cycle_mismatch_fails_the_run(self, tmp_path, monkeypatch,
                                          capsys):
        def broken_runner(machine_name, iterations):
            # A runner whose cycle count depends on the interpreter mode —
            # exactly the bug class the harness exists to catch.
            sample = bench._alu_loop(machine_name, iterations)
            if not Core.fast_path:
                sample.cycles += 1
            return sample

        monkeypatch.setattr(
            bench, "SUITE",
            (("broken", "guillotine", broken_runner, 100, 100),))
        out = tmp_path / "BENCH_hw.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "diverged" in captured.err
