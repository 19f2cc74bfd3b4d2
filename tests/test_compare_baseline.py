"""Tests for the CI perf-baseline gate (``benchmarks/compare_baseline.py``).

The gate script is deliberately free of repo imports (pure JSON), so these
tests load it by file path and drive both the comparison core and the CLI
against synthetic pytest-benchmark result files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "compare_baseline.py"
_spec = importlib.util.spec_from_file_location("compare_baseline", _SCRIPT)
compare_baseline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_baseline)


def results_file(tmp_path, medians, name="results.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {"fullname": key, "stats": {"median": value}}
                    for key, value in medians.items()
                ]
            }
        )
    )
    return path


class TestCompare:
    def test_within_threshold_passes(self):
        rows, failed = compare_baseline.compare({"a": 1.2}, {"a": 1.0}, threshold=0.30)
        assert not failed
        assert rows[0][4] == "ok"

    def test_synthetic_regression_fails(self):
        # The acceptance case: a median 31% over baseline must fail the gate.
        rows, failed = compare_baseline.compare({"a": 1.31}, {"a": 1.0}, threshold=0.30)
        assert failed
        assert rows[0][4] == "REGRESSED"
        assert rows[0][3] == pytest.approx(0.31)

    def test_speedup_never_fails(self):
        rows, failed = compare_baseline.compare({"a": 0.1}, {"a": 1.0}, threshold=0.30)
        assert not failed

    def test_missing_benchmark_fails(self):
        rows, failed = compare_baseline.compare({}, {"a": 1.0}, threshold=0.30)
        assert failed
        assert rows[0][4] == "MISSING"

    def test_new_benchmark_is_reported_not_failed(self):
        rows, failed = compare_baseline.compare({"b": 1.0}, {}, threshold=0.30)
        assert not failed
        assert rows[0][4] == "new"


class TestCli:
    def test_passing_run_exits_zero_and_writes_delta(self, tmp_path):
        results = results_file(tmp_path, {"bench::x": 1.0})
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"bench::x": 0.9}))
        delta = tmp_path / "delta.txt"
        code = compare_baseline.main(
            [str(results), "--baseline", str(baseline), "--output", str(delta)]
        )
        assert code == 0
        assert "bench::x" in delta.read_text()

    def test_regressed_run_exits_one(self, tmp_path, capsys):
        results = results_file(tmp_path, {"bench::x": 2.0})
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"bench::x": 1.0}))
        code = compare_baseline.main([str(results), "--baseline", str(baseline)])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "+100.0%" in out

    def test_threshold_flag_is_respected(self, tmp_path):
        results = results_file(tmp_path, {"bench::x": 2.0})
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"bench::x": 1.0}))
        code = compare_baseline.main(
            [str(results), "--baseline", str(baseline), "--threshold", "1.5"]
        )
        assert code == 0

    def test_write_regenerates_the_baseline(self, tmp_path):
        results = results_file(tmp_path, {"bench::x": 1.5, "bench::y": 0.25})
        baseline = tmp_path / "baseline.json"
        code = compare_baseline.main([str(results), "--baseline", str(baseline), "--write"])
        assert code == 0
        assert json.loads(baseline.read_text()) == {"bench::x": 1.5, "bench::y": 0.25}
        # And the written baseline round-trips as a passing comparison.
        assert compare_baseline.main([str(results), "--baseline", str(baseline)]) == 0

    def test_absent_baseline_is_a_distinct_error(self, tmp_path):
        results = results_file(tmp_path, {"bench::x": 1.0})
        code = compare_baseline.main(
            [str(results), "--baseline", str(tmp_path / "nope.json")]
        )
        assert code == 2

    def test_repo_baseline_tracks_the_real_suite(self):
        # The pinned baseline must cover the six benchmark files CI runs.
        baseline = json.loads((_SCRIPT.parent / "baseline.json").read_text())
        files = {name.split("::")[0] for name in baseline}
        assert files == {
            "benchmarks/test_bench_sep_throughput.py",
            "benchmarks/test_bench_batched_throughput.py",
            "benchmarks/test_bench_bitpacked_throughput.py",
            "benchmarks/test_bench_multifault_sweep.py",
            "benchmarks/test_bench_rng.py",
            "benchmarks/test_bench_fault_path.py",
        }
