"""Registry/`--quick` determinism and the `repro bench` CLI exit codes."""

import json

import pytest

from repro.bench.artifact import load_artifact
from repro.bench.suites import (
    MACRO_MODELS,
    SUITES,
    all_benchmarks,
    get_benchmark,
)
from repro.cli import main

from tests.bench.test_bench_artifact import synthetic_artifact


class TestRegistry:
    def test_suites_partition_the_registry(self):
        names = {bench.name for bench in all_benchmarks("all")}
        by_suite = [
            {bench.name for bench in all_benchmarks(suite)} for suite in SUITES
        ]
        assert set.union(*by_suite) == names
        assert not set.intersection(*by_suite)

    def test_micro_suite_covers_the_hot_primitives(self):
        names = {bench.name for bench in all_benchmarks("micro")}
        for expected in (
            "micro.predicate_eval",
            "micro.ccr_commit_sweep",
            "micro.store_buffer_search",
            "micro.bundle_issue",
            "micro.region_schedule",
        ):
            assert expected in names

    def test_macro_suite_covers_every_model_cell(self):
        names = {bench.name for bench in all_benchmarks("macro")}
        for model in MACRO_MODELS:
            assert f"macro.compress.{model}" in names
        assert "macro.compress.interpreter" in names
        assert "macro.compress.scalar" in names
        assert "macro.compress.compile" in names
        assert "macro.ckpt_snapshot" in names

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            all_benchmarks("nano")

    def test_filter_substring(self):
        matched = all_benchmarks("all", filter_substring="_search")
        assert {bench.name for bench in matched} == {
            "micro.store_buffer_search",
        }

    def test_get_benchmark(self):
        assert get_benchmark("micro.predicate_eval").suite == "micro"
        with pytest.raises(KeyError):
            get_benchmark("micro.missing")


class TestQuickDeterminism:
    """`--quick` must be a fixed per-benchmark iteration plan, not a
    runtime heuristic -- two quick runs of the same tree must record
    identical iteration counts."""

    def test_every_benchmark_has_a_fixed_quick_plan(self):
        for bench in all_benchmarks("all"):
            assert bench.quick_iterations >= 1
            assert bench.quick_iterations <= bench.iterations
            assert bench.quick_warmup <= bench.warmup

    def test_quick_run_uses_the_declared_counts(self):
        bench = get_benchmark("micro.predicate_eval")
        measurement = bench.run(quick=True)
        assert measurement.iterations == bench.quick_iterations
        assert measurement.warmup == bench.quick_warmup
        assert len(measurement.raw_ns) == bench.quick_iterations

    def test_quick_work_matches_full_length_work(self):
        # quick trims samples, never the simulated work per iteration.
        bench = get_benchmark("micro.predicate_eval")
        quick = bench.run(quick=True)
        full_body = bench.setup()
        assert full_body() == quick.work_per_iteration


class TestCliRun:
    def test_quick_filtered_run_writes_valid_artifact(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert (
            main(
                ["bench", "run", "--suite", "micro", "--quick",
                 "--filter", "predicate_eval", "--json", str(out)]
            )
            == 0
        )
        assert "micro.predicate_eval" in capsys.readouterr().out
        document = load_artifact(out)  # validates the schema
        assert document["quick"] is True
        record = document["benchmarks"]["micro.predicate_eval"]
        assert record["iterations"] == (
            get_benchmark("micro.predicate_eval").quick_iterations
        )

    def test_no_match_exits_2(self, capsys):
        assert main(["bench", "run", "--filter", "no-such-bench"]) == 2
        assert "no benchmarks match" in capsys.readouterr().err


class TestCliCompare:
    def _write(self, path, medians, **kwargs):
        path.write_text(json.dumps(synthetic_artifact(medians, **kwargs)))
        return str(path)

    def test_injected_regression_exits_1(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"a": 1e6, "b": 1e6})
        new = self._write(tmp_path / "new.json", {"a": 1.25e6, "b": 1e6})
        assert main(["bench", "compare", old, new]) == 1
        out = capsys.readouterr().out
        assert "regression" in out
        assert "+25.0%" in out

    def test_within_noise_exits_0(self, tmp_path):
        old = self._write(tmp_path / "old.json", {"a": 1e6})
        new = self._write(tmp_path / "new.json", {"a": 1.05e6})
        assert main(["bench", "compare", old, new]) == 0

    def test_improvement_exits_0(self, tmp_path):
        old = self._write(tmp_path / "old.json", {"a": 1e6})
        new = self._write(tmp_path / "new.json", {"a": 0.5e6})
        assert main(["bench", "compare", old, new]) == 0

    def test_threshold_flag_moves_the_gate(self, tmp_path):
        old = self._write(tmp_path / "old.json", {"a": 1e6})
        new = self._write(tmp_path / "new.json", {"a": 1.15e6})
        assert main(["bench", "compare", old, new]) == 1
        assert (
            main(["bench", "compare", old, new, "--threshold", "0.20"]) == 0
        )

    def test_warn_only_reports_but_exits_0(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"a": 1e6})
        new = self._write(tmp_path / "new.json", {"a": 2e6})
        assert main(["bench", "compare", old, new, "--warn-only"]) == 0
        assert "regression" in capsys.readouterr().out

    def test_invalid_artifact_exits_2(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"a": 1e6})
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        assert main(["bench", "compare", old, str(broken)]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_bad_threshold_exits_2(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"a": 1e6})
        assert (
            main(["bench", "compare", old, old, "--threshold", "1.5"]) == 2
        )
        assert "threshold" in capsys.readouterr().err
