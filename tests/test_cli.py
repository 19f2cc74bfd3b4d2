"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_help_without_command(self, capsys):
        assert main([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in (
            "list", "run", "workloads", "technologies", "sep", "campaign", "store", "query",
        ):
            assert command in text


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table4" in output and "fig7" in output

    def test_run_single_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "table42"]) == 1
        assert "unknown" in capsys.readouterr().err

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        output = capsys.readouterr().out
        assert "mm8" in output and "mnist4" in output and "fft64" in output

    def test_technologies(self, capsys):
        assert main(["technologies"]) == 0
        assert "reram" in capsys.readouterr().out

    def test_sep(self, capsys):
        assert main(["sep"]) == 0
        assert "Single error protection: holds" in capsys.readouterr().out

    def test_sep_batched_backend_reproduces_scalar_output(self, capsys):
        assert main(["sep"]) == 0
        scalar = capsys.readouterr().out
        assert main(["sep", "--backend", "batched"]) == 0
        assert capsys.readouterr().out == scalar

    def test_sep_unknown_backend_fails_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            main(["sep", "--backend", "vectorised"])
        err = capsys.readouterr().err
        assert "scalar" in err and "batched" in err

    def test_run_backend_forwarded_to_execution_experiments(self, capsys):
        assert main(["run", "ablation_granularity", "--backend", "batched"]) == 0
        assert "Ablation: check granularity" in capsys.readouterr().out

    def test_run_backend_ignored_for_analytic_experiments(self, capsys):
        assert main(["run", "table1", "--backend", "batched"]) == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out
        assert "analytic" in captured.err


CAMPAIGN_ARGS = [
    "campaign",
    "--workloads", "and2",
    "--rates", "1e-2",
    "--trials", "12",
    "--shard-size", "4",
    "--workers", "0",
    "--quiet",
]


class TestCampaignCommand:
    def test_runs_and_prints_coverage_table(self, capsys):
        assert main(CAMPAIGN_ARGS) == 0
        out = capsys.readouterr().out
        assert "empirical error coverage" in out
        assert "ecim" in out and "trim" in out and "unprotected" in out
        assert "36 trials across 3 cells" in out

    def test_checkpoint_resume_via_cli(self, capsys, tmp_path):
        path = str(tmp_path / "cli.jsonl")
        assert main(CAMPAIGN_ARGS + ["--checkpoint", path]) == 0
        first = capsys.readouterr().out
        assert "9 shards executed, 0 resumed" in first
        assert main(CAMPAIGN_ARGS + ["--checkpoint", path]) == 0
        second = capsys.readouterr().out
        assert "0 shards executed, 9 resumed" in second

    def test_spec_file(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec

        spec = CampaignSpec(
            workloads=("and2",), schemes=("trim",), gate_error_rates=(1e-2,),
            trials=5, shard_size=5, name="from-file",
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        assert main(["campaign", "--spec", str(path), "--workers", "0", "--quiet"]) == 0
        assert "from-file" in capsys.readouterr().out

    def test_invalid_workload_fails_cleanly(self, capsys):
        assert main(["campaign", "--workloads", "nonsense", "--trials", "1", "--quiet"]) == 1
        assert "available workloads" in capsys.readouterr().err

    def test_invalid_spec_file_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"workloads": ["and2"], "gpu_count": 8}')
        assert main(["campaign", "--spec", str(path), "--quiet"]) == 1
        assert "invalid campaign spec" in capsys.readouterr().err

    def test_backend_flag_selects_batched(self, capsys):
        assert main(CAMPAIGN_ARGS + ["--backend", "batched"]) == 0
        assert "36 trials across 3 cells" in capsys.readouterr().out

    def test_engine_flag_is_a_deprecated_alias(self, capsys):
        with pytest.deprecated_call():
            assert main(CAMPAIGN_ARGS + ["--engine", "batched"]) == 0
        assert "36 trials across 3 cells" in capsys.readouterr().out

    def test_conflicting_backend_and_engine_fail(self, capsys):
        with pytest.deprecated_call():
            assert main(
                CAMPAIGN_ARGS + ["--backend", "scalar", "--engine", "batched"]
            ) == 1
        assert "conflicting flags" in capsys.readouterr().err

    def test_unknown_backend_fails_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            main(["campaign", "--backend", "vectorised", "--quiet"])
        err = capsys.readouterr().err
        assert "scalar" in err and "batched" in err

    def test_faults_per_trial_flag(self, capsys):
        assert main([
            "campaign", "--workloads", "and2", "--rates", "1e-3",
            "--trials", "12", "--shard-size", "6", "--workers", "0",
            "--faults-per-trial", "2", "--quiet",
        ]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_fault_model_flag(self, capsys):
        assert main([
            "campaign", "--workloads", "and2", "--rates", "5e-3",
            "--trials", "12", "--shard-size", "6", "--workers", "0",
            "--backend", "batched", "--fault-model", "burst:length=3,window=6",
            "--quiet",
        ]) == 0
        assert "coverage" in capsys.readouterr().out

    def test_invalid_fault_model_fails_cleanly(self, capsys):
        assert main([
            "campaign", "--workloads", "and2", "--trials", "4",
            "--fault-model", "gaussian:sigma=2", "--quiet",
        ]) == 1
        assert "invalid campaign spec" in capsys.readouterr().err

    def test_fault_model_flag_applies_on_top_of_spec_file(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec

        spec = CampaignSpec(
            workloads=("and2",), schemes=("ecim",), gate_error_rates=(5e-3,),
            trials=6, shard_size=6, name="spec-fault-model-override",
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        overridden_hash = CampaignSpec.from_dict(
            {**spec.to_dict(), "fault_model": "stuck-at:cells=3,value=1"}
        ).spec_hash()
        assert main([
            "campaign", "--spec", str(path), "--workers", "0", "--quiet",
            "--fault-model", "stuckat:cells=3,polarity=1",
        ]) == 0
        assert overridden_hash in capsys.readouterr().out

    def test_backend_flag_overrides_spec_file(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec

        spec = CampaignSpec(
            workloads=("and2",), schemes=("ecim",), gate_error_rates=(1e-2,),
            trials=8, shard_size=8, name="spec-backend-override",
        )
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        batched_hash = CampaignSpec.from_dict(
            {**spec.to_dict(), "backend": "batched"}
        ).spec_hash()
        assert main(
            ["campaign", "--spec", str(path), "--backend", "batched",
             "--workers", "0", "--quiet"]
        ) == 0
        # The run reports the batched spec hash, proving the override applied.
        assert batched_hash in capsys.readouterr().out


class TestStoreAndQueryCommands:
    def run_campaign_with_db(self, tmp_path, extra=()):
        db = str(tmp_path / "results.sqlite")
        checkpoint = str(tmp_path / "ck.jsonl")
        args = CAMPAIGN_ARGS + ["--db", db, "--checkpoint", checkpoint] + list(extra)
        assert main(args) == 0
        return db, checkpoint

    def test_campaign_db_then_query_table(self, capsys, tmp_path):
        db, _checkpoint = self.run_campaign_with_db(tmp_path)
        capsys.readouterr()
        assert main(["query", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out and "silent_corruption_rate" in out
        assert "ecim" in out and "trim" in out and "unprotected" in out

    def test_store_ingest_is_idempotent_after_live_recording(self, capsys, tmp_path):
        db, checkpoint = self.run_campaign_with_db(tmp_path)
        capsys.readouterr()
        assert main(["store", "ingest", "--db", db, checkpoint]) == 0
        out = capsys.readouterr().out
        assert "0 new shard(s)" in out
        assert "9 duplicate(s)" in out

    def test_query_json_matches_live_campaign_aggregates(self, capsys, tmp_path):
        import json

        from repro.campaign import CampaignSpec, run_campaign

        db, _checkpoint = self.run_campaign_with_db(tmp_path)
        capsys.readouterr()
        assert main(["query", "--db", db, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        spec = CampaignSpec(
            workloads=("and2",), gate_error_rates=(1e-2,), trials=12,
            shard_size=4, name="cli-campaign",
        )
        result = run_campaign(spec, workers=0)
        reports = {
            r.cell.scheme: r
            for r in result.reports
        }
        assert len(rows) == 3
        for row in rows:
            report = reports[row["scheme"]]
            assert row["trials"] == report.trials
            assert row["coverage"] == report.coverage
            assert (row["coverage_ci_low"], row["coverage_ci_high"]) == report.coverage_interval
            assert row["silent_corruption_rate"] == report.silent_corruption_rate

    def test_query_filters_and_group_by(self, capsys, tmp_path):
        import json

        db, _checkpoint = self.run_campaign_with_db(tmp_path)
        capsys.readouterr()
        assert main([
            "query", "--db", db, "--scheme", "ecim", "--min-error-rate", "1e-3",
            "--group-by", "scheme", "--format", "json",
        ]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["scheme"] for row in rows] == ["ecim"]
        assert rows[0]["trials"] == 12

    def test_query_bad_group_by_fails_cleanly(self, capsys, tmp_path):
        db, _checkpoint = self.run_campaign_with_db(tmp_path)
        capsys.readouterr()
        assert main(["query", "--db", db, "--group-by", "favourite_colour"]) == 1
        assert "cannot group by" in capsys.readouterr().err

    def test_store_campaigns_lists_recorded_campaign(self, capsys, tmp_path):
        db, _checkpoint = self.run_campaign_with_db(tmp_path)
        capsys.readouterr()
        assert main(["store", "campaigns", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "cli-campaign" in out and "spec_hash" in out

    def test_store_ingest_with_spec_file(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec

        db, checkpoint = self.run_campaign_with_db(tmp_path)
        spec = CampaignSpec(
            workloads=("and2",), gate_error_rates=(1e-2,), trials=12,
            shard_size=4, name="cli-campaign",
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json())
        fresh_db = str(tmp_path / "fresh.sqlite")
        capsys.readouterr()
        assert main([
            "store", "ingest", "--db", fresh_db, checkpoint, "--spec", str(spec_path),
        ]) == 0
        assert "9 new shard(s)" in capsys.readouterr().out

    def test_store_ingest_missing_file_fails_cleanly(self, capsys, tmp_path):
        db = str(tmp_path / "results.sqlite")
        assert main(["store", "ingest", "--db", db, str(tmp_path / "nope.jsonl")]) == 1
        assert "ingest failed" in capsys.readouterr().err

    def test_bare_store_prints_help(self, capsys):
        assert main(["store"]) == 0
        assert "ingest" in capsys.readouterr().out

    def test_query_empty_store_reports_no_matches(self, capsys, tmp_path):
        db = str(tmp_path / "empty.sqlite")
        assert main(["query", "--db", db]) == 0
        assert "no matching cells" in capsys.readouterr().err


class TestMultiFaultSweepCommand:
    def test_max_faults_table(self, capsys):
        assert main(["sep", "--max-faults", "2", "--backend", "batched"]) == 0
        output = capsys.readouterr().out
        assert "Multi-fault sweep" in output
        assert "ecim/hamming" in output and "ecim/bch-t2" in output
        assert "budget: holds" in output

    def test_max_faults_k1_rows_match_single_fault_sweep(self, capsys):
        from repro.core.backend import make_backend
        from repro.core.sep import (
            and_gate_example_netlist,
            exhaustive_single_fault_injection,
        )

        netlist = and_gate_example_netlist()
        inputs = {signal: 1 for signal in netlist.inputs}
        single = exhaustive_single_fault_injection(
            make_backend("batched", netlist, "ecim"), inputs
        )
        assert main(["sep", "--max-faults", "2", "--backend", "batched"]) == 0
        output = capsys.readouterr().out
        k1_row = next(
            line for line in output.splitlines()
            if line.startswith("ecim/hamming") and line.split()[1] == "1"
        )
        columns = k1_row.split()
        assert int(columns[2]) == single.total_sites
        assert int(columns[3]) == single.protected_sites

    def test_max_faults_rejects_nonpositive(self, capsys):
        assert main(["sep", "--max-faults", "0"]) == 1
        assert "--max-faults" in capsys.readouterr().err

    def test_default_still_prints_fig6(self, capsys):
        assert main(["sep"]) == 0
        assert "Fig. 6" in capsys.readouterr().out
