"""Tests for the experiment registry (one runner per table/figure)."""

import numpy as np
import pytest

from repro.errors import UnknownExperimentError
from repro.eval.experiments import (
    EXPERIMENTS,
    available_experiments,
    experiment_fig6,
    experiment_fig7,
    experiment_fig8,
    experiment_fig9,
    experiment_table1,
    experiment_table2,
    experiment_table3,
    experiment_table4,
    experiment_table5,
    run_experiment,
)

# Small benchmark subset so the experiment tests stay quick.
SUBSET = ("mm8", "mnist1", "fft8")


class TestRegistry:
    def test_every_table_and_figure_has_an_experiment(self):
        for experiment_id in ("table1", "table2", "table3", "table4", "table5", "fig6", "fig7", "fig8", "fig9"):
            assert experiment_id in EXPERIMENTS

    def test_ablations_registered(self):
        assert "ablation_granularity" in EXPERIMENTS
        assert "ablation_partitions" in EXPERIMENTS
        assert "ablation_codes" in EXPERIMENTS

    def test_campaign_registered(self):
        assert "campaign" in EXPERIMENTS

    def test_multifault_registered(self):
        assert "multifault" in EXPERIMENTS

    def test_available_experiments_sorted(self):
        assert available_experiments() == sorted(available_experiments())

    def test_run_experiment_dispatch(self):
        result = run_experiment("table1")
        assert "rendered" in result

    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperimentError):
            run_experiment("table99")


class TestTableExperiments:
    def test_table1_matches_paper(self):
        result = experiment_table1()
        assert [r["out"] for r in result["rows"]] == [0, 1, 1, 0]
        assert [r["out"] for r in result["two_step_rows"]] == [0, 1, 1, 0]
        assert "Table I" in result["rendered"]

    def test_table2_design_points(self):
        result = experiment_table2(n_outputs=128)
        assert len(result["points"]) == 4
        assert result["n_outputs"] == 128

    def test_table3_lists_three_technologies(self):
        result = experiment_table3()
        assert len(result["rows"]) == 3
        assert {row["technology"] for row in result["rows"]} == {"stt", "sot", "reram"}

    def test_table4_reclaim_shape(self):
        result = experiment_table4(benchmarks=SUBSET)
        reclaims = result["reclaims"]
        assert set(reclaims) == set(SUBSET)
        for name in SUBSET:
            assert reclaims[name]["trim"] > reclaims[name]["ecim"]
        # Growth with problem scale: the MLP dwarfs the small matmul.
        assert reclaims["mnist1"]["ecim"] > reclaims["mm8"]["ecim"]

    def test_table5_energy_shape(self):
        result = experiment_table5(benchmarks=("mm8",))
        row = result["energy_overhead"]["mm8"]
        assert len(row) == 12  # 2 schemes x 3 technologies x 2 gate styles
        for tech in ("reram", "stt", "sot"):
            assert row[f"ecim/{tech}/s-o"] > row[f"ecim/{tech}/m-o"]
            assert row[f"trim/{tech}/s-o"] > row[f"trim/{tech}/m-o"]
            assert row[f"trim/{tech}/m-o"] < row[f"ecim/{tech}/m-o"]


class TestFigureExperiments:
    def test_fig6_sep_holds(self):
        result = experiment_fig6()
        assert result["backend"] == "scalar"
        assert result["ecim_sep"] is True
        assert result["trim_sep"] is True
        assert result["ecim_protected"] == result["ecim_sites"]
        assert result["error_escapes_without_checks"] is True

    def test_fig6_batched_backend_reproduces_scalar_artefact(self):
        # The acceptance criterion: per-site outcome equality means the whole
        # rendered Fig. 6 case table is identical across backends.
        scalar = experiment_fig6(backend="scalar")
        batched = experiment_fig6(backend="batched")
        assert batched["case_table"] == scalar["case_table"]
        assert batched["rendered"] == scalar["rendered"]
        for key in ("ecim_sites", "ecim_protected", "trim_sites", "trim_protected"):
            assert batched[key] == scalar[key]

    def test_fig7_time_overheads_in_band(self):
        result = experiment_fig7(benchmarks=SUBSET)
        for series in result["time_overhead_percent"].values():
            assert len(series) == len(SUBSET)
            assert all(0.0 <= value < 100.0 for value in series)

    def test_fig8_parity_series(self):
        result = experiment_fig8()
        assert [r["parity_bits"] for r in result["rows"]][:4] == [8, 16, 24, 32]
        assert result["hamming_parity_bits"] == 8

    def test_fig9_curves(self):
        result = experiment_fig9()
        parallel = [p for p in result["noise_margins"] if p.topology == "parallel"]
        assert len(parallel) == 10
        assert all(p.feasible for p in parallel)
        assert len(result["bias_voltages"]["v_high_parallel"]) == 10


class TestAblationExperiments:
    def test_granularity_ablation(self):
        result = run_experiment("ablation_granularity")
        assert result["logic_level_protected"] == result["logic_level_sites"]
        assert result["circuit_granularity_escapes"] is True

    def test_partition_ablation_monotone(self):
        result = run_experiment("ablation_partitions", block_counts=(1, 2, 4))
        drains = [row[2] for row in result["rows"]]
        assert drains == sorted(drains, reverse=True)

    def test_codes_ablation_monotone(self):
        result = run_experiment("ablation_codes", benchmarks=("mm16",), t_values=(1, 2))
        overheads = result["results"]["mm16"]
        assert overheads[2] > overheads[1]

    def test_coverage_extension_experiment(self):
        result = run_experiment("coverage", benchmark="mm8", gate_error_rates=(1e-5, 1e-3))
        assert result["n_levels"] > 0
        assert "empirical_rows" not in result  # analytic-only by default
        for row in result["rows"]:
            assert row["survival_t1"] <= row["survival_t3"]

    def test_coverage_empirical_complement_with_backend(self):
        result = run_experiment(
            "coverage",
            benchmark="mm8",
            gate_error_rates=(1e-4, 1e-3),
            backend="batched",
            empirical_trials=120,
        )
        rows = result["empirical_rows"]
        assert [row["gate_error_rate"] for row in rows] == [1e-4, 1e-3]
        assert all(0.0 <= row["coverage"] <= 1.0 for row in rows)
        assert "Empirical complement" in result["rendered"]


class TestRenderedOutput:
    @pytest.mark.parametrize("experiment_id", ["table1", "table2", "table3", "fig8", "fig9"])
    def test_rendered_output_nonempty(self, experiment_id):
        result = run_experiment(experiment_id)
        assert isinstance(result["rendered"], str)
        assert len(result["rendered"].splitlines()) >= 3


class TestCampaignExperiment:
    def test_small_campaign(self):
        result = run_experiment(
            "campaign",
            workloads=("and2",),
            gate_error_rates=(1e-2,),
            trials=20,
            shard_size=10,
            seed=5,
        )
        assert result["summary"]["total_trials"] == 20 * 3  # three schemes
        assert len(result["cells"]) == 3
        for cell in result["cells"].values():
            low, high = cell["coverage_interval"]
            assert low <= cell["coverage"] <= high
        assert "empirical error coverage" in result["rendered"]

    def test_campaign_experiment_is_deterministic(self):
        kwargs = dict(workloads=("and2",), gate_error_rates=(1e-2,), trials=15, seed=3)
        assert (
            run_experiment("campaign", **kwargs)["cells"]
            == run_experiment("campaign", **kwargs)["cells"]
        )


class TestRareEventExperiment:
    def test_importance_gain_at_1e5(self):
        result = run_experiment("rare_event", trials=2000, shard_size=1000)
        rows = result["estimators"]
        assert set(rows) == {"uniform", "importance", "stratified"}
        importance = rows["importance"]
        assert 0.0 < importance["estimate"] < 1e-4
        assert importance["halfwidth"] > 0.0
        # The tentpole demo claim: >= 10x cheaper than uniform Monte Carlo.
        assert result["efficiency_gain"] >= 10.0
        assert result["uniform_equivalent_trials"] >= 10 * result["trials"]
        assert "Rare-event estimators" in result["rendered"]

    def test_registered(self):
        assert "rare_event" in EXPERIMENTS


class TestMultifaultExperiment:
    def test_per_k_coverage_table(self):
        from repro.eval.experiments import experiment_multifault

        result = experiment_multifault(workload="and2", max_faults=2, backend="batched")
        assert result["budget_violations"] == 0
        hamming = result["coverage_rows"]["ecim/hamming"]
        bch = result["coverage_rows"]["ecim/bch-t2"]
        assert [row["k"] for row in hamming] == [1, 2]
        # k = 1: full coverage on both schemes (the classic SEP guarantee).
        assert hamming[0]["coverage"] == bch[0]["coverage"] == 1.0
        # k = 2: the Hamming budget breaks, BCH t=2 restores full coverage.
        assert hamming[1]["coverage"] < 1.0
        assert bch[1]["coverage"] == 1.0
        assert bch[1]["sep_guaranteed"] == bch[1]["combinations"]
        assert "Multi-fault sweep" in result["rendered"]


class TestBurstExperiment:
    def test_burst_sweep_rows_and_series(self):
        from repro.eval.experiments import experiment_burst

        result = experiment_burst(
            workload="dot2",
            schemes=("ecim", "trim"),
            burst_lengths=(1, 3),
            gate_error_rate=5e-3,
            trials=120,
            seed=2,
            backend="batched",
        )
        assert result["burst_lengths"] == [1, 3]
        rows = result["rows"]
        assert len(rows) == 4  # two schemes x two lengths
        for row in rows:
            assert 0.0 <= row["silent_corruption_rate"] <= 1.0
            assert row["counts"]["trials"] == 120
            assert row["counts"]["faults_injected"] > 0
        assert "Burst sweep" in result["rendered"]
        assert "ecim silent rate" in result["rendered"]

    def test_burst_experiment_registered_and_backendable(self):
        import inspect

        from repro.eval.experiments import EXPERIMENTS

        assert "burst" in EXPERIMENTS
        assert "backend" in inspect.signature(EXPERIMENTS["burst"]).parameters

    def test_burst_length_one_reduces_to_independent_flips(self):
        # A burst of one is the stochastic baseline: every gate output,
        # metadata included, is hit independently at the trigger rate — its
        # flips are exactly the Bernoulli hits of the trigger stream.
        from repro.campaign.workloads import get_campaign_workload
        from repro.core.backend import make_backend
        from repro.core.rng import STREAM_BURST, TrialStream, fault_schedule
        from repro.pim.faults import FaultModelSpec

        netlist = get_campaign_workload("dot2").netlist
        sites = make_backend("batched", netlist, "ecim").plan.fault_sites
        stream = TrialStream.keyed((4, "burst-one"), range(400))
        schedule = fault_schedule(
            FaultModelSpec.burst(1, 4, gate_error_rate=5e-3), stream, sites, 400
        )
        rows, ordinals = stream.bernoulli_hits(STREAM_BURST, len(sites.output_ops), 5e-3)
        assert rows.size > 0
        assert np.array_equal(schedule.hits["output"][0], rows)
        assert np.array_equal(schedule.hits["output"][1], ordinals)
        assert np.array_equal(schedule.faults, np.bincount(rows, minlength=400))
