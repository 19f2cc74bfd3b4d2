"""Tests for application-level campaign metrics (mlp16 / fft4 oracles)."""

import json

import numpy as np
import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.aggregate import APPLICATION, ShardResult, merge_shards
from repro.campaign.application import (
    APPLICATION_KEYS,
    application_counts,
    available_application_workloads,
    fft4_netlist,
    get_application_workload,
    has_application_metrics,
    mlp16_netlist,
)
from repro.campaign.workloads import get_campaign_workload
from repro.errors import EvaluationError, UnknownWorkloadError


def app_spec(**overrides):
    defaults = dict(
        workloads=("mlp16",),
        schemes=("unprotected",),
        technologies=("stt",),
        gate_error_rates=(1e-3,),
        trials=16,
        shard_size=8,
        seed=5,
        backend="batched",
        fault_model="stochastic",
        application=True,
        name="application-test",
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestWorkloadRegistry:
    def test_application_netlists_are_campaign_workloads(self):
        assert get_campaign_workload("mlp16").netlist.name.startswith("mlp-16")
        assert get_campaign_workload("fft4").netlist is not None

    def test_registry_contents(self):
        assert available_application_workloads() == ("fft4", "mlp16")
        assert has_application_metrics("mlp16")
        assert not has_application_metrics("and2")

    def test_unknown_workload_raises(self):
        with pytest.raises(UnknownWorkloadError, match="no application metrics"):
            get_application_workload("and2")

    def test_netlist_shapes(self):
        mlp = mlp16_netlist()
        assert len(mlp.inputs) == 16 * 2  # 16 pixels x 2-bit activations
        assert len(mlp.outputs) % 4 == 0  # four equal-width class scores
        fft = fft4_netlist()
        assert len(fft.inputs) == 4 * 4
        assert len(fft.outputs) == 2 * 4 * 4  # 4 bins x (re, im) x 4 bits


class TestApplicationCounts:
    def test_fault_free_outputs_score_zero(self):
        workload = get_application_workload("fft4")
        netlist = fft4_netlist()
        rng = np.random.default_rng(0)
        inputs = rng.integers(0, 2, size=(6, len(netlist.inputs))).astype(np.uint8)
        outputs = np.empty((6, len(netlist.outputs)), dtype=np.uint8)
        for trial in range(6):
            assignment = dict(zip(netlist.inputs, (int(b) for b in inputs[trial])))
            values = netlist.evaluate_outputs(assignment)
            outputs[trial] = [values[signal] for signal in netlist.outputs]
        counts = application_counts(workload, inputs, outputs)
        assert counts == {
            "app_trials": 6,
            "argmax_flips": 0,
            "output_bit_errors": 0,
            "output_error_magnitude": 0,
        }

    def test_single_bit_flip_is_counted_once(self):
        workload = get_application_workload("fft4")
        netlist = fft4_netlist()
        inputs = np.zeros((1, len(netlist.inputs)), dtype=np.uint8)
        assignment = dict(zip(netlist.inputs, [0] * len(netlist.inputs)))
        values = netlist.evaluate_outputs(assignment)
        outputs = np.array(
            [[values[signal] for signal in netlist.outputs]], dtype=np.uint8
        )
        outputs[0, 0] ^= 1  # LSB of the first output word
        counts = application_counts(workload, inputs, outputs)
        assert counts["output_bit_errors"] == 1
        assert counts["output_error_magnitude"] == 1

    def test_magnitude_wraps_around(self):
        # All-ones word vs all-zeros oracle: wrap-around distance is 1 (the
        # two's-complement neighbour), not 2^bits - 1.
        workload = get_application_workload("fft4")
        netlist = fft4_netlist()
        inputs = np.zeros((1, len(netlist.inputs)), dtype=np.uint8)
        assignment = dict(zip(netlist.inputs, [0] * len(netlist.inputs)))
        values = netlist.evaluate_outputs(assignment)
        outputs = np.array(
            [[values[signal] for signal in netlist.outputs]], dtype=np.uint8
        )
        outputs[0, :4] ^= 1  # first word 0b1111 = -1 mod 16
        counts = application_counts(workload, inputs, outputs)
        assert counts["output_bit_errors"] == 4
        assert counts["output_error_magnitude"] == 1

    def test_keys_match_zeroed(self):
        assert tuple(APPLICATION.zeroed()) == APPLICATION_KEYS


class TestSpecValidation:
    def test_application_requires_oracle_workload(self):
        with pytest.raises(UnknownWorkloadError, match="no application metrics"):
            app_spec(workloads=("and2",))

    def test_application_and_estimator_are_exclusive(self):
        with pytest.raises(EvaluationError, match="exclusive"):
            app_spec(estimator="importance:rate=1e-2")

    def test_spec_hash_unset_application_is_back_compatible(self):
        # application=None must vanish from to_dict so pre-existing spec
        # hashes and checkpoints stay valid.
        plain = app_spec(application=None)
        assert "application" not in plain.to_dict()
        assert plain.spec_hash() != app_spec().spec_hash()
        rebuilt = CampaignSpec.from_dict(app_spec().to_dict())
        assert rebuilt.spec_hash() == app_spec().spec_hash()

    def test_cell_key_excludes_application(self):
        # Same key => same trial seeds => base counters byte-identical to
        # the plain twin campaign.
        assert [cell.key for cell in app_spec().cells()] == [
            cell.key for cell in app_spec(application=None).cells()
        ]


class TestCampaignDeterminism:
    def test_golden_counters(self):
        # Pinned byte-level golden: the merged application counters of the
        # seed-5 mlp16+fft4 campaign.  A change here means trial seeding,
        # netlist synthesis, fault injection or oracle scoring drifted.
        spec = app_spec(workloads=("mlp16", "fft4"), schemes=("unprotected", "ecim"))
        result = run_campaign(spec, workers=0)
        prefix = "stt|g1.000000000e-03|m0.000000000e+00|mo|fm=stochastic"
        assert result.application_by_cell == {
            f"mlp16|unprotected|{prefix}": {
                "app_trials": 16,
                "argmax_flips": 10,
                "output_bit_errors": 190,
                "output_error_magnitude": 786963,
            },
            f"mlp16|ecim|{prefix}": {
                "app_trials": 16,
                "argmax_flips": 11,
                "output_bit_errors": 313,
                "output_error_magnitude": 1289765,
            },
            f"fft4|unprotected|{prefix}": {
                "app_trials": 16,
                "argmax_flips": 1,
                "output_bit_errors": 4,
                "output_error_magnitude": 16,
            },
            f"fft4|ecim|{prefix}": {
                "app_trials": 16,
                "argmax_flips": 0,
                "output_bit_errors": 3,
                "output_error_magnitude": 8,
            },
        }

    def test_base_counters_match_plain_twin(self):
        # application scoring must not perturb the trial stream: the base
        # counters equal the same campaign run without application=True.
        scored = run_campaign(app_spec(), workers=0)
        plain = run_campaign(app_spec(application=None), workers=0)
        assert scored.counts_by_cell == plain.counts_by_cell

    @pytest.mark.parametrize("backend", ["scalar", "batched", "bitpacked"])
    def test_backends_byte_identical(self, backend):
        reference = run_campaign(app_spec(workloads=("fft4",)), workers=0)
        other = run_campaign(
            app_spec(workloads=("fft4",), backend=backend), workers=0
        )
        assert other.application_by_cell == reference.application_by_cell
        assert other.counts_by_cell == reference.counts_by_cell

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_invariant(self, workers):
        serial = run_campaign(app_spec(), workers=0)
        parallel = run_campaign(app_spec(), workers=workers)
        assert serial.application_by_cell == parallel.application_by_cell
        assert serial.counts_by_cell == parallel.counts_by_cell

    def test_kflip_campaign_carries_application(self):
        result = run_campaign(
            app_spec(fault_model=None, faults_per_trial=2, workloads=("fft4",)),
            workers=0,
        )
        (counters,) = result.application_by_cell.values()
        assert counters["app_trials"] == 16

    def test_rendered_includes_application_table(self):
        result = run_campaign(app_spec(workloads=("fft4",)), workers=0)
        assert "application-level degradation" in result.rendered
        assert "argmax flips" in result.rendered
        summary = result.summary()
        assert summary["application_trials"] == 16


class TestCheckpointRoundTrip:
    def test_resume_preserves_application_counters(self, tmp_path):
        spec = app_spec(workloads=("fft4",))
        checkpoint = tmp_path / "ck.jsonl"
        first = run_campaign(spec, workers=0, checkpoint=checkpoint)
        resumed = run_campaign(spec, workers=0, checkpoint=checkpoint)
        assert resumed.executed_shards == 0
        assert resumed.resumed_shards == first.executed_shards
        assert resumed.application_by_cell == first.application_by_cell

    def test_shard_result_round_trips_application(self):
        result = ShardResult(
            cell_key="k",
            shard_index=3,
            application={
                "app_trials": 4,
                "argmax_flips": 1,
                "output_bit_errors": 7,
                "output_error_magnitude": 12,
            },
        )
        rebuilt = ShardResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result

    def test_plain_shard_result_serialises_without_application(self):
        data = ShardResult(cell_key="k", shard_index=0).to_dict()
        assert "application" not in data
        assert ShardResult.from_dict(data).application is None

    def test_unknown_application_counter_rejected(self):
        data = ShardResult(cell_key="k", shard_index=0).to_dict()
        data["application"] = {"bogus": 1}
        with pytest.raises(EvaluationError, match="unknown shard application counter"):
            ShardResult.from_dict(data)

    def test_merge_skips_cells_without_application(self):
        merged = merge_shards(
            [
                ShardResult(cell_key="a", shard_index=0),
                ShardResult(
                    cell_key="b",
                    shard_index=0,
                    application={"app_trials": 2, "argmax_flips": 1},
                ),
                ShardResult(
                    cell_key="b",
                    shard_index=1,
                    application={"app_trials": 3, "argmax_flips": 0},
                ),
            ]
        )["application"]
        assert "a" not in merged
        assert merged["b"]["app_trials"] == 5
        assert merged["b"]["argmax_flips"] == 1
