"""Campaign integration of the batched execution backend.

Covers the spec/CLI surface (``backend`` field, deprecated ``engine`` alias,
hash back-compat), the worker dispatch, exact scalar equality on fault-free
cells, statistical scalar agreement on stochastic cells, and the SEP
acceptance sweep.
"""

import numpy as np
import pytest

from repro.campaign import (
    CampaignSpec,
    run_campaign,
    run_shard,
)
from repro.campaign.aggregate import COUNT_KEYS
from repro.campaign.spec import CAMPAIGN_BACKENDS, CAMPAIGN_ENGINES, ShardTask
from repro.campaign.worker import clear_executor_cache
from repro.campaign.workloads import get_campaign_workload
from repro.core.batched import compile_plan, run_batch, sample_input_matrix
from repro.errors import EvaluationError


def spec(backend="batched", **overrides):
    defaults = dict(
        workloads=("and2",),
        schemes=("unprotected", "ecim", "trim"),
        technologies=("stt",),
        gate_error_rates=(1e-2,),
        trials=60,
        shard_size=20,
        seed=7,
        backend=backend,
        name="batched-backend-test",
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestSpecSurface:
    def test_backends_constant(self):
        assert CAMPAIGN_BACKENDS == ("scalar", "batched", "bitpacked")
        # The deprecated alias names the same choice set.
        assert CAMPAIGN_ENGINES == CAMPAIGN_BACKENDS

    def test_default_backend_is_scalar(self):
        assert CampaignSpec(workloads=("and2",)).backend == "scalar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(EvaluationError):
            CampaignSpec(workloads=("and2",), backend="vectorised")
        with pytest.raises(EvaluationError):
            ShardTask(
                cell=spec().cells()[0], shard_index=0, start_trial=0,
                n_trials=1, campaign_seed=0, backend="vectorised",
            )

    def test_backend_propagates_to_shards(self):
        assert all(task.backend == "batched" for task in spec().shards())
        assert all(task.backend == "scalar" for task in spec(backend="scalar").shards())

    def test_scalar_hash_unchanged_by_backend_field(self):
        # Pre-backend checkpoints must stay resumable: a default-backend spec
        # hashes as if the field did not exist.
        base = spec(backend="scalar")
        data = base.to_dict()
        assert data["backend"] == "scalar"
        del data["backend"]
        assert CampaignSpec.from_dict(data).spec_hash() == base.spec_hash()

    def test_batched_hash_differs_from_scalar(self):
        assert spec().spec_hash() != spec(backend="scalar").spec_hash()

    def test_backend_round_trips_through_json(self):
        assert CampaignSpec.from_json(spec().to_json()).backend == "batched"


class TestEngineDeprecationShim:
    def test_engine_kwarg_maps_to_backend_with_warning(self):
        with pytest.deprecated_call():
            legacy = CampaignSpec(workloads=("and2",), engine="batched")
        assert legacy.backend == "batched"
        # The alias mirrors the resolved backend for legacy readers.
        assert legacy.engine == "batched"

    def test_engine_spec_hash_matches_backend_spec_hash(self):
        # A pre-rename batched checkpoint must resume under the new field.
        with pytest.deprecated_call():
            legacy = CampaignSpec(workloads=("and2",), engine="batched")
        assert legacy.spec_hash() == CampaignSpec(
            workloads=("and2",), backend="batched"
        ).spec_hash()

    def test_engine_json_spec_files_still_load(self):
        with pytest.deprecated_call():
            loaded = CampaignSpec.from_dict(
                {"workloads": ["and2"], "engine": "batched"}
            )
        assert loaded.backend == "batched"

    def test_engine_key_not_serialised(self):
        with pytest.deprecated_call():
            legacy = CampaignSpec(workloads=("and2",), engine="batched")
        data = legacy.to_dict()
        assert "engine" not in data
        assert data["backend"] == "batched"

    def test_unknown_engine_rejected(self):
        with pytest.deprecated_call(), pytest.raises(EvaluationError):
            CampaignSpec(workloads=("and2",), engine="vectorised")

    def test_conflicting_engine_and_backend_rejected(self):
        with pytest.deprecated_call(), pytest.raises(EvaluationError):
            CampaignSpec(workloads=("and2",), backend="batched", engine="scalar")

    def test_stale_engine_cannot_override_explicit_scalar_backend(self):
        # An *explicit* backend="scalar" is a pin, not a default: a stale
        # engine kwarg must conflict loudly instead of silently switching
        # the campaign onto Philox streams and the batched hash namespace.
        with pytest.deprecated_call(), pytest.raises(EvaluationError):
            CampaignSpec(workloads=("and2",), backend="scalar", engine="batched")

    def test_shard_task_engine_alias(self):
        task = spec().shards()[0]
        assert task.engine == task.backend == "batched"

    def test_shard_task_engine_kwarg_still_constructs(self):
        # PR-2 era code built ShardTask(engine=...) directly; the keyword
        # must keep working through the same deprecation shim.
        with pytest.deprecated_call():
            task = ShardTask(
                cell=spec().cells()[0], shard_index=0, start_trial=0,
                n_trials=5, campaign_seed=0, engine="batched",
            )
        assert task.backend == "batched"
        assert run_shard(task).counts["trials"] == 5


class TestWorkerDispatch:
    def test_unknown_technology_rejected_like_scalar(self):
        # The batched plan never consumes technology parameters, but a
        # typo'd --technologies must not silently succeed on one backend
        # and fail on the other.
        from repro.errors import TechnologyError

        clear_executor_cache()
        cell = spec().cells()[0]
        bogus = type(cell)(
            workload=cell.workload, scheme=cell.scheme, technology="sst",
            gate_error_rate=cell.gate_error_rate,
        )
        task = ShardTask(
            cell=bogus, shard_index=0, start_trial=0, n_trials=5,
            campaign_seed=0, backend="batched",
        )
        with pytest.raises(TechnologyError):
            run_shard(task)

    def test_counts_schema_matches_campaign_keys(self):
        task = spec().shards()[0]
        result = run_shard(task)
        assert set(result.counts) == set(COUNT_KEYS)
        assert result.counts["trials"] == task.n_trials

    def test_batched_shard_deterministic(self):
        task = spec().shards()[0]
        clear_executor_cache()
        first = run_shard(task)
        again = run_shard(task)  # now served by the cached plan
        assert first == again

    def test_shard_size_does_not_change_batched_aggregates(self):
        coarse = run_campaign(spec(shard_size=60), workers=0)
        fine = run_campaign(spec(shard_size=7), workers=0)
        assert coarse.counts_by_cell == fine.counts_by_cell

    def test_serial_matches_two_workers(self):
        serial = run_campaign(spec(), workers=0)
        parallel = run_campaign(spec(), workers=2)
        assert serial.counts_by_cell == parallel.counts_by_cell


class TestScalarAgreement:
    def test_fault_free_cells_match_scalar_exactly(self):
        # With no faults both backends are deterministic functions of the
        # shared input sampler, so every counter must agree bit-for-bit.
        kwargs = dict(gate_error_rates=(0.0,), trials=40, shard_size=10)
        batched = run_campaign(spec(**kwargs), workers=0)
        scalar = run_campaign(spec(backend="scalar", **kwargs), workers=0)
        assert batched.counts_by_cell == scalar.counts_by_cell
        for report in batched.reports:
            assert report.counts["correct"] == report.counts["trials"]

    def test_stochastic_cells_match_scalar_exactly(self):
        # One trial stream per cell and one fault schedule per shard: the
        # stochastic counters are byte-identical across backends.
        kwargs = dict(
            workloads=("and2",), schemes=("ecim", "trim"), gate_error_rates=(5e-2,),
            memory_error_rate=2e-2, trials=60, shard_size=25,
        )
        batched = run_campaign(spec(**kwargs), workers=0)
        scalar = run_campaign(spec(backend="scalar", **kwargs), workers=0)
        assert batched.counts_by_cell == scalar.counts_by_cell
        assert all(report.counts["faults_injected"] > 0 for report in batched.reports)


class TestSepAcceptance:
    def test_dot2_grid_zero_silent_corruption_under_protection(self):
        # The acceptance sweep: ECiM and TRiM on dot2 across the swept error
        # rates, batched backend — silent corruption must be zero everywhere,
        # while the unprotected baseline shows why protection is needed.
        result = run_campaign(
            spec(
                workloads=("dot2",),
                schemes=("unprotected", "ecim", "trim"),
                gate_error_rates=(1e-3, 1e-2),
                trials=200,
                shard_size=100,
            ),
            workers=0,
        )
        for report in result.reports:
            if report.cell.scheme in ("ecim", "trim"):
                assert report.counts["silent_corruption"] == 0, report.cell
            else:
                assert report.counts["detected"] == 0
        unprotected_hi = [
            r for r in result.reports
            if r.cell.scheme == "unprotected" and r.cell.gate_error_rate == 1e-2
        ][0]
        assert unprotected_hi.counts["silent_corruption"] > 0


class TestCheckpointInterop:
    def test_batched_campaign_resumes_own_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        full = run_campaign(spec(), workers=0, checkpoint=path)
        assert full.resumed_shards == 0
        again = run_campaign(spec(), workers=0, checkpoint=path)
        assert again.resumed_shards == len(spec().shards())
        assert again.counts_by_cell == full.counts_by_cell

    def test_batched_checkpoint_not_consumed_by_scalar_run(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        run_campaign(spec(), workers=0, checkpoint=path)
        scalar = run_campaign(spec(backend="scalar"), workers=0, checkpoint=path)
        assert scalar.resumed_shards == 0


class TestBatchedMemoryErrors:
    def test_memory_rate_changes_outcomes_only_for_checked_schemes(self):
        # Memory errors strike checker-transfer reads; the unprotected
        # executor performs none, so its batched counters must be invariant.
        from repro.core.rng import TrialStream
        from repro.pim.faults import FaultModelSpec

        netlist = get_campaign_workload("dot2").netlist
        stream = TrialStream.keyed(("memory",), range(80))
        matrix = sample_input_matrix(netlist, stream)
        memory = FaultModelSpec.stochastic(gate_error_rate=0.0, memory_error_rate=0.05)

        plan_u = compile_plan(netlist, "unprotected")
        clean = run_batch(plan_u, matrix)
        noisy = run_batch(plan_u, matrix, fault_model=memory, stream=stream)
        assert np.array_equal(clean.outputs, noisy.outputs)
        assert noisy.faults_injected.sum() == 0

        plan_e = compile_plan(netlist, "ecim")
        noisy_e = run_batch(plan_e, matrix, fault_model=memory, stream=stream)
        assert noisy_e.faults_injected.sum() > 0
        assert noisy_e.detected.any()
