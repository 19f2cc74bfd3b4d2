"""Campaign integration of the batched execution backend.

Covers the spec/CLI surface (``backend`` field, a spec hash without the
backend, the removed ``engine`` alias), the worker dispatch, exact scalar
equality on fault-free and stochastic cells, checkpoints shared across
backends, and the SEP acceptance sweep.
"""

import numpy as np
import pytest

from repro.__main__ import main
from repro.campaign import (
    CampaignSpec,
    run_campaign,
    run_shard,
)
from repro.campaign.aggregate import COUNT_KEYS
from repro.campaign.spec import ShardTask
from repro.campaign.worker import clear_executor_cache
from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import BACKEND_NAMES, DEFAULT_BACKEND
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
        # ``scalar`` leads: it is the differential harness's reference.
        assert BACKEND_NAMES == ("scalar", "batched", "bitpacked")

    def test_unset_backend_is_the_default_backend(self):
        assert DEFAULT_BACKEND == "bitpacked"
        assert CampaignSpec(workloads=("and2",)).backend == DEFAULT_BACKEND
        assert spec(backend=None).shards()[0].backend == DEFAULT_BACKEND

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

    def test_hash_is_the_same_on_every_backend(self):
        # The backend says how trials run, not which: every backend hashes
        # as a scalar spec always has (the literal is this spec's hash from
        # before the backend left it), so old scalar checkpoints resume.
        hashes = {spec(backend=name).spec_hash() for name in BACKEND_NAMES}
        assert hashes == {"3a7b599a93188333"}
        assert spec().to_dict()["backend"] == "batched"

    def test_backend_round_trips_through_json(self):
        assert CampaignSpec.from_json(spec().to_json()).backend == "batched"

    def test_engine_alias_is_gone(self, capsys):
        with pytest.raises(TypeError):
            CampaignSpec(workloads=("and2",), engine="batched")
        with pytest.raises(TypeError):
            ShardTask(
                cell=spec().cells()[0], shard_index=0, start_trial=0,
                n_trials=5, campaign_seed=0, engine="batched",
            )
        with pytest.raises(EvaluationError, match="unknown campaign spec fields"):
            CampaignSpec.from_dict({"workloads": ["and2"], "engine": "batched"})
        with pytest.raises(SystemExit):
            main(["campaign", "--engine", "batched", "--quiet"])
        assert "unrecognized arguments: --engine" in capsys.readouterr().err


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

    def test_scalar_run_resumes_a_batched_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        batched = run_campaign(spec(), workers=0, checkpoint=path)
        scalar = run_campaign(spec(backend="scalar"), workers=0, checkpoint=path)
        assert scalar.executed_shards == 0
        assert scalar.resumed_shards == len(spec().shards())
        assert scalar.counts_by_cell == batched.counts_by_cell


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
