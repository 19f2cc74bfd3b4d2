"""Tests for campaign specs: grid expansion, sharding, seeding, serialisation."""

import pytest

from repro.campaign.spec import (
    CAMPAIGN_SCHEMES,
    CampaignCell,
    CampaignSpec,
    trial_seed,
)
from repro.errors import EvaluationError


def small_spec(**overrides):
    defaults = dict(
        workloads=("and2",),
        schemes=("unprotected", "ecim"),
        technologies=("stt",),
        gate_error_rates=(1e-3, 1e-2),
        trials=10,
        shard_size=4,
        seed=42,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestGridExpansion:
    def test_cell_count_is_full_cross_product(self):
        spec = small_spec(schemes=("unprotected", "ecim", "trim"), technologies=("stt", "reram"))
        assert len(spec.cells()) == 1 * 3 * 2 * 2

    def test_cell_order_is_deterministic(self):
        assert small_spec().cells() == small_spec().cells()

    def test_cells_carry_spec_wide_settings(self):
        spec = small_spec(memory_error_rate=1e-5, multi_output=False)
        for cell in spec.cells():
            assert cell.memory_error_rate == 1e-5
            assert not cell.multi_output

    def test_names_are_normalised(self):
        spec = small_spec(workloads=("AND2",), schemes=("ECiM",), technologies=("STT",))
        cell = spec.cells()[0]
        assert (cell.workload, cell.scheme, cell.technology) == ("and2", "ecim", "stt")

    def test_total_trials(self):
        assert small_spec().total_trials == 10 * 2 * 2


class TestSharding:
    def test_shard_partitioning_covers_all_trials_without_overlap(self):
        spec = small_spec()  # 10 trials, shard_size 4 -> shards of 4, 4, 2
        for cell in spec.cells():
            shards = [s for s in spec.shards() if s.cell == cell]
            assert [s.n_trials for s in shards] == [4, 4, 2]
            seen = [t for s in shards for t in s.trial_indices]
            assert seen == list(range(10))

    def test_exact_division_has_no_runt_shard(self):
        spec = small_spec(trials=8, shard_size=4)
        assert all(s.n_trials == 4 for s in spec.shards())

    def test_shards_depend_only_on_spec(self):
        assert small_spec().shards() == small_spec().shards()


class TestValidation:
    def test_rejects_empty_workloads(self):
        with pytest.raises(EvaluationError):
            small_spec(workloads=())

    def test_rejects_unknown_scheme(self):
        with pytest.raises(EvaluationError):
            small_spec(schemes=("parity-of-vibes",))

    def test_rejects_bad_rates(self):
        with pytest.raises(EvaluationError):
            small_spec(gate_error_rates=(1.5,))
        with pytest.raises(EvaluationError):
            small_spec(memory_error_rate=-0.1)

    def test_rejects_nonpositive_trials_and_shards(self):
        with pytest.raises(EvaluationError):
            small_spec(trials=0)
        with pytest.raises(EvaluationError):
            small_spec(shard_size=0)

    def test_cell_rejects_unknown_scheme(self):
        with pytest.raises(EvaluationError):
            CampaignCell(workload="and2", scheme="nope", technology="stt", gate_error_rate=0.1)


class TestSerialisation:
    def test_json_round_trip(self):
        spec = small_spec()
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        data = small_spec().to_dict()
        data["gpu_count"] = 8
        with pytest.raises(EvaluationError):
            CampaignSpec.from_dict(data)

    def test_hash_stable_across_instances(self):
        assert small_spec().spec_hash() == small_spec().spec_hash()

    def test_hash_ignores_cosmetic_name(self):
        assert small_spec(name="a").spec_hash() == small_spec(name="b").spec_hash()

    def test_hash_changes_with_seed_and_grid(self):
        base = small_spec().spec_hash()
        assert small_spec(seed=43).spec_hash() != base
        assert small_spec(shard_size=5).spec_hash() != base
        assert small_spec(gate_error_rates=(1e-3,)).spec_hash() != base


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(1, "cell") == trial_seed(1, "cell")

    def test_is_the_cells_rng_v2_stream_key(self):
        from repro.core.rng import stream_key

        assert trial_seed(1, "cell") == stream_key(1, "cell")

    def test_varies_with_every_component(self):
        base = trial_seed(1, "cell")
        assert trial_seed(2, "cell") != base
        assert trial_seed(1, "other") != base

    def test_is_64_bit(self):
        for seed in range(50):
            assert 0 <= trial_seed(seed, "c") < 2**64

    def test_schemes_constant_matches_worker_support(self):
        assert CAMPAIGN_SCHEMES == ("unprotected", "ecim", "trim")


def test_duplicate_grid_entries_are_deduplicated():
    spec = CampaignSpec(
        workloads=("and2", "AND2"),
        schemes=("trim", "trim"),
        gate_error_rates=(1e-3, 1e-3),
    )
    assert spec.workloads == ("and2",)
    assert spec.schemes == ("trim",)
    assert spec.gate_error_rates == (1e-3,)
    assert len(spec.cells()) == 1


def test_json_numeric_strings_are_coerced_and_hash_canonical():
    # A hand-written spec file may carry "100" for 100; coercion keeps the
    # spec usable and its hash identical to the int-typed twin.
    data = small_spec().to_dict()
    data["trials"], data["seed"], data["shard_size"] = "10", "42", "4"
    coerced = CampaignSpec.from_dict(data)
    assert (coerced.trials, coerced.seed, coerced.shard_size) == (10, 42, 4)
    assert coerced.spec_hash() == small_spec().spec_hash()


def test_malformed_numeric_field_raises_cleanly():
    with pytest.raises(EvaluationError):
        small_spec(trials="ten")
    with pytest.raises(EvaluationError):
        small_spec(seed=None)


class TestFaultsPerTrial:
    def test_default_is_none_and_absent_from_dict(self):
        spec = small_spec()
        assert spec.faults_per_trial is None
        assert "faults_per_trial" not in spec.to_dict()

    def test_hash_back_compat_when_unset(self):
        # The canonical form of a spec without faults_per_trial is unchanged,
        # so pre-multi-fault checkpoints remain resumable.
        assert small_spec().spec_hash() == small_spec(name="other").spec_hash()
        assert "faults_per_trial" not in small_spec().to_json()

    def test_set_value_round_trips_and_rehashes(self):
        spec = small_spec(faults_per_trial=2)
        assert spec.faults_per_trial == 2
        round_tripped = CampaignSpec.from_json(spec.to_json())
        assert round_tripped.faults_per_trial == 2
        assert round_tripped.spec_hash() == spec.spec_hash()
        assert spec.spec_hash() != small_spec().spec_hash()

    def test_cells_carry_faults_per_trial_with_key_suffix(self):
        for cell in small_spec(faults_per_trial=3).cells():
            assert cell.faults_per_trial == 3
            assert cell.key.endswith("|f3")
        for cell in small_spec().cells():
            assert cell.faults_per_trial is None
            assert "|f" not in cell.key

    def test_string_value_is_coerced(self):
        assert small_spec(faults_per_trial="2").faults_per_trial == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(EvaluationError):
            small_spec(faults_per_trial=0)
        with pytest.raises(EvaluationError):
            CampaignCell(
                workload="and2", scheme="ecim", technology="stt",
                gate_error_rate=1e-3, faults_per_trial=0,
            )
