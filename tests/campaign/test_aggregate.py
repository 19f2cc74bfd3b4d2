"""Tests for campaign statistics: Wilson intervals, merging, cell reports."""

import pytest

from repro.campaign.aggregate import (
    COUNT_KEYS,
    CellReport,
    ShardResult,
    cell_reports,
    merge_shards,
    render_campaign_table,
    wilson_interval,
    zeroed_counts,
)
from repro.campaign.spec import CampaignCell
from repro.errors import EvaluationError


class TestWilsonInterval:
    def test_known_textbook_value(self):
        # Wilson 95% CI for 8 successes in 10 trials: (0.4902, 0.9433).
        low, high = wilson_interval(8, 10)
        assert low == pytest.approx(0.4902, abs=1e-4)
        assert high == pytest.approx(0.9433, abs=1e-4)

    def test_zero_successes_closed_form(self):
        # For p-hat = 0 the Wilson upper bound collapses to z^2 / (n + z^2).
        z = 1.96
        low, high = wilson_interval(0, 100, z=z)
        assert low == 0.0
        assert high == pytest.approx(z * z / (100 + z * z))

    def test_all_successes_is_mirror_of_zero(self):
        low0, high0 = wilson_interval(0, 100)
        low1, high1 = wilson_interval(100, 100)
        assert low1 == pytest.approx(1.0 - high0)
        assert high1 == pytest.approx(1.0 - low0, abs=1e-12)

    def test_symmetric_at_half(self):
        low, high = wilson_interval(5, 10)
        assert low == pytest.approx(1.0 - high)

    def test_interval_contains_point_estimate_and_shrinks_with_n(self):
        for n in (10, 100, 1000):
            low, high = wilson_interval(n // 2, n)
            assert low < 0.5 < high
        wide = wilson_interval(5, 10)
        narrow = wilson_interval(500, 1000)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_no_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_invalid_arguments(self):
        with pytest.raises(EvaluationError):
            wilson_interval(5, 3)
        with pytest.raises(EvaluationError):
            wilson_interval(-1, 3)
        with pytest.raises(EvaluationError):
            wilson_interval(1, 3, z=0.0)


def make_result(cell_key="k", shard=0, **counts):
    full = zeroed_counts()
    full.update(counts)
    return ShardResult(cell_key=cell_key, shard_index=shard, counts=full)


class TestShardResult:
    def test_round_trip(self):
        result = make_result(trials=5, correct=4, silent_corruption=1)
        assert ShardResult.from_dict(result.to_dict()) == result

    def test_rejects_unknown_counter(self):
        data = make_result().to_dict()
        data["counts"]["vibes"] = 3
        with pytest.raises(EvaluationError):
            ShardResult.from_dict(data)

    def test_missing_counters_default_to_zero(self):
        result = ShardResult.from_dict({"cell": "k", "shard": 1, "counts": {"trials": 2}})
        assert result.counts["trials"] == 2
        assert result.counts["correct"] == 0


class TestMerge:
    def test_sums_per_cell(self):
        merged = merge_shards(
            [
                make_result("a", 0, trials=4, correct=3),
                make_result("a", 1, trials=4, correct=4),
                make_result("b", 0, trials=2, correct=0),
            ]
        )["counts"]
        assert merged["a"]["trials"] == 8 and merged["a"]["correct"] == 7
        assert merged["b"]["trials"] == 2 and merged["b"]["correct"] == 0

    def test_order_independent(self):
        shards = [make_result("a", i, trials=3, correct=i) for i in range(4)]
        assert merge_shards(shards) == merge_shards(list(reversed(shards)))

    def test_every_family_merges_bit_identically_in_any_order(self):
        # Float weight sums are not associative: only the canonical
        # (cell, shard) merge order makes them independent of arrival order.
        shards = [
            ShardResult(
                cell_key="a",
                shard_index=i,
                counts=dict(zeroed_counts(), trials=3),
                weights={"weight_sum": 0.1 * (i + 1), "w_correct": 1e16 if i == 0 else 1.0},
                strata={"k=0": {"pi": 0.5, "trials": 2}, f"k={i + 1}": {"pi": 0.1, "trials": 1}},
            )
            for i in range(4)
        ]
        merged = merge_shards(shards)
        for order in (list(reversed(shards)), shards[2:] + shards[:2]):
            again = merge_shards(order)
            assert again == merged
            assert list(again["strata"]["a"]) == list(merged["strata"]["a"])
        assert merged["counts"]["a"]["trials"] == 12
        assert merged["strata"]["a"]["k=0"] == {"pi": 0.5, "trials": 8}
        assert "a" not in merged["application"]


class TestCellReport:
    def cell(self):
        return CampaignCell(
            workload="and2", scheme="ecim", technology="stt", gate_error_rate=1e-3
        )

    def test_rates(self):
        counts = zeroed_counts()
        counts.update(
            trials=100, correct=97, detected=20, recovered=17,
            detected_corruption=2, silent_corruption=1, faults_injected=30,
        )
        report = CellReport(cell=self.cell(), counts=counts)
        assert report.coverage == pytest.approx(0.97)
        assert report.detected_rate == pytest.approx(0.20)
        assert report.silent_corruption_rate == pytest.approx(0.01)
        assert report.recovered_rate == pytest.approx(0.17)
        assert report.average_faults_per_trial == pytest.approx(0.30)
        low, high = report.coverage_interval
        assert low < 0.97 < high

    def test_empty_cell_has_vacuous_interval(self):
        report = CellReport(cell=self.cell(), counts=zeroed_counts())
        assert report.trials == 0
        assert report.coverage == 0.0
        assert report.coverage_interval == (0.0, 1.0)

    def test_build_reports_in_grid_order_with_missing_cells_zeroed(self):
        cells = [self.cell()]
        reports = cell_reports(cells, merge_shards([]))
        assert len(reports) == 1 and reports[0].trials == 0

    def test_render_contains_cells_and_intervals(self):
        counts = zeroed_counts()
        counts.update(trials=10, correct=10)
        text = render_campaign_table("t", [CellReport(cell=self.cell(), counts=counts)])
        assert "ecim" in text and "95% CI" in text and "1.0000" in text


def test_count_keys_cover_outcome_partition():
    # The four-way outcome partition plus its two marginals must all be counters.
    for key in ("correct", "clean", "recovered", "detected_corruption", "silent_corruption", "detected"):
        assert key in COUNT_KEYS
