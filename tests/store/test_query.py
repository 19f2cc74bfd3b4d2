"""Query-surface tests: filters, group-by, rendering, and the end-to-end
roundtrip contract.

The load-bearing test is :class:`TestEndToEndRoundtrip`: one small campaign
run twice — once recording live into the store (``db=``), once leaving only
a JSONL checkpoint that is then ingested — must produce *identical* query
aggregates from both databases, and those aggregates must equal the
in-process ``campaign/aggregate.py`` numbers exactly (same floats, not
approximately).
"""

import json

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.errors import EvaluationError
from repro.store import (
    DEFAULT_GROUP_BY,
    DERIVED_COLUMNS,
    QueryFilters,
    ResultsStore,
    format_output,
    ingest_checkpoint,
    run_query,
)

from test_database import small_spec


SPEC = CampaignSpec(
    workloads=("and2",),
    schemes=("unprotected", "ecim"),
    gate_error_rates=(1e-3, 1e-2),
    trials=8,
    shard_size=4,
    seed=3,
    name="roundtrip",
)


@pytest.fixture(scope="module")
def campaign_result(tmp_path_factory):
    """One real (tiny) campaign, run once for the whole module."""
    base = tmp_path_factory.mktemp("roundtrip")
    checkpoint = base / "ck.jsonl"
    db = base / "live.sqlite"
    result = run_campaign(SPEC, workers=0, checkpoint=checkpoint, db=db)
    return result, checkpoint, db


class TestEndToEndRoundtrip:
    def test_live_recording_equals_checkpoint_ingestion(self, campaign_result, tmp_path):
        result, checkpoint, live_db = campaign_result
        ingested_db = tmp_path / "ingested.sqlite"
        with ResultsStore(ingested_db) as store:
            ingest_checkpoint(store, checkpoint, spec=SPEC)
            ingested = run_query(store)
        with ResultsStore(live_db) as store:
            live = run_query(store)
        assert live == ingested

    def test_query_matches_aggregator_exactly(self, campaign_result):
        result, _checkpoint, live_db = campaign_result
        with ResultsStore(live_db) as store:
            columns, rows = run_query(store)
        reports = {
            (r.cell.workload, r.cell.scheme, r.cell.technology, r.cell.gate_error_rate): r
            for r in result.reports
        }
        assert len(rows) == len(reports) == 4
        for row in rows:
            report = reports[
                (row["workload"], row["scheme"], row["technology"], row["gate_error_rate"])
            ]
            # Byte-for-byte float equality, not pytest.approx: both sides
            # must run the identical arithmetic on identical integer sums.
            assert row["trials"] == report.trials
            assert row["coverage"] == report.coverage
            assert (row["coverage_ci_low"], row["coverage_ci_high"]) == report.coverage_interval
            assert row["silent_corruption_rate"] == report.silent_corruption_rate
            assert (
                row["silent_ci_low"], row["silent_ci_high"]
            ) == report.silent_corruption_interval
            assert row["detected_rate"] == report.detected_rate
            assert row["recovered_rate"] == report.recovered_rate
            assert row["detected_corruption_rate"] == report.detected_corruption_rate
            assert row["faults_per_trial_avg"] == report.average_faults_per_trial

    def test_reingesting_changes_nothing(self, campaign_result, tmp_path):
        _result, checkpoint, _live_db = campaign_result
        db = tmp_path / "twice.sqlite"
        with ResultsStore(db) as store:
            ingest_checkpoint(store, checkpoint)
            before = run_query(store)
            report = ingest_checkpoint(store, checkpoint)
            assert report.ingested == 0
            assert run_query(store) == before

    def test_store_counts_equal_runner_counts(self, campaign_result):
        result, _checkpoint, live_db = campaign_result
        with ResultsStore(live_db) as store:
            assert store.cell_sums(SPEC.spec_hash())["counts"] == result.counts_by_cell


class TestFiltersAndGrouping:
    @pytest.fixture()
    def store(self, campaign_result, tmp_path):
        _result, checkpoint, _db = campaign_result
        with ResultsStore(tmp_path / "q.sqlite") as store:
            ingest_checkpoint(store, checkpoint, spec=SPEC)
            yield store

    def test_scheme_filter(self, store):
        _columns, rows = run_query(store, QueryFilters(schemes=("ecim",)))
        assert [row["scheme"] for row in rows] == ["ecim", "ecim"]

    def test_error_rate_band(self, store):
        _columns, rows = run_query(
            store, QueryFilters(min_error_rate=5e-3, max_error_rate=5e-2)
        )
        assert {row["gate_error_rate"] for row in rows} == {1e-2}

    def test_fault_model_none_matches_legacy_cells(self, store):
        _columns, rows = run_query(store, QueryFilters(fault_models=("none",)))
        assert len(rows) == 4  # every cell in this campaign is legacy-model

    def test_fault_model_kind_filter_excludes_legacy(self, store):
        _columns, rows = run_query(store, QueryFilters(fault_models=("burst",)))
        assert rows == []

    def test_invalid_fault_model_filter_raises(self, store):
        with pytest.raises(EvaluationError, match="invalid --fault-model"):
            run_query(store, QueryFilters(fault_models=("burst:nope=1",)))

    def test_group_by_scheme_merges_rates(self, store):
        columns, rows = run_query(store, group_by=("scheme",))
        assert columns == ["scheme"] + list(DERIVED_COLUMNS)
        assert [row["scheme"] for row in rows] == ["ecim", "unprotected"]
        assert all(row["trials"] == 16 for row in rows)  # 2 rate cells merged

    def test_unknown_group_column_raises(self, store):
        with pytest.raises(EvaluationError, match="cannot group by"):
            run_query(store, group_by=("scheme", "favourite_colour"))

    def test_empty_group_by_raises(self, store):
        with pytest.raises(EvaluationError, match="at least one column"):
            run_query(store, group_by=())

    def test_cross_campaign_accumulation(self, store, tmp_path):
        # A second campaign (different seed => different spec hash) lands in
        # the same corpus; default grouping merges, spec_hash grouping splits.
        other = small_spec(seed=11, name="second")
        checkpoint = tmp_path / "other.jsonl"
        run_campaign(other, workers=0, checkpoint=checkpoint)
        ingest_checkpoint(store, checkpoint, spec=other)
        _columns, merged = run_query(store, QueryFilters(schemes=("ecim",), workloads=("and2",)))
        merged_cell = [row for row in merged if row["gate_error_rate"] == 1e-2]
        assert merged_cell[0]["trials"] == 16  # 8 from each campaign
        _columns, split = run_query(store, group_by=("spec_hash", "scheme"))
        assert len({row["spec_hash"] for row in split}) == 2


class TestRendering:
    ROWS = [
        {"scheme": "ecim", "coverage": 0.9875, "fault_model": None, "trials": 800},
        {"scheme": "trim", "coverage": 1.0, "fault_model": "burst:length=3", "trials": 800},
    ]
    COLUMNS = ["scheme", "fault_model", "trials", "coverage"]

    def test_table_compacts_floats_and_nulls(self):
        text = format_output(self.ROWS, self.COLUMNS, "table", title="t")
        assert text.splitlines()[0] == "t"
        assert "0.9875" in text
        assert "-" in text  # NULL fault_model

    def test_csv_is_exact_and_newline_terminated_rows(self):
        text = format_output(self.ROWS, self.COLUMNS, "csv")
        lines = text.splitlines()
        assert lines[0] == "scheme,fault_model,trials,coverage"
        assert lines[1] == "ecim,,800,0.9875"
        assert lines[2] == "trim,burst:length=3,800,1.0"

    def test_json_preserves_column_order_and_types(self):
        rows = json.loads(format_output(self.ROWS, self.COLUMNS, "json"))
        assert list(rows[0]) == self.COLUMNS
        assert rows[0]["fault_model"] is None
        assert rows[1]["coverage"] == 1.0

    def test_unknown_format_raises(self):
        with pytest.raises(EvaluationError, match="unknown output format"):
            format_output(self.ROWS, self.COLUMNS, "yaml")

    def test_default_group_by_is_the_cell_identity(self):
        assert DEFAULT_GROUP_BY == ("workload", "scheme", "technology", "gate_error_rate")
