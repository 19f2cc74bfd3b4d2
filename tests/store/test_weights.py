"""Tests for estimator weights in the results store (schema migration 2)."""

import sqlite3

import pytest

from repro.campaign import CampaignSpec, ShardResult, run_campaign
from repro.errors import EvaluationError
from repro.store import ResultsStore
from repro.store.database import cell_fields
from repro.store.query import run_query
from repro.store.schema import MIGRATIONS


def estimator_spec(**overrides):
    defaults = dict(
        workloads=("and2",),
        schemes=("ecim",),
        gate_error_rates=(1e-2,),
        trials=64,
        shard_size=16,
        seed=7,
        backend="batched",
        name="weights-unit",
        estimator="importance:rate=0.03",
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def build_v1_database(path):
    """A schema-version-1 database with one uniform shard, built byte-level
    from the shipped migration (never via current code, which is at v2)."""
    conn = sqlite3.connect(path)
    with conn:
        for statement in MIGRATIONS[0].split(";"):
            if statement.strip():
                conn.execute(statement)
        conn.execute(
            "INSERT INTO schema_meta (key, value) VALUES ('schema_version', '1')"
        )
        conn.execute(
            "INSERT INTO campaigns (spec_hash, name, repro_version, created_at, updated_at)"
            " VALUES ('deadbeefdeadbeef', 'legacy', '0.9', 't0', 't0')"
        )
        conn.execute(
            "INSERT INTO cells (spec_hash, cell_key, workload, scheme, technology,"
            " gate_error_rate, memory_error_rate, multi_output)"
            " VALUES ('deadbeefdeadbeef', 'k', 'and2', 'ecim', 'stt', 0.01, 0.0, 1)"
        )
        conn.execute(
            "INSERT INTO shards (cell_id, shard_index, trials, correct, clean,"
            " repro_version, recorded_at) VALUES (1, 0, 4, 4, 4, '0.9', 't0')"
        )
    conn.close()


class TestSchemaV2:
    def test_v1_database_migrates_preserving_rows(self, tmp_path):
        path = tmp_path / "legacy.sqlite"
        build_v1_database(path)
        with ResultsStore(path) as store:
            assert store.schema_version == ResultsStore.SCHEMA_VERSION
            assert store.shard_keys() == [("deadbeefdeadbeef", "k", 0)]
            # Pre-estimator shards surface NULL weights, not zeros.
            row = store.rows("SELECT weight_sum, w_silent_corruption FROM shards")[0]
            assert tuple(row) == (None, None)
            columns, rows = run_query(store)
            assert rows[0]["trials"] == 4
            assert rows[0]["weight_sum"] is None
            assert rows[0]["effective_sample_size"] is None
            assert rows[0]["weighted_silent_rate"] is None

    def test_unknown_weight_keys_rejected(self, tmp_path):
        spec = estimator_spec()
        cell = spec.cells()[0]
        with ResultsStore(tmp_path / "r.sqlite") as store:
            spec_hash = store.record_campaign(spec)
            with pytest.raises(EvaluationError, match="unknown shard weights"):
                store.upsert_shard(
                    spec_hash,
                    cell_fields(cell),
                    ShardResult(cell.key, 0, weights={"weight_sum": 1.0, "bogus": 2.0}),
                )


class TestWeightedQueries:
    def test_weighted_columns_match_cell_report(self, tmp_path):
        # The store's weighted derived columns must reproduce the in-process
        # CellReport.estimate arithmetic exactly: same weight sums in, same
        # shared repro.stats helpers, byte-identical floats out.
        spec = estimator_spec()
        result = run_campaign(spec, workers=0, db=tmp_path / "r.sqlite")
        report = result.reports[0]
        with ResultsStore(tmp_path / "r.sqlite") as store:
            _, rows = run_query(store)
        assert len(rows) == 1
        row = rows[0]
        weights = result.weights_by_cell[report.cell.key]
        assert row["weight_sum"] == weights["weight_sum"]
        assert row["effective_sample_size"] == report.effective_sample_size
        mean, (low, high) = report.estimate("silent_corruption")
        assert row["weighted_silent_rate"] == mean
        assert (row["weighted_silent_ci_low"], row["weighted_silent_ci_high"]) == (low, high)
        mean, (low, high) = report.estimate("detected_corruption")
        assert row["weighted_detected_corruption_rate"] == mean
        assert (
            row["weighted_detected_corruption_ci_low"],
            row["weighted_detected_corruption_ci_high"],
        ) == (low, high)

    def test_checkpoint_ingest_carries_weights(self, tmp_path):
        from repro.store.ingest import ingest_checkpoint

        spec = estimator_spec()
        checkpoint = tmp_path / "ck.jsonl"
        result = run_campaign(spec, workers=0, checkpoint=checkpoint)
        with ResultsStore(tmp_path / "r.sqlite") as store:
            report = ingest_checkpoint(store, checkpoint, spec=spec)
            assert report.ingested == result.executed_shards
            _, rows = run_query(store)
        assert rows[0]["weight_sum"] is not None
        assert rows[0]["weight_sum"] == pytest.approx(
            result.weights_by_cell[spec.cells()[0].key]["weight_sum"]
        )

    def test_uniform_campaign_rows_stay_null(self, tmp_path):
        spec = estimator_spec(estimator=None)
        run_campaign(spec, workers=0, db=tmp_path / "r.sqlite")
        with ResultsStore(tmp_path / "r.sqlite") as store:
            _, rows = run_query(store)
        assert rows[0]["weight_sum"] is None
        assert rows[0]["weighted_silent_rate"] is None
