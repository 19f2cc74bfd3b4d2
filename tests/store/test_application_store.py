"""Tests for application counters in the results store (schema migration 3)."""

import sqlite3

import pytest

from repro.campaign import CampaignSpec, ShardResult, run_campaign
from repro.errors import EvaluationError
from repro.store import ResultsStore
from repro.store.database import cell_fields
from repro.store.query import run_query
from repro.store.schema import MIGRATIONS


def application_spec(**overrides):
    defaults = dict(
        workloads=("fft4",),
        schemes=("unprotected", "ecim"),
        gate_error_rates=(1e-3,),
        trials=16,
        shard_size=8,
        seed=5,
        backend="batched",
        fault_model="stochastic",
        application=True,
        name="application-store-unit",
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def build_v2_database(path):
    """A schema-version-2 database with one uniform shard, built byte-level
    from the shipped migrations (never via current code, which is at v3)."""
    conn = sqlite3.connect(path)
    with conn:
        for migration in MIGRATIONS[:2]:
            for statement in migration.split(";"):
                if statement.strip():
                    conn.execute(statement)
        conn.execute(
            "INSERT INTO schema_meta (key, value) VALUES ('schema_version', '2')"
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


class TestSchemaV3:
    def test_v2_database_migrates_preserving_rows(self, tmp_path):
        path = tmp_path / "legacy.sqlite"
        build_v2_database(path)
        with ResultsStore(path) as store:
            assert store.schema_version == ResultsStore.SCHEMA_VERSION
            assert store.shard_keys() == [("deadbeefdeadbeef", "k", 0)]
            # Pre-application shards surface NULL counters, not zeros.
            row = store.rows("SELECT app_trials, argmax_flips FROM shards")[0]
            assert tuple(row) == (None, None)
            assert store.cell_sums("deadbeefdeadbeef")["application"] == {}
            columns, rows = run_query(store)
            assert rows[0]["trials"] == 4
            assert rows[0]["app_trials"] is None
            assert rows[0]["argmax_flip_rate"] is None
            assert rows[0]["output_bit_errors_avg"] is None

    def test_unknown_application_keys_rejected(self, tmp_path):
        spec = application_spec()
        cell = spec.cells()[0]
        with ResultsStore(tmp_path / "r.sqlite") as store:
            spec_hash = store.record_campaign(spec)
            with pytest.raises(EvaluationError, match="unknown shard application"):
                store.upsert_shard(
                    spec_hash,
                    cell_fields(cell),
                    ShardResult(cell.key, 0, application={"app_trials": 1, "bogus": 2}),
                )


class TestApplicationQueries:
    def test_application_columns_match_cell_report(self, tmp_path):
        # The store's application derived columns must reproduce the
        # in-process CellReport arithmetic exactly: same integer sums in,
        # same divisions and wilson_interval, byte-identical floats out.
        spec = application_spec()
        result = run_campaign(spec, workers=0, db=tmp_path / "r.sqlite")
        with ResultsStore(tmp_path / "r.sqlite") as store:
            sums = store.cell_sums(spec.spec_hash())
            assert sums["application"] == result.application_by_cell
            _, rows = run_query(store, group_by=("workload", "scheme"))
        by_scheme = {row["scheme"]: row for row in rows}
        for report in result.reports:
            row = by_scheme[report.cell.scheme]
            assert row["app_trials"] == report.application_trials
            assert row["argmax_flip_rate"] == report.argmax_flip_rate
            low, high = report.argmax_flip_interval
            assert (row["argmax_flip_ci_low"], row["argmax_flip_ci_high"]) == (low, high)
            assert row["output_bit_errors_avg"] == report.output_bit_errors_avg
            assert row["output_error_magnitude_avg"] == report.output_error_magnitude_avg

    def test_checkpoint_ingest_carries_application(self, tmp_path):
        from repro.store.ingest import ingest_checkpoint

        spec = application_spec()
        checkpoint = tmp_path / "ck.jsonl"
        result = run_campaign(spec, workers=0, checkpoint=checkpoint)
        with ResultsStore(tmp_path / "r.sqlite") as store:
            report = ingest_checkpoint(store, checkpoint, spec=spec)
            assert report.ingested == result.executed_shards
            sums = store.cell_sums(spec.spec_hash())
            assert sums["application"] == result.application_by_cell

    def test_plain_campaign_rows_stay_null(self, tmp_path):
        spec = application_spec(application=None)
        run_campaign(spec, workers=0, db=tmp_path / "r.sqlite")
        with ResultsStore(tmp_path / "r.sqlite") as store:
            assert store.cell_sums(spec.spec_hash())["application"] == {}
            _, rows = run_query(store)
        assert all(row["app_trials"] is None for row in rows)
        assert all(row["argmax_flip_rate"] is None for row in rows)
