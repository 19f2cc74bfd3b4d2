"""Tests for the SQLite results store core (schema, upserts, locking)."""

import sqlite3

import pytest

import repro
from repro.campaign.aggregate import ShardResult, zeroed_counts
from repro.campaign.spec import CampaignSpec
from repro.core.backend import DEFAULT_BACKEND
from repro.errors import EvaluationError
from repro.store import SCHEMA_VERSION, FileLock, LockTimeoutError, ResultsStore
from repro.store.database import cell_fields


def small_spec(**overrides):
    defaults = dict(
        workloads=("and2",),
        schemes=("ecim",),
        gate_error_rates=(1e-2,),
        trials=8,
        shard_size=4,
        seed=3,
        name="unit",
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def make_result(cell, shard=0, trials=4, correct=4):
    counts = zeroed_counts()
    counts.update(trials=trials, correct=correct, clean=correct)
    return ShardResult(cell_key=cell.key, shard_index=shard, counts=counts)


class TestSchema:
    def test_fresh_database_is_at_current_version(self, tmp_path):
        with ResultsStore(tmp_path / "r.sqlite") as store:
            assert store.schema_version == SCHEMA_VERSION

    def test_reopen_applies_no_further_migrations(self, tmp_path):
        path = tmp_path / "r.sqlite"
        ResultsStore(path).close()
        with ResultsStore(path) as store:
            assert store.schema_version == SCHEMA_VERSION

    def test_wal_mode_is_enabled(self, tmp_path):
        with ResultsStore(tmp_path / "r.sqlite") as store:
            assert store.rows("PRAGMA journal_mode")[0][0] == "wal"

    def test_future_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "r.sqlite"
        ResultsStore(path).close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute(
                "UPDATE schema_meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        conn.close()
        with pytest.raises(EvaluationError, match="schema version"):
            ResultsStore(path)

    def test_unopenable_path_fails_fast(self, tmp_path):
        directory = tmp_path / "is_a_directory"
        directory.mkdir()
        with pytest.raises(EvaluationError, match="cannot open"):
            ResultsStore(directory)


class TestRecording:
    def test_record_campaign_and_shard_round_trip(self, tmp_path):
        spec = small_spec()
        cell = spec.cells()[0]
        with ResultsStore(tmp_path / "r.sqlite") as store:
            spec_hash = store.record_campaign(spec)
            assert store.record_shard(spec_hash, cell, make_result(cell, shard=0))
            campaigns = store.campaigns()
            assert [c["spec_hash"] for c in campaigns] == [spec_hash]
            assert campaigns[0]["name"] == "unit"
            assert campaigns[0]["has_spec"] == 1
            assert campaigns[0]["repro_version"] == repro.__version__
            assert store.shard_keys() == [(spec_hash, cell.key, 0)]
            assert store.cell_sums(spec_hash)["counts"][cell.key]["trials"] == 4

    def test_spec_json_round_trips_canonically(self, tmp_path):
        spec = small_spec()
        with ResultsStore(tmp_path / "r.sqlite") as store:
            spec_hash = store.record_campaign(spec)
            stored = CampaignSpec.from_json(store.spec_json(spec_hash))
        assert stored == spec

    def test_duplicate_shard_insert_is_a_noop(self, tmp_path):
        spec = small_spec()
        cell = spec.cells()[0]
        with ResultsStore(tmp_path / "r.sqlite") as store:
            spec_hash = store.record_campaign(spec)
            assert store.record_shard(spec_hash, cell, make_result(cell, shard=0)) is True
            assert store.record_shard(spec_hash, cell, make_result(cell, shard=0)) is False
            assert len(store.shard_keys()) == 1

    def test_same_cell_key_under_two_specs_is_two_cells(self, tmp_path):
        spec_a = small_spec(seed=1)
        spec_b = small_spec(seed=2)
        cell = spec_a.cells()[0]
        assert cell.key == spec_b.cells()[0].key  # seed is not part of the key
        with ResultsStore(tmp_path / "r.sqlite") as store:
            for spec in (spec_a, spec_b):
                store.record_campaign(spec)
                store.record_shard(spec.spec_hash(), cell, make_result(cell, shard=0))
            assert len(store.shard_keys()) == 2

    def test_cell_result_mismatch_raises(self, tmp_path):
        spec = small_spec(schemes=("ecim", "trim"))
        first, second = spec.cells()
        with ResultsStore(tmp_path / "r.sqlite") as store:
            spec_hash = store.record_campaign(spec)
            with pytest.raises(EvaluationError, match="mismatch"):
                store.record_shard(spec_hash, first, make_result(second))

    def test_unknown_counter_is_rejected(self, tmp_path):
        spec = small_spec()
        cell = spec.cells()[0]
        with ResultsStore(tmp_path / "r.sqlite") as store:
            spec_hash = store.record_campaign(spec)
            with pytest.raises(EvaluationError, match="unknown shard counters"):
                store.upsert_shard(
                    spec_hash,
                    cell_fields(cell),
                    ShardResult(cell.key, 0, counts={"trials": 1, "bogus": 2}),
                )

    def test_stub_registration_never_erases_known_provenance(self, tmp_path):
        spec = small_spec()
        with ResultsStore(tmp_path / "r.sqlite") as store:
            spec_hash = store.record_campaign(spec)
            # A later bare re-registration (e.g. checkpoint ingest) with no
            # spec JSON must not null out the stored spec or backend.
            store.register_campaign(spec_hash, name="bare-reingest")
            campaign = store.campaigns()[0]
            assert campaign["name"] == "bare-reingest"
            assert campaign["has_spec"] == 1
            assert campaign["backend"] == DEFAULT_BACKEND


class TestFileLock:
    def test_reentrant_within_a_process(self, tmp_path):
        lock = FileLock(str(tmp_path / "x.lock"))
        with lock:
            with lock:
                assert lock.held
            assert lock.held
        assert not lock.held

    def test_times_out_against_a_foreign_holder(self, tmp_path):
        path = str(tmp_path / "x.lock")
        holder = FileLock(path)
        holder.acquire()
        try:
            contender = FileLock(path, timeout=0.2, poll_interval=0.01)
            with pytest.raises(LockTimeoutError):
                contender.acquire()
        finally:
            holder.release()

    def test_release_of_unheld_lock_raises(self, tmp_path):
        with pytest.raises(EvaluationError):
            FileLock(str(tmp_path / "x.lock")).release()
