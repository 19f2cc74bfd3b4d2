"""Tests for checkpoint -> results-store ingestion and cell-key parsing."""

import json

import pytest

from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.errors import EvaluationError
from repro.store import ResultsStore, ingest_checkpoint, parse_cell_key
from repro.store.database import cell_fields

from test_database import make_result, small_spec


CELL_VARIANTS = [
    CampaignCell("dot2", "ecim", "stt", 1e-3),
    CampaignCell("and2", "trim", "reram", 0.0, memory_error_rate=1e-4, multi_output=False),
    CampaignCell("fa1", "unprotected", "sot", 1e-2, faults_per_trial=3),
    CampaignCell("dot2", "ecim", "stt", 1e-3, fault_model="burst:length=3,window=8"),
    CampaignCell("dot2", "trim", "stt", 5e-4, fault_model="stuck-at:cells=7+3,value=0"),
    CampaignCell("dot2", "ecim", "stt", 1e-3, fault_model="stochastic:preset=1e-4"),
]


class TestParseCellKey:
    @pytest.mark.parametrize("cell", CELL_VARIANTS, ids=lambda c: c.key)
    def test_round_trips_every_cell_variant(self, cell):
        assert parse_cell_key(cell.key) == cell_fields(cell)

    @pytest.mark.parametrize(
        "key",
        [
            "too|few|fields",
            "w|s|t|x1.0e-3|m0.0e0|mo",  # gate field missing its 'g' tag
            "w|s|t|g1.0e-3|m0.0e0|both",  # bad gate-style tag
            "w|s|t|g1.0e-3|m0.0e0|mo|banana",  # unknown suffix
            "w|s|t|gnope|m0.0e0|mo",  # unparseable rate
        ],
    )
    def test_malformed_keys_raise(self, key):
        with pytest.raises(EvaluationError, match="malformed cell key"):
            parse_cell_key(key)


class TestIngestCheckpoint:
    def write_checkpoint(self, tmp_path, spec, shards_per_cell=2):
        """A checkpoint file as a real campaign run would leave it."""
        path = tmp_path / "ck.jsonl"
        ck = CheckpointStore(path)
        for cell in spec.cells():
            for shard in range(shards_per_cell):
                ck.append(spec.spec_hash(), make_result(cell, shard=shard))
        return path

    def test_ingest_then_reingest_is_idempotent(self, tmp_path):
        spec = small_spec(schemes=("ecim", "trim"))
        path = self.write_checkpoint(tmp_path, spec)
        with ResultsStore(tmp_path / "r.sqlite") as store:
            first = ingest_checkpoint(store, path)
            assert first.ingested == 4 and first.duplicates == 0
            baseline = store.shard_keys()
            second = ingest_checkpoint(store, path)
            assert second.ingested == 0 and second.duplicates == 4
            assert store.shard_keys() == baseline

    def test_bare_ingest_recovers_cell_columns_from_the_key(self, tmp_path):
        spec = small_spec()
        cell = spec.cells()[0]
        path = self.write_checkpoint(tmp_path, spec, shards_per_cell=1)
        with ResultsStore(tmp_path / "r.sqlite") as store:
            ingest_checkpoint(store, path)
            row = store.rows(
                "SELECT workload, scheme, technology, gate_error_rate FROM cells"
            )[0]
        assert tuple(row) == ("and2", "ecim", "stt", 0.01)
        assert parse_cell_key(cell.key)["workload"] == "and2"

    def test_bare_ingest_registers_stub_campaign_named_after_file(self, tmp_path):
        spec = small_spec()
        path = self.write_checkpoint(tmp_path, spec)
        with ResultsStore(tmp_path / "r.sqlite") as store:
            ingest_checkpoint(store, path)
            campaign = store.campaigns()[0]
        assert campaign["name"] == "ck.jsonl"
        assert campaign["has_spec"] == 0

    def test_spec_ingest_records_full_provenance_and_filters(self, tmp_path):
        spec = small_spec()
        other = small_spec(seed=99)
        path = self.write_checkpoint(tmp_path, spec)
        ck = CheckpointStore(path)
        for cell in other.cells():
            ck.append(other.spec_hash(), make_result(cell, shard=0))
        with ResultsStore(tmp_path / "r.sqlite") as store:
            report = ingest_checkpoint(store, path, spec=spec)
            assert report.skipped_other_spec == 1
            assert report.campaigns == {spec.spec_hash()}
            assert CampaignSpec.from_json(store.spec_json(spec.spec_hash())) == spec

    def test_torn_and_drifted_lines_are_counted_not_fatal(self, tmp_path):
        spec = small_spec()
        path = self.write_checkpoint(tmp_path, spec, shards_per_cell=1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "spec_hash": spec.spec_hash(),
                        "cell": "not|a|valid|key",
                        "shard": 9,
                        "counts": {"counter_from_the_future": 1},
                    }
                )
                + "\n"
            )
            # Malformed strata under a valid cell key: a stratum that is no
            # object, and one missing its population probability.
            for shard, strata in ((7, {"k=0": 5}), (8, {"k=0": {"trials": 4}})):
                handle.write(
                    json.dumps(
                        {
                            "spec_hash": spec.spec_hash(),
                            "cell": spec.cells()[0].key,
                            "shard": shard,
                            "counts": {"trials": 4},
                            "strata": strata,
                        }
                    )
                    + "\n"
                )
            handle.write('{"spec_hash": "abc", "cell": "x", "sha')  # torn tail
        with ResultsStore(tmp_path / "r.sqlite") as store:
            report = ingest_checkpoint(store, path)
            assert report.ingested == 1
            assert report.skipped_malformed == 4
            assert len(store.shard_keys()) == 1

    def test_valid_record_with_unparseable_cell_key_is_skipped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        ck = CheckpointStore(path)
        ck.append("feedbeeffeedbeef", make_result(small_spec().cells()[0], shard=0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {"spec_hash": "feedbeeffeedbeef", "cell": "garbage-key",
                     "shard": 1, "counts": {"trials": 4}}
                )
                + "\n"
            )
        with ResultsStore(tmp_path / "r.sqlite") as store:
            report = ingest_checkpoint(store, path)
            assert report.ingested == 1
            assert report.skipped_malformed == 1

    def test_ingest_after_live_recording_adds_nothing(self, tmp_path):
        # A campaign recorded live via --db then ingested from its own
        # checkpoint must converge on the identical row set.
        from repro.campaign import run_campaign

        spec = small_spec()
        db = tmp_path / "r.sqlite"
        ck = tmp_path / "ck.jsonl"
        run_campaign(spec, workers=0, checkpoint=ck, db=db)
        with ResultsStore(db) as store:
            baseline = store.shard_keys()
            report = ingest_checkpoint(store, ck, spec=spec)
            assert report.ingested == 0
            assert report.duplicates == len(baseline) == 2
            assert store.shard_keys() == baseline
