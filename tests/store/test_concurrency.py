"""Concurrent-writer tests: parallel ingest/recording == serial ingest.

Two real OS processes hammer the same database at once (a barrier lines
them up so they genuinely contend for the advisory lock).  The contract:
the concurrent row set is *identical* to serial ingestion — no lost shards,
no duplicated shards, no corruption — even when both writers carry
overlapping records.
"""

import multiprocessing
import sqlite3

import pytest

from repro.campaign import run_campaign
from repro.campaign.checkpoint import CheckpointStore
from repro.store import ResultsStore, ingest_checkpoint, run_query

from test_database import make_result, small_spec

try:
    _CTX = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX platform
    _CTX = None

pytestmark = pytest.mark.skipif(
    _CTX is None, reason="fork start method required for the writer processes"
)


def _ingest_worker(db_path, checkpoint_paths, barrier):
    """Child process: open its own connection, sync up, ingest everything."""
    with ResultsStore(db_path) as store:
        barrier.wait(timeout=30)
        for path in checkpoint_paths:
            ingest_checkpoint(store, path)


def _record_worker(db_path, spec_dict, barrier):
    """Child process: record a whole campaign's shards live, one by one."""
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec.from_dict(spec_dict)
    with ResultsStore(db_path) as store:
        spec_hash = store.record_campaign(spec)
        barrier.wait(timeout=30)
        for cell in spec.cells():
            for shard in range(spec.shards_per_cell()):
                store.record_shard(spec_hash, cell, make_result(cell, shard=shard))


def _run_children(targets_and_args):
    processes = [_CTX.Process(target=t, args=a) for t, a in targets_and_args]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=60)
    assert all(process.exitcode == 0 for process in processes), [
        process.exitcode for process in processes
    ]


def _snapshot(db_path):
    """Everything that defines the database's logical content."""
    with ResultsStore(db_path) as store:
        integrity = store.rows("PRAGMA integrity_check")[0][0]
        campaigns = sorted(c["spec_hash"] for c in store.campaigns())
        return integrity, campaigns, store.shard_keys(), run_query(store)


class TestConcurrentWriters:
    def make_checkpoints(self, tmp_path):
        """Two tiny campaigns' checkpoints, written without running trials."""
        paths = []
        for index, spec in enumerate(
            [small_spec(seed=1, name="a"), small_spec(seed=2, name="b", schemes=("trim",))]
        ):
            path = tmp_path / f"ck{index}.jsonl"
            ck = CheckpointStore(path)
            for cell in spec.cells():
                ck.append(
                    spec.spec_hash(),
                    [make_result(cell, shard=shard) for shard in range(spec.shards_per_cell())],
                )
            paths.append(path)
        return paths

    def test_parallel_overlapping_ingest_equals_serial(self, tmp_path):
        ck_a, ck_b = self.make_checkpoints(tmp_path)

        serial_db = tmp_path / "serial.sqlite"
        with ResultsStore(serial_db) as store:
            ingest_checkpoint(store, ck_a)
            ingest_checkpoint(store, ck_b)

        concurrent_db = tmp_path / "concurrent.sqlite"
        ResultsStore(concurrent_db).close()  # pre-create so children only write rows
        barrier = _CTX.Barrier(2)
        # Opposite orders + full overlap: every record races its twin.
        _run_children(
            [
                (_ingest_worker, (str(concurrent_db), [str(ck_a), str(ck_b)], barrier)),
                (_ingest_worker, (str(concurrent_db), [str(ck_b), str(ck_a)], barrier)),
            ]
        )

        serial = _snapshot(serial_db)
        concurrent = _snapshot(concurrent_db)
        assert concurrent[0] == "ok"
        assert concurrent == serial

    def test_parallel_live_recording_loses_no_shards(self, tmp_path):
        specs = [
            small_spec(seed=5, name="left", schemes=("ecim", "trim")),
            small_spec(seed=6, name="right"),
        ]
        db = tmp_path / "live.sqlite"
        ResultsStore(db).close()
        barrier = _CTX.Barrier(2)
        _run_children(
            [(_record_worker, (str(db), spec.to_dict(), barrier)) for spec in specs]
        )
        integrity, campaigns, shard_keys, _query = _snapshot(db)
        assert integrity == "ok"
        assert campaigns == sorted(spec.spec_hash() for spec in specs)
        expected = sorted(
            (spec.spec_hash(), cell.key, shard)
            for spec in specs
            for cell in spec.cells()
            for shard in range(spec.shards_per_cell())
        )
        assert shard_keys == expected

    def test_live_run_racing_its_own_checkpoint_ingest(self, tmp_path):
        # The realistic collision: a campaign records live with --db while
        # someone ingests the (already-written) checkpoint of the same spec.
        spec = small_spec(seed=9, name="race")
        ck = tmp_path / "ck.jsonl"
        run_campaign(spec, workers=0, checkpoint=ck)  # leaves a full checkpoint

        db = tmp_path / "race.sqlite"
        ResultsStore(db).close()
        barrier = _CTX.Barrier(2)
        _run_children(
            [
                (_ingest_worker, (str(db), [str(ck)], barrier)),
                (_ingest_worker, (str(db), [str(ck)], barrier)),
            ]
        )
        integrity, _campaigns, shard_keys, _query = _snapshot(db)
        assert integrity == "ok"
        assert len(shard_keys) == spec.shards_per_cell() * len(spec.cells())
