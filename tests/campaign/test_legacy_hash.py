"""Checkpoints filed under the spec hashes a campaign had before the
backend left its identity still resume, and still ingest.

``legacy_hash/`` holds files written by ``python -m repro campaign --spec
legacy_hash/spec.json --backend B --checkpoint B.jsonl --workers 0`` for
B = bitpacked and batched, while the spec hash still named a non-scalar
backend (``6462c01a2561c5ad`` and ``0bcdf9f1a10eae3a``; the backend-free
hash is ``f4c968f7b340704d``).  ``table.txt`` is the table both runs printed.
``bitpacked_contract1.jsonl`` is the first bitpacked record re-tagged with
that spec's RNG-contract-1 hash (``93e49506b21dedf6``), as a checkpoint from
before the contract-2 break would file it.
"""

import contextlib
import io
import json
import os
import shutil

import pytest

from repro.__main__ import main
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.aggregate import ShardResult, merge_shards
from repro.core.backend import BACKEND_NAMES
from repro.errors import EvaluationError
from repro.store import ResultsStore

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "legacy_hash")
WRITTEN_ON = ("bitpacked", "batched")


def data_path(name):
    return os.path.join(DATA, name)


def fixture_spec(backend=None):
    with open(data_path("spec.json"), encoding="utf-8") as handle:
        data = json.load(handle)
    return CampaignSpec.from_dict({**data, "backend": backend})


def fixture_lines(written_on):
    with open(data_path(f"{written_on}.jsonl"), encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def copied(tmp_path, name):
    target = tmp_path / name
    shutil.copyfile(data_path(name), target)
    return target


def cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(argv)
    return status, buffer.getvalue()


def test_hashes_are_the_ones_the_files_were_written_under():
    spec = fixture_spec()
    assert spec.spec_hash() == "f4c968f7b340704d"
    assert spec.resume_hashes() == (
        "f4c968f7b340704d", "0bcdf9f1a10eae3a", "6462c01a2561c5ad",
    )
    assert fixture_lines("batched")[0]["spec_hash"] == "0bcdf9f1a10eae3a"
    assert fixture_lines("bitpacked")[0]["spec_hash"] == "6462c01a2561c5ad"
    assert "93e49506b21dedf6" in spec.spec_hashes_v1()


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("written_on", WRITTEN_ON)
def test_checkpoint_resumes_on_every_backend(tmp_path, written_on, backend):
    path = copied(tmp_path, f"{written_on}.jsonl")
    before = path.read_text()
    db = tmp_path / "resumed.sqlite"
    result = run_campaign(fixture_spec(backend), workers=0, checkpoint=path, db=db)
    assert result.executed_shards == 0
    assert result.resumed_shards == len(fixture_lines(written_on)) == 6
    recorded = merge_shards([ShardResult.from_dict(line) for line in fixture_lines(written_on)])
    assert result.counts_by_cell == recorded["counts"]
    with open(data_path("table.txt"), encoding="utf-8") as handle:
        assert result.rendered + "\n" == handle.read()
    assert path.read_text() == before
    # Resumed shards are recorded under the backend-free hash.
    with ResultsStore(db) as store:
        (campaign,) = store.campaigns()
        assert campaign["spec_hash"] == "f4c968f7b340704d"
        assert campaign["shards"] == 6


def test_ingest_with_the_spec_takes_every_line(tmp_path):
    db = str(tmp_path / "ingested.sqlite")
    paths = [str(copied(tmp_path, f"{name}.jsonl")) for name in WRITTEN_ON]
    status, out = cli(
        ["store", "ingest", *paths, "--db", db, "--spec", data_path("spec.json")]
    )
    assert status == 0
    # Both files hold the same six shards: the second is all duplicates.
    assert "6 shard(s) ingested, 0 duplicate(s), 0 other-spec" in out
    assert "0 shard(s) ingested, 6 duplicate(s), 0 other-spec" in out
    with ResultsStore(db) as store:
        assert [row["spec_hash"] for row in store.campaigns()] == ["f4c968f7b340704d"]


def test_bare_ingest_keeps_each_line_hash(tmp_path):
    db = str(tmp_path / "bare.sqlite")
    paths = [str(copied(tmp_path, f"{name}.jsonl")) for name in WRITTEN_ON]
    assert cli(["store", "ingest", *paths, "--db", db])[0] == 0
    with ResultsStore(db) as store:
        hashes = sorted(row["spec_hash"] for row in store.campaigns())
    assert hashes == ["0bcdf9f1a10eae3a", "6462c01a2561c5ad"]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_contract_one_record_is_refused_before_any_shard_runs(tmp_path, backend):
    path = copied(tmp_path, "bitpacked_contract1.jsonl")
    before = path.read_text()
    db = tmp_path / "refused.sqlite"
    with pytest.raises(EvaluationError, match="RNG contract 1"):
        run_campaign(fixture_spec(backend), workers=0, checkpoint=path, db=db)
    assert path.read_text() == before
    assert not db.exists()
