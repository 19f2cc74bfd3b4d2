"""RNG contract 2 is one versioned break: specs carry ``rng_contract: 2``,
checkpoints written under contract 1 stay ingestible and queryable, but a
campaign refuses to resume them instead of silently starting over."""

import contextlib
import io
import json

import pytest

from repro.__main__ import main
from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.worker import run_shard
from repro.core.rng import RNG_CONTRACT
from repro.errors import EvaluationError


def _spec(**overrides):
    fields = dict(
        workloads=("and2",), schemes=("ecim",), gate_error_rates=(1e-2,),
        trials=8, shard_size=4, seed=3, name="compat",
    )
    fields.update(overrides)
    return CampaignSpec(**fields)


@pytest.fixture
def v1_checkpoint(tmp_path):
    """A checkpoint whose records sit under the spec's contract-1 hash, as a
    run before the break would have left them."""
    spec = _spec()
    path = tmp_path / "v1.jsonl"
    store = CheckpointStore(path)
    for task in spec.shards():
        store.append(spec.spec_hash_v1(), run_shard(task))
    return spec, path


def _cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(argv)
    return status, buffer.getvalue()


class TestSpecFormat:
    def test_to_dict_always_writes_the_contract(self):
        assert _spec().to_dict()["rng_contract"] == RNG_CONTRACT == 2

    def test_missing_contract_reads_as_two(self):
        data = _spec().to_dict()
        del data["rng_contract"]
        assert CampaignSpec.from_dict(data).spec_hash() == _spec().spec_hash()

    def test_every_hash_changes_with_the_contract(self):
        spec = _spec()
        assert spec.spec_hash() != spec.spec_hash_v1()

    @pytest.mark.parametrize("contract", [1, 3, "2"])
    def test_other_contracts_rejected_with_a_pointer(self, contract):
        data = {**_spec().to_dict(), "rng_contract": contract}
        with pytest.raises(EvaluationError, match="repro store ingest"):
            CampaignSpec.from_dict(data)

    def test_contract_one_spec_file_rejected_at_the_cli(self, tmp_path, capsys):
        path = tmp_path / "v1-spec.json"
        path.write_text(json.dumps({**_spec().to_dict(), "rng_contract": 1}))
        status = main(["campaign", "--spec", str(path), "--quiet"])
        assert status != 0
        assert "repro store ingest" in capsys.readouterr().err


class TestContractOneCheckpoints:
    def test_resume_refuses_before_any_shard_runs(self, v1_checkpoint, tmp_path):
        spec, path = v1_checkpoint
        before = path.read_text()
        db = tmp_path / "refused.sqlite"
        with pytest.raises(EvaluationError, match="repro store ingest"):
            run_campaign(spec, workers=0, checkpoint=path, db=db)
        assert path.read_text() == before
        assert not db.exists()

    def test_ingest_records_the_shards_and_query_returns_them(self, v1_checkpoint, tmp_path):
        spec, path = v1_checkpoint
        db = str(tmp_path / "v1.sqlite")
        status, out = _cli(["store", "ingest", str(path), "--db", db])
        assert status == 0
        assert f"{spec.shards_per_cell()} shard(s) ingested" in out
        status, out = _cli(["query", "--db", db, "--format", "json"])
        assert status == 0
        (row,) = json.loads(out)
        assert (row["workload"], row["scheme"]) == ("and2", "ecim")
        assert row["trials"] == spec.trials

    def test_a_fresh_checkpoint_still_resumes(self, tmp_path):
        path = tmp_path / "v2.jsonl"
        first = run_campaign(_spec(), workers=0, checkpoint=path)
        again = run_campaign(_spec(), workers=0, checkpoint=path)
        assert again.executed_shards == 0
        assert again.counts_by_cell == first.counts_by_cell
