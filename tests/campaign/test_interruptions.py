"""Interrupted campaigns resume to the bytes of an uninterrupted run.

* A pooled campaign one of whose worker processes dies fails with an
  :class:`~repro.errors.EvaluationError`, leaves only whole checkpoint
  lines behind, and resumes to an uninterrupted run's lines; the CLI says
  so in two lines and exits with status 1.
* Qualification by repeated stress: a dot2 campaign recording into a
  checkpoint and a results store is interrupted after a seeded random
  commit five times, and resumed after each.  Its checkpoint lines and
  ``repro query`` output then equal an uninterrupted run's, serially and
  on a pool.
"""

import contextlib
import io
import json
import multiprocessing
import os
import random

import pytest

import repro.campaign.worker as worker
from repro.__main__ import main
from repro.campaign import CampaignSpec, run_campaign
from repro.core.batched import sample_input_matrix
from repro.errors import EvaluationError
from repro.store import ResultsStore

#: The hook below reaches pool workers because they are forked after the
#: test patches it in; other start methods import a fresh module.
requires_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying hook reaches pool workers by fork inheritance",
)

#: 80 trials in shards of 5: a two-worker pool runs groups of 4 shards,
#: starting at trials 0, 20, 40 and 60.
DYING_SPEC = dict(
    workloads=("and2",),
    schemes=("ecim",),
    technologies=("stt",),
    gate_error_rates=(1e-2,),
    trials=80,
    shard_size=5,
    seed=29,
    name="dying-worker",
)
DIE_AT_TRIAL = 40


def _die_in_one_group(netlist, stream):
    """``sample_input_matrix`` that kills its process in the one group
    starting at :data:`DIE_AT_TRIAL`."""
    if int(stream.trials[0]) == DIE_AT_TRIAL:
        os._exit(1)
    return sample_input_matrix(netlist, stream)


def _lines(path):
    return sorted(path.read_text(encoding="utf-8").splitlines())


@requires_fork
def test_dead_worker_fails_cleanly_and_the_campaign_resumes(tmp_path, monkeypatch):
    spec = CampaignSpec(**DYING_SPEC)
    path = tmp_path / "died.jsonl"
    monkeypatch.setattr(worker, "sample_input_matrix", _die_in_one_group)
    with pytest.raises(EvaluationError, match="worker process died"):
        run_campaign(spec, workers=2, checkpoint=path)
    monkeypatch.undo()

    text = path.read_text(encoding="utf-8")
    assert text == "" or text.endswith("\n")
    kept = text.splitlines()
    assert len(kept) < len(spec.shards())
    for line in kept:
        json.loads(line)

    resumed = run_campaign(spec, workers=2, checkpoint=path)
    assert resumed.resumed_shards == len(kept)
    run_campaign(spec, workers=0, checkpoint=tmp_path / "whole.jsonl")
    assert _lines(path) == _lines(tmp_path / "whole.jsonl")


@requires_fork
def test_cli_reports_a_dead_worker_and_exits_with_status_1(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cli.jsonl"
    monkeypatch.setattr(worker, "sample_input_matrix", _die_in_one_group)
    status = main(
        [
            "campaign", "--workloads", "and2", "--schemes", "ecim", "--rates", "1e-2",
            "--trials", "80", "--shard-size", "5", "--workers", "2", "--quiet",
            "--checkpoint", str(path),
        ]
    )
    err = capsys.readouterr().err
    assert status == 1
    assert "campaign failed: a campaign worker process died" in err
    assert f"completed shards are saved in {path}; re-run the same command to resume" in err


#: 12 cells of 4 shards: 12 groups serially and on a first two-worker pool,
#: more than five interruptions of at most three commits each can use up.
QUALIFY_SPEC = dict(
    workloads=("dot2",),
    schemes=("unprotected", "ecim", "trim"),
    technologies=("stt",),
    gate_error_rates=(1e-4, 1e-3, 3e-3, 1e-2),
    trials=400,
    shard_size=100,
    seed=31,
    name="kill-and-resume",
)
INTERRUPTIONS = 5


class InterruptAfter:
    """A ``progress`` callback raising KeyboardInterrupt on its
    ``commits``-th call, i.e. right after that commit is durable."""

    def __init__(self, commits):
        self.commits = commits
        self.calls = 0

    def __call__(self, done, total):
        self.calls += 1
        if self.calls == self.commits:
            raise KeyboardInterrupt


def _query(db):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["query", "--db", str(db), "--format", "json"]) == 0
    return out.getvalue()


def _shard_keys(db):
    with ResultsStore(db) as store:
        return store.shard_keys()


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    root = tmp_path_factory.mktemp("uninterrupted")
    path, db = root / "whole.jsonl", root / "whole.sqlite"
    run_campaign(CampaignSpec(**QUALIFY_SPEC), workers=0, checkpoint=path, db=db)
    return _lines(path), _query(db), _shard_keys(db)


@pytest.mark.parametrize("workers", [0, 2])
def test_kill_and_resume_qualification(workers, tmp_path, uninterrupted):
    spec = CampaignSpec(**QUALIFY_SPEC)
    path, db = tmp_path / "ck.jsonl", tmp_path / "results.sqlite"
    rng = random.Random(f"kill-and-resume-{workers}")
    interrupted = 0
    for _ in range(INTERRUPTIONS):
        try:
            run_campaign(
                spec,
                workers=workers,
                checkpoint=path,
                db=db,
                progress=InterruptAfter(rng.randint(1, 3)),
            )
        except KeyboardInterrupt:
            interrupted += 1
    assert interrupted == INTERRUPTIONS

    final = run_campaign(spec, workers=workers, checkpoint=path, db=db)
    assert final.executed_shards > 0
    lines, query, shard_keys = uninterrupted
    assert _lines(path) == lines
    assert _query(db) == query
    assert _shard_keys(db) == shard_keys
