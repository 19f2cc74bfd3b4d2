"""Serial campaigns run a cell's consecutive pending shards as one batch.

Pinned here, on both tape backends:

* every campaign fault source and estimator writes the same checkpoint
  lines grouped (serial) as one shard per task (a two-worker pool) and as
  :func:`run_shard` on each shard alone — a ragged last shard included;
* a resume whose checkpoint has a hole splits groups at the hole and
  still matches a fresh run;
* :func:`shard_groups` never exceeds the backend class's cap, never mixes
  cells or stratified allocations, and never groups scalar shards.
"""

import pytest

import repro.campaign.runner as runner
from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignCell, CampaignSpec, ShardTask
from repro.campaign.worker import run_shard, run_shards, shard_groups
from repro.core.backend import backend_class
from repro.errors import EvaluationError

TAPE_BACKENDS = ("batched", "bitpacked")

#: Campaign sources: spec fields beyond the shared grid.  Every one runs 23
#: trials per cell in shards of 5, so each cell's last shard holds 3.
SOURCES = {
    "stochastic": dict(fault_model="stochastic"),
    "burst": dict(fault_model="burst:length=3,window=8"),
    "stuck-at": dict(fault_model="stuck-at:cells=3+6,value=1"),
    "faults-per-trial": dict(faults_per_trial=2),
    "application": dict(workloads=("fft4",), application=True),
    "importance": dict(estimator="importance:rate=5e-2"),
    "stratified": dict(estimator="stratified:k_max=2,allocation=neyman,pilot=12"),
}


def _spec(backend, **fields):
    grid = dict(
        workloads=("and2",),
        schemes=("ecim", "trim"),
        technologies=("stt",),
        gate_error_rates=(1e-2,),
        trials=23,
        shard_size=5,
        seed=17,
        backend=backend,
        name="shard-groups",
    )
    grid.update(fields)
    return CampaignSpec(**grid)


def _lines(path):
    return sorted(path.read_text(encoding="utf-8").splitlines())


def _grouped_run(spec, path, monkeypatch):
    """Run ``spec`` serially into ``path``; returns the groups it batched."""
    groups = []

    def spy(tasks):
        groups.append(list(tasks))
        return run_shards(tasks)

    monkeypatch.setattr(runner, "run_shards", spy)
    result = run_campaign(spec, workers=0, checkpoint=path)
    monkeypatch.undo()
    return result, groups


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("backend", TAPE_BACKENDS)
def test_grouped_run_matches_pool_and_single_shards(backend, source, tmp_path, monkeypatch):
    spec = _spec(backend, **SOURCES[source])
    grouped, groups = _grouped_run(spec, tmp_path / "grouped.jsonl", monkeypatch)
    assert max(len(group) for group in groups) == 5  # a whole cell per batch
    assert any(group[-1].n_trials == 3 for group in groups)

    pooled = run_campaign(spec, workers=2, checkpoint=tmp_path / "pooled.jsonl")
    assert _lines(tmp_path / "grouped.jsonl") == _lines(tmp_path / "pooled.jsonl")
    assert grouped.counts_by_cell == pooled.counts_by_cell

    alone = CheckpointStore(tmp_path / "alone.jsonl")
    for task in (task for group in groups for task in group):
        alone.append(spec.spec_hash(), run_shard(task))
    assert _lines(tmp_path / "grouped.jsonl") == _lines(tmp_path / "alone.jsonl")


@pytest.mark.parametrize("backend", TAPE_BACKENDS)
def test_resume_splits_groups_at_the_gap(backend, tmp_path, monkeypatch):
    spec = _spec(backend, schemes=("ecim",), trials=25)
    shards = spec.shards()
    path = tmp_path / "resumed.jsonl"
    store = CheckpointStore(path)
    for task in (shards[0], shards[2]):
        store.append(spec.spec_hash(), run_shard(task))

    resumed, groups = _grouped_run(spec, path, monkeypatch)
    assert [[task.shard_index for task in group] for group in groups] == [[1], [3, 4]]
    assert resumed.resumed_shards == 2

    fresh = run_campaign(spec, workers=0, checkpoint=tmp_path / "fresh.jsonl")
    assert _lines(path) == _lines(tmp_path / "fresh.jsonl")
    assert resumed.counts_by_cell == fresh.counts_by_cell


def test_groups_stay_under_the_cap_and_within_one_cell():
    spec = _spec("bitpacked", trials=10_000, shard_size=250)
    cap = backend_class("bitpacked").max_batch_trials
    groups = list(shard_groups(spec.shards()))
    assert [len(group) for group in groups] == [16, 16, 8] * 2
    for group in groups:
        assert sum(task.n_trials for task in group) <= cap
        assert len({task.cell for task in group}) == 1
    assert [task for group in groups for task in group] == spec.shards()


def test_a_shard_over_the_cap_runs_alone():
    spec = _spec("bitpacked", schemes=("ecim",), trials=10_000, shard_size=5000)
    assert [len(group) for group in shard_groups(spec.shards())] == [1, 1]


def test_allocations_and_rounds_never_share_a_group():
    cell = CampaignCell(workload="and2", scheme="ecim", technology="stt", gate_error_rate=0.01)

    def task(index, allocation, block_start=0):
        return ShardTask(
            cell=cell, shard_index=index, start_trial=5 * index, n_trials=5, campaign_seed=1,
            backend="bitpacked", estimator="stratified:k_max=2",
            allocation=allocation, block_start=block_start,
        )

    tasks = [
        task(0, (4, 4, 1, 1)),
        task(1, (4, 4, 1, 1)),
        task(2, (7, 1, 1, 1)),
        task(3, (7, 1, 1, 1), block_start=15),
    ]
    assert [[t.shard_index for t in g] for g in shard_groups(tasks)] == [[0, 1], [2], [3]]


def test_scalar_shards_are_never_grouped():
    spec = _spec("scalar", trials=40, shard_size=5)
    assert backend_class("scalar").max_batch_trials == 1
    assert all(len(group) == 1 for group in shard_groups(spec.shards()))


def test_run_shards_rejects_shards_that_do_not_continue():
    shards = _spec("bitpacked").shards()
    with pytest.raises(EvaluationError, match="does not continue"):
        run_shards([shards[0], shards[2]])
    with pytest.raises(EvaluationError, match="does not continue"):
        run_shards([shards[4], shards[5]])  # last shard of one cell, first of the next
