"""End-to-end runner tests: determinism across worker counts and resume."""

import pytest

from repro.campaign import (
    CampaignSpec,
    CheckpointStore,
    run_campaign,
    run_shard,
)
from repro.campaign.worker import clear_executor_cache, shard_groups


def small_spec(**overrides):
    defaults = dict(
        workloads=("and2",),
        schemes=("unprotected", "ecim", "trim"),
        technologies=("stt",),
        gate_error_rates=(1e-2,),
        trials=40,
        shard_size=10,
        seed=11,
        name="runner-test",
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestDeterminism:
    def test_serial_repeatable(self):
        spec = small_spec()
        assert run_campaign(spec, workers=0).counts_by_cell == run_campaign(
            spec, workers=0
        ).counts_by_cell

    def test_serial_matches_two_workers(self):
        spec = small_spec()
        serial = run_campaign(spec, workers=0)
        parallel = run_campaign(spec, workers=2)
        assert serial.counts_by_cell == parallel.counts_by_cell

    def test_shard_size_does_not_change_aggregates(self):
        coarse = run_campaign(small_spec(shard_size=40), workers=0)
        fine = run_campaign(small_spec(shard_size=7), workers=0)
        assert coarse.counts_by_cell == fine.counts_by_cell

    def test_fresh_executor_matches_reused_executor(self):
        # The per-process executor cache (reset + rerun) must not change
        # outcomes relative to building a brand-new executor per shard.
        spec = small_spec(schemes=("ecim",), trials=10, shard_size=10, backend="scalar")
        task = spec.shards()[0]
        clear_executor_cache()
        first = run_shard(task)
        again = run_shard(task)  # now served by the reused executor
        assert first == again

    def test_different_seeds_differ(self):
        # 40 trials at 1e-2 over ECiM metadata sites: collision of every
        # counter across two seeds would mean seeding is broken.
        a = run_campaign(small_spec(seed=1, schemes=("ecim",)), workers=0)
        b = run_campaign(small_spec(seed=2, schemes=("ecim",)), workers=0)
        assert a.counts_by_cell != b.counts_by_cell


class TestDrainTasks:
    def test_record_receives_each_group_in_shard_order(self):
        from repro.campaign.runner import drain_tasks

        spec = small_spec(schemes=("ecim", "trim"), trials=40, shard_size=5)
        for workers, group_sizes in ((0, [8, 8]), (2, [4, 4, 4, 4])):
            recorded = []
            drain_tasks(workers, spec.shards(), recorded.append)
            recorded.sort(key=lambda group: (group[0].cell_key, group[0].shard_index))
            assert [len(group) for group in recorded] == group_sizes
            for group in recorded:
                assert len({result.cell_key for result in group}) == 1
                first = group[0].shard_index
                assert [result.shard_index for result in group] == list(
                    range(first, first + len(group))
                )

    def test_poisoned_record_callback_propagates_and_terminates(self):
        # Regression: a record callback that raises (e.g. a full-disk
        # checkpoint append) used to leave queued groups running behind the
        # pool's context-manager exit; drain_tasks must cancel the backlog
        # and surface the original exception promptly.
        from repro.campaign.runner import drain_tasks

        # Scalar shards run one per group: 16 groups, more than the pool
        # holds in flight.
        spec = small_spec(schemes=("ecim",), trials=80, shard_size=5, backend="scalar")
        pending = spec.shards()
        assert len(list(shard_groups(pending, 2))) == 16
        recorded = []

        def poisoned(results):
            recorded.append(results)
            if len(recorded) == 2:
                raise RuntimeError("record sink failed")

        with pytest.raises(RuntimeError, match="record sink failed"):
            drain_tasks(2, pending, poisoned)
        assert len(recorded) == 2

    def test_serial_path_stops_at_the_poisoned_record(self):
        from repro.campaign.runner import drain_tasks

        spec = small_spec(schemes=("ecim", "trim"), trials=20, shard_size=5)
        recorded = []

        def poisoned(results):
            recorded.append(results)
            raise RuntimeError("record sink failed")

        with pytest.raises(RuntimeError, match="record sink failed"):
            drain_tasks(0, spec.shards(), poisoned)
        assert [len(group) for group in recorded] == [4]


class TestResume:
    def test_second_run_resumes_everything(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "campaign.jsonl"
        first = run_campaign(spec, workers=0, checkpoint=path)
        assert first.executed_shards == len(spec.shards())
        assert first.resumed_shards == 0

        second = run_campaign(spec, workers=0, checkpoint=path)
        assert second.executed_shards == 0
        assert second.resumed_shards == len(spec.shards())
        assert second.counts_by_cell == first.counts_by_cell

    def test_partial_checkpoint_runs_only_missing_shards(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "campaign.jsonl"
        store = CheckpointStore(path)
        shards = spec.shards()
        store.append(spec.spec_hash(), [run_shard(task) for task in shards[:5]])

        result = run_campaign(spec, workers=0, checkpoint=path)
        assert result.resumed_shards == 5
        assert result.executed_shards == len(shards) - 5
        assert result.counts_by_cell == run_campaign(spec, workers=0).counts_by_cell

    def test_changed_seed_invalidates_checkpoint(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        run_campaign(small_spec(seed=1), workers=0, checkpoint=path)
        rerun = run_campaign(small_spec(seed=2), workers=0, checkpoint=path)
        assert rerun.resumed_shards == 0
        assert rerun.executed_shards == len(small_spec().shards())

    def test_resume_with_different_worker_count(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "campaign.jsonl"
        store = CheckpointStore(path)
        store.append(spec.spec_hash(), [run_shard(task) for task in spec.shards()[:4]])
        resumed = run_campaign(spec, workers=2, checkpoint=path)
        assert resumed.resumed_shards == 4
        assert resumed.counts_by_cell == run_campaign(spec, workers=0).counts_by_cell


class TestOutcomes:
    def test_every_trial_lands_in_exactly_one_outcome(self):
        result = run_campaign(small_spec(), workers=0)
        for counts in result.counts_by_cell.values():
            assert counts["trials"] == 40
            assert (
                counts["clean"]
                + counts["recovered"]
                + counts["detected_corruption"]
                + counts["silent_corruption"]
                == counts["trials"]
            )
            assert counts["correct"] == counts["clean"] + counts["recovered"]
            assert counts["detected"] == counts["recovered"] + counts["detected_corruption"]

    def test_zero_error_rate_is_fault_free_and_fully_covered(self):
        result = run_campaign(small_spec(gate_error_rates=(0.0,), trials=5), workers=0)
        for counts in result.counts_by_cell.values():
            assert counts["correct"] == 5
            assert counts["faults_injected"] == 0
            assert counts["detected"] == 0

    def test_progress_callback_sees_every_shard(self):
        spec = small_spec()
        seen = []
        run_campaign(spec, workers=0, progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (len(spec.shards()), len(spec.shards()))
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_unknown_workload_raises(self):
        from repro.errors import UnknownWorkloadError

        with pytest.raises(UnknownWorkloadError):
            run_campaign(small_spec(workloads=("warp-core",), trials=1), workers=0)
