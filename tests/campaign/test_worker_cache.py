"""Per-process executor/plan cache: bounded size, eviction, explicit clear.

Long multi-cell campaigns used to accumulate one executor per distinct cell
configuration for the life of each worker process; the caches are now LRU
maps capped at ``CACHE_LIMIT`` entries.
"""

from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.worker import (
    CACHE_LIMIT,
    _EXECUTOR_CACHE,
    _PLAN_CACHE,
    _executor_for,
    _plan_for,
    clear_executor_cache,
)


def distinct_cells(n):
    """More than CACHE_LIMIT cheap, distinct cell configurations."""
    cells = []
    for workload in ("and2", "dot2"):
        for scheme in ("unprotected", "ecim", "trim"):
            for technology in ("stt", "sot", "reram"):
                for multi_output in (True, False):
                    cells.append(
                        CampaignCell(
                            workload=workload,
                            scheme=scheme,
                            technology=technology,
                            gate_error_rate=1e-3,
                            multi_output=multi_output,
                        )
                    )
    assert len(cells) >= n
    return cells[:n]


class TestExecutorCacheBound:
    def test_cache_never_exceeds_limit(self):
        clear_executor_cache()
        for cell in distinct_cells(CACHE_LIMIT + 5):
            _executor_for(cell)
            assert len(_EXECUTOR_CACHE) <= CACHE_LIMIT
        clear_executor_cache()

    def test_least_recently_used_entry_evicted_first(self):
        clear_executor_cache()
        cells = distinct_cells(CACHE_LIMIT + 1)
        first = _executor_for(cells[0])
        for cell in cells[1:CACHE_LIMIT]:
            _executor_for(cell)
        # Refresh the oldest entry, then overflow: the *second*-oldest must
        # be the victim and the refreshed one must survive.
        assert _executor_for(cells[0]) is first
        _executor_for(cells[CACHE_LIMIT])
        assert len(_EXECUTOR_CACHE) == CACHE_LIMIT
        assert _executor_for(cells[0]) is first
        clear_executor_cache()

    def test_hit_returns_same_instance(self):
        clear_executor_cache()
        cell = distinct_cells(1)[0]
        assert _executor_for(cell) is _executor_for(cell)
        clear_executor_cache()


class TestPlanCacheBound:
    def test_plan_cache_bounded_and_technology_independent(self):
        clear_executor_cache()
        cells = distinct_cells(CACHE_LIMIT + 5)
        for cell in cells:
            _plan_for(cell, "batched")
            assert len(_PLAN_CACHE) <= CACHE_LIMIT
        # stt and sot variants of the same (workload, scheme, style) share
        # one compiled plan.
        clear_executor_cache()
        stt = CampaignCell("and2", "ecim", "stt", 1e-3)
        sot = CampaignCell("and2", "ecim", "sot", 1e-3)
        assert _plan_for(stt, "batched") is _plan_for(sot, "batched")
        clear_executor_cache()


class TestClear:
    def test_clear_empties_both_caches(self):
        cell = distinct_cells(1)[0]
        _executor_for(cell)
        _plan_for(cell, "batched")
        assert _EXECUTOR_CACHE and _PLAN_CACHE
        clear_executor_cache()
        assert not _EXECUTOR_CACHE
        assert not _PLAN_CACHE

    def test_campaign_spec_round_trip_still_valid_after_clear(self):
        # Guard: clearing caches must not break the next shard run.
        from repro.campaign.worker import run_shard

        clear_executor_cache()
        task = CampaignSpec(
            workloads=("and2",), schemes=("ecim",), gate_error_rates=(1e-3,),
            trials=5, shard_size=5, seed=1, backend="scalar",
        ).shards()[0]
        assert run_shard(task).counts["trials"] == 5
