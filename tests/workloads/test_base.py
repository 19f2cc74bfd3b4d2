"""Tests for the workload-spec plumbing (level groups, registry, block measurement)."""

import pytest

from repro.campaign.workloads import available_campaign_workloads, get_campaign_workload
from repro.core.protection import LevelProfile
from repro.errors import UnknownWorkloadError
from repro.workloads import PAPER_BENCHMARKS
from repro.workloads.base import (
    LevelGroup,
    available_workloads,
    block_level_profiles,
    block_summary,
    get_workload,
    register_workload,
    repeat_groups,
)
from repro.workloads.matmul import mac_block_netlist


class TestRegistry:
    def test_all_paper_benchmarks_registered(self):
        names = available_workloads()
        for benchmark in PAPER_BENCHMARKS:
            assert benchmark in names

    def test_twelve_paper_benchmarks(self):
        assert len(PAPER_BENCHMARKS) == 12

    def test_lookup_is_case_insensitive(self):
        assert get_workload("MM8").name == "mm8"

    def test_unknown_workload(self):
        with pytest.raises(UnknownWorkloadError):
            get_workload("transformer")

    def test_register_custom_workload(self):
        spec = get_workload("mm8")
        register_workload("custom-mm8", lambda: spec)
        assert get_workload("custom-mm8").name == "mm8"


class TestLevelGroups:
    def test_group_validation(self):
        with pytest.raises(UnknownWorkloadError):
            LevelGroup(LevelProfile(1), count=0)

    def test_repeat_groups_merges_adjacent_identical_profiles(self):
        profile = LevelProfile(n_nor_gates=3)
        groups = (LevelGroup(profile, 2),)
        repeated = repeat_groups(groups, 3)
        assert len(repeated) == 1
        assert repeated[0].count == 6

    def test_repeat_groups_preserves_distinct_profiles(self):
        a = LevelGroup(LevelProfile(n_nor_gates=3), 1)
        b = LevelGroup(LevelProfile(n_nor_gates=5), 1)
        repeated = repeat_groups((a, b), 2)
        assert sum(g.count for g in repeated) == 4

    def test_repeat_requires_positive_count(self):
        with pytest.raises(UnknownWorkloadError):
            repeat_groups((LevelGroup(LevelProfile(1)),), 0)


class TestBlockMeasurement:
    def test_block_profiles_match_netlist_stats(self):
        netlist = mac_block_netlist(4, 12)
        groups = block_level_profiles("test-mac-4-12", lambda: mac_block_netlist(4, 12))
        stats = netlist.stats()
        assert sum(g.count for g in groups) == stats.n_levels
        assert sum(g.profile.n_gates * g.count for g in groups) == stats.n_gates

    @pytest.mark.parametrize("name", available_campaign_workloads())
    def test_groups_run_length_encode_the_levels(self, name):
        netlist = get_campaign_workload(name).netlist
        groups = block_level_profiles(f"campaign-{name}", lambda: netlist)
        expanded = [group.profile for group in groups for _ in range(group.count)]
        levels = netlist.stats().levels
        assert [profile.n_gates for profile in expanded] == [level.n_gates for level in levels]
        assert [profile.n_thr_gates for profile in expanded] == [level.n_thr for level in levels]
        assert all(a.profile != b.profile for a, b in zip(groups, groups[1:]))

    def test_block_profiles_cached(self):
        calls = []

        def build():
            calls.append(1)
            return mac_block_netlist(4, 12)

        block_level_profiles("cache-test-mac", build)
        block_level_profiles("cache-test-mac", build)
        assert len(calls) == 1

    def test_block_summary(self):
        groups = block_level_profiles("summary-mac", lambda: mac_block_netlist(4, 12))
        totals = block_summary(groups)
        assert totals["gates"] == totals["claims"]
        assert totals["levels"] > 0


class TestSpecAggregates:
    def test_totals_consistent(self):
        spec = get_workload("mm8")
        assert spec.total_gates == spec.total_nor_gates + spec.total_thr_gates
        assert spec.n_levels == sum(g.count for g in spec.level_groups)
        assert spec.average_level_width == pytest.approx(spec.total_gates / spec.n_levels)

    def test_iter_levels(self):
        spec = get_workload("fft8")
        assert sum(count for _, count in ((g.profile, g.count) for g in spec.iter_levels())) == spec.n_levels
