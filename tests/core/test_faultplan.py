"""Array-native fault plans (``repro.core.faultplan``): combination
unranking order, the CSR/dict bridge, engine lowering equivalence, and the
broadcast-input fast path (ISSUE 8)."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import BACKEND_NAMES, make_backend
from repro.core.batched import _deterministic_targets
from repro.core.faultplan import (
    FaultPlanArrays,
    _comb_table,
    combination_count,
    unrank_combinations,
)
from repro.errors import ProtectionError

AND2 = get_campaign_workload("and2").netlist
AND2_INPUTS = {signal: 1 for signal in AND2.inputs}


class TestUnranking:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(min_value=1, max_value=20), k=st.integers(min_value=1, max_value=4))
    def test_reproduces_itertools_combinations_order(self, n, k):
        """The ISSUE's pinned property: for all n <= 20, k <= 4, unranking
        the full rank range reproduces itertools.combinations exactly."""
        if k > n:
            k = n
        total = combination_count(n, k)
        matrix = unrank_combinations(n, k, np.arange(total, dtype=np.int64))
        expected = np.array(list(combinations(range(n), k)), dtype=np.int64)
        assert np.array_equal(matrix, expected.reshape(total, k))

    def test_addresses_any_rank_range_without_predecessors(self):
        """Unranking an arbitrary slice equals slicing the full enumeration —
        the property that makes sweep shards placement-independent."""
        full = np.array(list(combinations(range(12), 3)), dtype=np.int64)
        ranks = np.arange(57, 101, dtype=np.int64)
        assert np.array_equal(unrank_combinations(12, 3, ranks), full[57:101])

    def test_rank_bounds_are_validated(self):
        with pytest.raises(ProtectionError):
            unrank_combinations(5, 2, np.array([-1]))
        with pytest.raises(ProtectionError):
            unrank_combinations(5, 2, np.array([combination_count(5, 2)]))

    def test_k_must_fit(self):
        with pytest.raises(ProtectionError):
            unrank_combinations(3, 4, np.array([0]))
        with pytest.raises(ProtectionError):
            unrank_combinations(3, 0, np.array([0]))

    def test_overflow_guard(self):
        # C(200, 100) dwarfs int64; the guard must fail loudly, not wrap.
        with pytest.raises(ProtectionError):
            combination_count(200, 100)

    def test_binomial_table_is_built_once_and_read_only(self):
        # Every shard of a sweep unranks against the same (n, k) table.
        table = _comb_table(63, 4)
        assert _comb_table(63, 4) is table
        assert not table.flags.writeable
        unrank_combinations(63, 4, np.arange(10, dtype=np.int64))
        assert _comb_table(63, 4) is table


class TestFaultPlanArrays:
    def test_dict_round_trip_normalises_like_the_engines(self):
        plans = [{0: 1}, {}, {2: (0, 1), 5: 3}, {1: [2, 2, 0]}]
        arrays = FaultPlanArrays.from_dicts(plans)
        assert len(arrays) == 4
        assert arrays.to_dicts() == [
            {0: (1,)},
            {},
            {2: (0, 1), 5: (3,)},
            {1: (0, 2)},  # deduplicated and sorted, one flip per site
        ]

    def test_targets_by_op_matches_dict_grouping(self):
        plans = [{0: (0, 2)}, {3: 1}, {0: 1, 3: (0,)}, {}]
        arrays = FaultPlanArrays.from_dicts(plans)
        from_dicts = _deterministic_targets(plans)
        from_arrays = _deterministic_targets(arrays)
        assert set(from_dicts) == set(from_arrays)
        for op in from_dicts:
            pairs = sorted(zip(*map(list, from_dicts[op])))
            assert sorted(zip(*map(list, from_arrays[op]))) == pairs

    def test_from_site_matrix_is_csr_of_the_site_tables(self):
        site_ops = np.array([7, 7, 9], dtype=np.int64)
        site_positions = np.array([0, 1, 0], dtype=np.int64)
        matrix = np.array([[0, 2], [1, 2]])
        arrays = FaultPlanArrays.from_site_matrix(matrix, site_ops, site_positions)
        assert arrays.to_dicts() == [{7: (0,), 9: (0,)}, {7: (1,), 9: (0,)}]

    def test_csr_invariants_are_validated(self):
        with pytest.raises(ProtectionError):
            FaultPlanArrays(
                trial_ptr=np.array([0, 2, 1]),
                op_index=np.array([0, 0]),
                position=np.array([0, 1]),
            )
        with pytest.raises(ProtectionError):
            FaultPlanArrays(
                trial_ptr=np.array([0, 3]),
                op_index=np.array([0]),
                position=np.array([0]),
            )

    def test_getitem_bounds(self):
        arrays = FaultPlanArrays.from_dicts([{0: 0}])
        with pytest.raises(IndexError):
            arrays[1]

    def test_a_trial_repeating_a_pair_is_rejected(self):
        arrays = FaultPlanArrays(
            trial_ptr=np.array([0, 2, 5]),
            op_index=np.array([3, 4, 0, 1, 0]),
            position=np.array([0, 0, 2, 2, 2]),
        )
        assert arrays[0] == {3: (0,), 4: (0,)}
        with pytest.raises(ProtectionError, match="trial 1 names operation 0, output position 2"):
            arrays[1]
        with pytest.raises(ProtectionError, match="trial 1 names operation 0, output position 2"):
            arrays.check_unique_pairs()
        with pytest.raises(ProtectionError, match="trial 1"):
            arrays.targets_by_op()

    def test_pairs_may_repeat_across_trials_and_dicts_deduplicate(self):
        # The same pair in different trials is fine, and dict plans
        # deduplicate their positions before they reach the arrays.
        arrays = FaultPlanArrays(
            trial_ptr=np.array([0, 1, 2]), op_index=np.array([0, 0]), position=np.array([1, 1])
        )
        arrays.check_unique_pairs()
        assert set(arrays.targets_by_op()) == {0}
        FaultPlanArrays.from_dicts([{0: [1, 1]}]).check_unique_pairs()


class TestBackendAcceptance:
    """Every registered backend consumes the CSR form directly."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_array_plan_equals_dict_plan(self, name):
        backend = make_backend(name, AND2, "ecim")
        sites = backend.enumerate_sites(AND2_INPUTS)
        plans = [
            {sites[i].operation_index: sites[i].output_position}
            for i in range(len(sites))
        ]
        arrays = FaultPlanArrays.from_dicts(plans)
        from_dicts = backend.run_trials([AND2_INPUTS] * len(sites), fault_plan=plans)
        from_arrays = backend.run_trials(
            [AND2_INPUTS] * len(sites), fault_plan=arrays
        )
        for field in (
            "outputs_correct",
            "detected",
            "corrections",
            "uncorrectable_levels",
            "faults_injected",
        ):
            assert np.array_equal(
                getattr(from_dicts, field), getattr(from_arrays, field)
            ), field

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_unknown_op_and_bad_position_inject_nothing(self, name):
        """The dict path's forgiveness contract carries over: out-of-range
        operations and positions silently inject no faults."""
        backend = make_backend(name, AND2, "ecim")
        arrays = FaultPlanArrays.from_dicts([{10_000: 0}, {0: 10_000}, {-3: 0}])
        outcomes = backend.run_trials([AND2_INPUTS] * 3, fault_plan=arrays)
        assert outcomes.faults_injected.tolist() == [0, 0, 0]
        assert outcomes.outputs_correct.all()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_a_repeated_pair_that_injects_nothing_still_raises(self, name):
        # Out-of-range pairs are dropped before the bitpacked engine's own
        # guard sees them; the repeat is rejected on every backend anyway.
        backend = make_backend(name, AND2, "ecim")
        arrays = FaultPlanArrays(
            trial_ptr=np.array([0, 2]),
            op_index=np.array([10_000, 10_000]),
            position=np.array([0, 0]),
        )
        with pytest.raises(ProtectionError, match="trial 0 names operation 10000, output"):
            backend.run_trials([AND2_INPUTS], fault_plan=arrays)


class TestBroadcastInputs:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_single_mapping_broadcast_equals_replication(self, name):
        backend = make_backend(name, AND2, "ecim")
        replicated = backend.run_trials([AND2_INPUTS] * 6)
        broadcast = backend.run_trials(AND2_INPUTS, n_trials=6)
        assert np.array_equal(replicated.outputs_correct, broadcast.outputs_correct)
        assert broadcast.n_trials == 6

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_mapping_without_count_is_rejected(self, name):
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError):
            backend.run_trials(AND2_INPUTS)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_contradictory_count_is_rejected(self, name):
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError):
            backend.run_trials([AND2_INPUTS] * 3, n_trials=5)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_zero_trials_is_rejected(self, name):
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError):
            backend.run_trials(AND2_INPUTS, n_trials=0)

    def test_missing_signal_is_rejected(self):
        backend = make_backend("batched", AND2, "ecim")
        with pytest.raises(ProtectionError):
            backend.run_trials({AND2.inputs[0]: 1}, n_trials=2)
