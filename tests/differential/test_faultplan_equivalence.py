"""Array fault plans vs dict fault plans, across every registered backend
(ISSUE 8 acceptance).

The CSR :class:`~repro.core.faultplan.FaultPlanArrays` form is a pure
re-encoding of the per-trial dict plans: lowering it must be byte-identical
on the scalar reference and every candidate backend, the campaign worker's
array-native plan assembly must reproduce the dict construction
draw-for-draw, and a sharded multiprocess sweep must equal the serial one
for any job count.
"""

import numpy as np
import pytest

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import make_backend
from repro.core.faultplan import FaultPlanArrays
from repro.core.rng import TrialStream
from repro.core.sep import exhaustive_multi_fault_injection
from repro.errors import ProtectionError

from differential_harness import (
    BACKEND_FACTORIES,
    REFERENCE_BACKEND,
    assert_outcomes_identical,
)

ALL_BACKENDS = (REFERENCE_BACKEND,) + tuple(sorted(BACKEND_FACTORIES))


@pytest.mark.parametrize("backend_name", ALL_BACKENDS)
class TestArrayPlanEqualsDictPlan:
    def test_campaign_style_two_flip_plans(self, cell, backend_name):
        """The harness's 'plan' model, fed once as dicts and once as the CSR
        re-encoding: byte-identical TrialOutcomes on every backend."""
        backend = (
            cell.reference
            if backend_name == REFERENCE_BACKEND
            else cell.candidates[backend_name]
        )
        dict_plans = cell._two_flip_plans()
        arrays = FaultPlanArrays.from_dicts(dict_plans)
        assert arrays.to_dicts() == [
            {op: tuple(sorted(positions)) for op, positions in plan.items()}
            for plan in dict_plans
        ]
        from_dicts = backend.run_trials(cell.inputs, fault_plan=dict_plans, capture_outputs=True)
        from_arrays = backend.run_trials(cell.inputs, fault_plan=arrays, capture_outputs=True)
        context = f"{cell.workload}/{cell.scheme}/mo={cell.multi_output}/{backend_name}"
        assert_outcomes_identical(from_dicts, from_arrays, context)
        assert from_arrays.counts()["faulty_trials"] > 0


@pytest.mark.parametrize("backend_name", ALL_BACKENDS)
def test_a_trial_repeating_a_pair_raises_on_every_backend(backend_name):
    """One trial naming (op 0, position 0) twice on the Fig. 6 AND with
    a = b = 1: the engines once disagreed here (one flip and one count,
    one flip and two counts, two cancelling flips and two counts); now
    every backend rejects the plan, naming the repeated pair."""
    netlist = get_campaign_workload("and2").netlist
    backend = make_backend(backend_name, netlist, "unprotected")
    plan = FaultPlanArrays(trial_ptr=[0, 2], op_index=[0, 0], position=[0, 0])
    inputs = np.ones((1, len(netlist.inputs)), dtype=np.uint8)
    with pytest.raises(
        ProtectionError, match="trial 0 names operation 0, output position 0 more than once"
    ):
        backend.run_trials(inputs, fault_plan=plan, capture_outputs=True)


class TestWorkerPlanAssembly:
    """The campaign worker's array-native k-flip assembly reproduces the
    per-trial dict construction from the same plan-stream subsets."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_draws_match_dict_construction(self, k):
        from repro.campaign.worker import _multi_fault_plan

        backend = make_backend(
            "scalar", get_campaign_workload("and2").netlist, "ecim"
        )
        sites = backend.enumerate_sites()
        stream = TrialStream.keyed(("plan-assembly",), range(1000, 1024))
        arrays = _multi_fault_plan(backend, stream, k)
        legacy = []
        for chosen in stream.subsets(len(sites), k).tolist():
            assert len(set(chosen)) == k
            entry = {}
            for index in chosen:
                site = sites[index]
                entry.setdefault(site.operation_index, []).append(
                    site.output_position
                )
            legacy.append(
                {op: tuple(sorted(set(p))) for op, p in entry.items()}
            )
        assert arrays.to_dicts() == legacy


class TestShardedSweepInvariance:
    """`--jobs N` sharding is placement-independent: counters AND ordered
    outcomes are identical for any job count and any shard size."""

    @pytest.mark.parametrize("backend_name", ALL_BACKENDS)
    def test_jobs_and_chunk_size_do_not_change_results(self, backend_name):
        netlist = get_campaign_workload("and2").netlist
        factory = BACKEND_FACTORIES.get(backend_name)
        backend = (
            make_backend(REFERENCE_BACKEND, netlist, "ecim")
            if factory is None
            else factory(netlist, "ecim", True)
        )
        inputs = {signal: 1 for signal in netlist.inputs}
        serial = exhaustive_multi_fault_injection(
            backend, inputs, k=2, chunk_size=4096, jobs=1
        )
        sharded = exhaustive_multi_fault_injection(
            backend, inputs, k=2, chunk_size=64, jobs=2
        )
        assert sharded.coverage_row() == serial.coverage_row()
        for name in (
            "total_combinations",
            "corrected_combinations",
            "detected_combinations",
            "silent_combinations",
            "sep_guaranteed_combinations",
            "code_corrected_combinations",
            "budget_violations",
        ):
            assert getattr(sharded, name) == getattr(serial, name), name
        assert [o.sites for o in sharded.outcomes] == [
            o.sites for o in serial.outcomes
        ]
        assert [o.classification for o in sharded.outcomes] == [
            o.classification for o in serial.outcomes
        ]
