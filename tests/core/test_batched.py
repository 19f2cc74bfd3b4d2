"""Batched trial engine vs the scalar executors.

The contract under test (see ``repro/core/batched.py``):

* fault-free executions match the scalar executors **exactly**, per trial;
* exhaustive deterministic single-fault executions match the scalar
  :class:`DeterministicFaultInjector` path exactly, per site — and uphold
  the SEP guarantee (no silent corruption) under ECiM/TRiM;
* stochastic executions are reproducible for a fixed stream and invariant
  to batch composition.
"""

import itertools
import random

import numpy as np
import pytest

from repro.campaign.workloads import get_campaign_workload, sample_inputs
from repro.core.batched import (
    batched_golden_outputs,
    compile_plan,
    run_batch,
    sample_input_matrix,
)
from repro.core.executor import EcimExecutor, TrimExecutor, UnprotectedExecutor
from repro.core.rng import TrialStream
from repro.errors import ProtectionError
from repro.pim.faults import DeterministicFaultInjector, FaultModelSpec
from repro.pim.operations import NullTrace

EXECUTORS = {
    "unprotected": UnprotectedExecutor,
    "ecim": EcimExecutor,
    "trim": TrimExecutor,
}


def _stream(tag, trials):
    return TrialStream.keyed((tag,), trials)


def scalar_report(netlist, scheme, multi_output, inputs, injector=None):
    cls = EXECUTORS[scheme]
    kwargs = {} if scheme == "unprotected" else {"multi_output": multi_output}
    executor = cls(netlist, fault_injector=injector, **kwargs)
    executor.array.trace = NullTrace()
    return executor.run(inputs)


def assert_trial_matches(result, row, report, netlist, context):
    assert list(result.outputs[row]) == [report.outputs[s] for s in netlist.outputs], context
    assert list(result.golden[row]) == [report.golden_outputs[s] for s in netlist.outputs], context
    assert bool(result.detected[row]) == report.detected, context
    assert int(result.corrections[row]) == report.corrections, context
    assert int(result.uncorrectable_levels[row]) == report.uncorrectable_levels, context


class TestGolden:
    @pytest.mark.parametrize("workload", ["and2", "dot2", "mac4"])
    def test_batched_golden_matches_netlist_evaluation(self, workload):
        netlist = get_campaign_workload(workload).netlist
        matrix = sample_input_matrix(netlist, _stream("golden", range(16)))
        golden = batched_golden_outputs(netlist, matrix)
        for row in range(matrix.shape[0]):
            expected = netlist.evaluate_outputs(dict(zip(netlist.inputs, map(int, matrix[row]))))
            assert list(golden[row]) == [expected[s] for s in netlist.outputs]

    def test_sample_input_matrix_is_one_stream_draw_per_trial(self):
        # Row t depends on trial t alone: any sub-batch draws the same rows.
        netlist = get_campaign_workload("dot2").netlist
        stream = _stream("inputs", range(101, 140))
        matrix = sample_input_matrix(netlist, stream)
        assert matrix.shape == (39, len(netlist.inputs))
        assert np.array_equal(matrix, stream.input_bits(len(netlist.inputs)))
        assert np.array_equal(sample_input_matrix(netlist, stream[5:9]), matrix[5:9])
        assert 0 < matrix.mean() < 1


class TestFaultFreeExactMatch:
    @pytest.mark.parametrize("workload", ["and2", "dot2"])
    @pytest.mark.parametrize(
        "scheme,multi_output",
        [("unprotected", True), ("ecim", True), ("ecim", False), ("trim", True), ("trim", False)],
    )
    def test_outputs_checks_and_corrections_match_scalar(self, workload, scheme, multi_output):
        netlist = get_campaign_workload(workload).netlist
        plan = compile_plan(netlist, scheme, multi_output=multi_output)
        matrix = np.array(
            [[sample_inputs(netlist, random.Random(seed))[s] for s in netlist.inputs]
             for seed in range(12)],
            dtype=np.uint8,
        )
        result = run_batch(plan, matrix)
        for row in range(matrix.shape[0]):
            report = scalar_report(
                netlist, scheme, multi_output, dict(zip(netlist.inputs, map(int, matrix[row])))
            )
            assert_trial_matches(result, row, report, netlist, (workload, scheme, multi_output, row))
        assert not result.detected.any()
        assert result.outputs_correct.all()


class TestExhaustiveSingleFault:
    @pytest.mark.parametrize(
        "scheme,multi_output",
        [("ecim", True), ("ecim", False), ("trim", True), ("trim", False)],
    )
    def test_every_site_matches_scalar_and_sep_holds(self, scheme, multi_output):
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, scheme, multi_output=multi_output)
        sites = plan.gate_fault_sites()
        assert sites, "plan must expose injectable gate sites"
        combos = list(itertools.product((0, 1), repeat=len(netlist.inputs)))
        trials = [(combo, site) for combo in combos for site in sites]
        matrix = np.array([combo for combo, _ in trials], dtype=np.uint8)
        fault_plan = [{op: position} for _, (op, position) in trials]
        result = run_batch(plan, matrix, fault_plan=fault_plan)
        for row, (combo, (op, position)) in enumerate(trials):
            report = scalar_report(
                netlist,
                scheme,
                multi_output,
                dict(zip(netlist.inputs, combo)),
                injector=DeterministicFaultInjector(target_output_positions={op: position}),
            )
            assert_trial_matches(
                result, row, report, netlist, (scheme, multi_output, combo, op, position)
            )
        # The SEP guarantee, batched form: any single fault anywhere is
        # corrected or detected — never a silent corruption.
        assert not (~result.outputs_correct & ~result.detected).any()

    def test_out_of_range_fault_positions_inject_nothing(self):
        # Scalar DeterministicFaultInjector never fires for a position its
        # output counter cannot reach; batched must match (in particular a
        # negative position must not wrap to the last output).
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, "trim")
        matrix = np.array([[1, 1], [1, 1], [1, 1]], dtype=np.uint8)
        result = run_batch(plan, matrix, fault_plan=[{0: -1}, {0: 99}, {}])
        assert result.faults_injected.sum() == 0
        assert result.outputs_correct.all()
        assert not result.detected.any()

    def test_unprotected_single_faults_are_silent(self):
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, "unprotected")
        sites = plan.gate_fault_sites()
        matrix = np.tile(np.array([[1, 1]], dtype=np.uint8), (len(sites), 1))
        result = run_batch(plan, matrix, fault_plan=[{op: pos} for op, pos in sites])
        assert not result.detected.any()
        # Flipping the final AND output on inputs (1, 1) must corrupt it.
        assert not result.outputs_correct.all()
        assert (~result.outputs_correct & ~result.detected).any()


class TestStochasticDeterminism:
    def _spec(self, batch):
        netlist = get_campaign_workload("dot2").netlist
        plan = compile_plan(netlist, "ecim")
        stream = _stream("determinism", range(1000, 1000 + batch))
        return plan, sample_input_matrix(netlist, stream), stream

    def test_same_seeds_same_outcomes(self):
        plan, matrix, stream = self._spec(50)
        model = FaultModelSpec.stochastic(gate_error_rate=1e-2)
        first = run_batch(plan, matrix, fault_model=model, stream=stream)
        second = run_batch(plan, matrix, fault_model=model, stream=stream)
        assert np.array_equal(first.outputs, second.outputs)
        for name in ("detected", "corrections", "uncorrectable_levels", "faults_injected"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_outcomes_invariant_to_batch_composition(self):
        # A trial's draws are addressed by its own index, so splitting the
        # batch differently must not change any per-trial outcome.
        plan, matrix, stream = self._spec(40)
        model = FaultModelSpec.stochastic(gate_error_rate=1e-2, memory_error_rate=1e-3)
        whole = run_batch(plan, matrix, fault_model=model, stream=stream)
        split_at = 13
        front = run_batch(plan, matrix[:split_at], fault_model=model, stream=stream[:split_at])
        back = run_batch(plan, matrix[split_at:], fault_model=model, stream=stream[split_at:])
        assert np.array_equal(whole.outputs, np.vstack([front.outputs, back.outputs]))
        assert np.array_equal(
            whole.faults_injected,
            np.concatenate([front.faults_injected, back.faults_injected]),
        )
        assert np.array_equal(whole.detected, np.concatenate([front.detected, back.detected]))

    def test_different_seeds_differ(self):
        plan, matrix, stream = self._spec(60)
        model = FaultModelSpec.stochastic(gate_error_rate=1e-2)
        a = run_batch(plan, matrix, fault_model=model, stream=stream)
        other = TrialStream(stream.key + 1, stream.trials)
        b = run_batch(plan, matrix, fault_model=model, stream=other)
        assert not np.array_equal(a.faults_injected, b.faults_injected)


class TestValidation:
    def test_unknown_scheme_rejected(self):
        netlist = get_campaign_workload("and2").netlist
        with pytest.raises(ProtectionError):
            compile_plan(netlist, "parity")

    def test_input_shape_checked(self):
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, "unprotected")
        with pytest.raises(ProtectionError):
            run_batch(plan, np.zeros((4, 7), dtype=np.uint8))

    def test_missing_stream_rejected(self):
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, "unprotected")
        with pytest.raises(ProtectionError):
            run_batch(
                plan,
                np.zeros((4, 2), dtype=np.uint8),
                fault_model=FaultModelSpec.stochastic(gate_error_rate=0.1),
            )

    def test_empty_batch_rejected(self):
        netlist = get_campaign_workload("and2").netlist
        plan = compile_plan(netlist, "unprotected")
        with pytest.raises(ProtectionError):
            run_batch(plan, np.zeros((0, 2), dtype=np.uint8))
