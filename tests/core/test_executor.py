"""Tests for the bit-exact executors (unprotected, ECiM, TRiM)."""

import pytest

from repro.campaign.workloads import get_campaign_workload
from repro.compiler.netlist import Netlist
from repro.compiler.synthesis import CircuitBuilder
from repro.core.batched import compile_plan
from repro.core.executor import EcimExecutor, TrimExecutor, UnprotectedExecutor
from repro.core.sep import and_gate_example_netlist
from repro.ecc.hamming import HammingCode
from repro.errors import ProtectionError
from repro.pim.array import PimArray
from repro.pim.faults import DeterministicFaultInjector, NoFaultInjector, ScheduledFaultInjector
from repro.pim.operations import NullTrace, OperationKind
from repro.pim.technology import RERAM


def adder_netlist(width=3):
    builder = CircuitBuilder()
    a = builder.input_word(width, "a")
    b = builder.input_word(width, "b")
    total, carry = builder.ripple_adder(a, b)
    builder.mark_output_word(total)
    builder.mark_output_bit(carry, "carry")
    return builder.netlist, a, b, total, carry


def adder_inputs(a_sigs, b_sigs, a_val, b_val):
    values = {s: (a_val >> i) & 1 for i, s in enumerate(a_sigs)}
    values.update({s: (b_val >> i) & 1 for i, s in enumerate(b_sigs)})
    return values


def word_value(outputs, word):
    return sum(outputs[s] << i for i, s in enumerate(word))


class TestUnprotectedExecutor:
    @pytest.mark.parametrize("a,b", [(0, 0), (3, 5), (7, 7), (6, 1)])
    def test_adder_matches_golden_model(self, a, b):
        netlist, a_sigs, b_sigs, total, carry = adder_netlist()
        report = UnprotectedExecutor(netlist).run(adder_inputs(a_sigs, b_sigs, a, b))
        assert report.outputs_correct
        assert word_value(report.outputs, total) + (report.outputs[carry] << 3) == a + b

    def test_no_checker_activity(self):
        netlist = and_gate_example_netlist()
        executor = UnprotectedExecutor(netlist)
        report = executor.run({netlist.inputs[0]: 1, netlist.inputs[1]: 0})
        assert report.checks == []
        assert executor.array.trace.count(OperationKind.READ) == 0

    def test_single_fault_corrupts_output(self):
        netlist = and_gate_example_netlist()
        injector = DeterministicFaultInjector(target_operations={2: 1})
        executor = UnprotectedExecutor(and_gate_example_netlist(), fault_injector=injector)
        report = executor.run({netlist.inputs[0]: 1, netlist.inputs[1]: 1})
        assert not report.outputs_correct

    def test_uses_supplied_array(self):
        netlist = and_gate_example_netlist()
        array = PimArray(rows=2, cols=64, technology=RERAM)
        executor = UnprotectedExecutor(netlist, array=array)
        assert executor.array is array

    def test_rejects_too_narrow_array(self):
        netlist, *_ = adder_netlist()
        with pytest.raises(ProtectionError):
            UnprotectedExecutor(netlist, array=PimArray(rows=2, cols=4))

    def test_missing_input_rejected(self):
        netlist = and_gate_example_netlist()
        with pytest.raises(ProtectionError):
            UnprotectedExecutor(netlist).run({netlist.inputs[0]: 1})


class TestEcimExecutor:
    @pytest.mark.parametrize("a,b", [(0, 0), (5, 2), (7, 6)])
    def test_error_free_execution_is_correct(self, a, b):
        netlist, a_sigs, b_sigs, *_ = adder_netlist()
        report = EcimExecutor(netlist).run(adder_inputs(a_sigs, b_sigs, a, b))
        assert report.outputs_correct
        assert report.corrections == 0
        assert report.uncorrectable_levels == 0

    def test_checks_happen_per_logic_level(self):
        netlist, a_sigs, b_sigs, *_ = adder_netlist(width=2)
        executor = EcimExecutor(netlist)
        report = executor.run(adder_inputs(a_sigs, b_sigs, 1, 2))
        assert len(report.checks) == netlist.depth

    def test_checker_transfers_recorded(self):
        netlist = and_gate_example_netlist()
        executor = EcimExecutor(netlist)
        executor.run({netlist.inputs[0]: 1, netlist.inputs[1]: 1})
        # Two reads per level (data + parity), two levels.
        assert executor.array.trace.count(OperationKind.READ) == 4

    def test_metadata_operations_flagged(self):
        netlist = and_gate_example_netlist()
        executor = EcimExecutor(netlist)
        executor.run({netlist.inputs[0]: 0, netlist.inputs[1]: 1})
        assert executor.array.trace.count(OperationKind.GATE, metadata_only=True) > 0

    def test_data_fault_corrected_and_counted(self):
        netlist = and_gate_example_netlist()
        injector = DeterministicFaultInjector(target_operations={0: 1})
        executor = EcimExecutor(and_gate_example_netlist(), fault_injector=injector)
        report = executor.run({netlist.inputs[0]: 1, netlist.inputs[1]: 1})
        assert report.outputs_correct
        assert report.corrections >= 1
        assert report.errors_detected >= 1

    def test_single_output_variant_still_correct(self):
        netlist, a_sigs, b_sigs, *_ = adder_netlist(width=2)
        report = EcimExecutor(netlist, multi_output=False).run(
            adder_inputs(a_sigs, b_sigs, 3, 1)
        )
        assert report.outputs_correct

    def test_single_output_variant_corrects_faults(self):
        netlist = and_gate_example_netlist()
        injector = DeterministicFaultInjector(target_operations={0: 1})
        executor = EcimExecutor(
            and_gate_example_netlist(), multi_output=False, fault_injector=injector
        )
        report = executor.run({netlist.inputs[0]: 1, netlist.inputs[1]: 1})
        assert report.outputs_correct

    def test_low_stochastic_error_rate_survivable(self):
        # At a low rate a run mostly takes at most one fault, which the
        # per-level Hamming correction always repairs.
        netlist, a_sigs, b_sigs, *_ = adder_netlist(width=2)
        injector = ScheduledFaultInjector({"gate": [7]})
        report = EcimExecutor(netlist, fault_injector=injector).run(
            adder_inputs(a_sigs, b_sigs, 2, 3)
        )
        assert injector.log.count() == 1
        assert report.outputs_correct


class TestEcimCodesByWidth:
    """ECiM builds one code per distinct level width, once."""

    def test_one_code_per_width(self):
        netlist = get_campaign_workload("mlp16").netlist
        widths = [len(level) for level in netlist.levelize()]
        assert (len(widths), len(set(widths))) == (80, 29)
        calls = []

        def counting_factory(width):
            calls.append(width)
            return HammingCode(width)

        compile_plan(netlist, "ecim", code_factory=counting_factory)
        assert sorted(calls) == sorted(set(widths))

        calls.clear()
        executor = EcimExecutor(netlist, code_factory=counting_factory)
        assert len(calls) == 29
        executor.array.trace = NullTrace()
        for value in (0, 1):
            report = executor.run({signal: value for signal in netlist.inputs})
            assert report.outputs_correct and report.corrections == 0
            executor.reset()
        assert len(calls) == 29


class TestTrimExecutor:
    @pytest.mark.parametrize("a,b", [(1, 1), (4, 3), (7, 7)])
    def test_error_free_execution_is_correct(self, a, b):
        netlist, a_sigs, b_sigs, *_ = adder_netlist()
        report = TrimExecutor(netlist).run(adder_inputs(a_sigs, b_sigs, a, b))
        assert report.outputs_correct

    def test_primary_fault_outvoted(self):
        netlist = and_gate_example_netlist()
        injector = DeterministicFaultInjector(target_output_positions={0: 0})
        executor = TrimExecutor(and_gate_example_netlist(), fault_injector=injector)
        report = executor.run({netlist.inputs[0]: 1, netlist.inputs[1]: 1})
        assert report.outputs_correct
        assert report.corrections >= 1

    def test_copy_fault_detected_but_harmless(self):
        netlist = and_gate_example_netlist()
        injector = DeterministicFaultInjector(target_output_positions={0: 1})
        executor = TrimExecutor(and_gate_example_netlist(), fault_injector=injector)
        report = executor.run({netlist.inputs[0]: 1, netlist.inputs[1]: 1})
        assert report.outputs_correct
        assert report.errors_detected >= 1

    def test_three_reads_per_level(self):
        netlist = and_gate_example_netlist()
        executor = TrimExecutor(netlist)
        executor.run({netlist.inputs[0]: 0, netlist.inputs[1]: 0})
        assert executor.array.trace.count(OperationKind.READ) == 3 * netlist.depth

    def test_single_output_variant(self):
        netlist, a_sigs, b_sigs, *_ = adder_netlist(width=2)
        report = TrimExecutor(netlist, multi_output=False).run(
            adder_inputs(a_sigs, b_sigs, 1, 3)
        )
        assert report.outputs_correct

    def test_even_copy_count_rejected(self):
        netlist = and_gate_example_netlist()
        with pytest.raises(ProtectionError):
            TrimExecutor(netlist, n_copies=2)

    def test_single_output_copies_honour_gate_threshold(self):
        # Regression: the single-output path used to re-fire copies without
        # forwarding node.threshold, so a THR(threshold=2) gate's copies were
        # evaluated at the default threshold 3, disagreed systematically, and
        # the majority vote wrote the wrong value back on fault-free runs.
        from repro.compiler.netlist import Netlist
        from repro.pim.gates import GateType

        netlist = Netlist("thr2")
        a, b, c = netlist.add_inputs(3)
        out = netlist.add_gate(GateType.THR, [a, b, c], threshold=2)
        netlist.mark_output(out)
        # Exactly two zeros: fires at threshold 2, not at threshold 3.
        inputs = {a: 0, b: 0, c: 1}
        report = TrimExecutor(netlist, multi_output=False).run(inputs)
        assert report.outputs_correct
        assert report.errors_detected == 0


class TestCrossSchemeConsistency:
    def test_all_executors_agree_with_golden_model(self):
        netlist, a_sigs, b_sigs, total, carry = adder_netlist(width=2)
        inputs = adder_inputs(a_sigs, b_sigs, 2, 3)
        golden = netlist.evaluate_outputs(inputs)
        for executor_cls in (UnprotectedExecutor, EcimExecutor, TrimExecutor):
            report = executor_cls(netlist).run(dict(inputs))
            assert report.outputs == golden, executor_cls.__name__

    def test_protection_costs_extra_operations(self):
        netlist = and_gate_example_netlist()
        inputs = {netlist.inputs[0]: 1, netlist.inputs[1]: 0}
        unprotected = UnprotectedExecutor(and_gate_example_netlist())
        unprotected.run(dict(inputs))
        ecim = EcimExecutor(and_gate_example_netlist())
        ecim.run(dict(inputs))
        assert len(ecim.array.trace) > len(unprotected.array.trace)


class TestExecutorReset:
    """The reset()/reuse fast path: repeated trials without rebuilding layout."""

    def executor(self):
        return EcimExecutor(and_gate_example_netlist())

    def inputs(self, netlist):
        return {netlist.inputs[0]: 1, netlist.inputs[1]: 1}

    def test_reset_rewinds_trace_and_operation_index(self):
        executor = self.executor()
        executor.run(self.inputs(executor.netlist))
        assert len(executor.array.trace) > 0
        assert executor.array.operation_index > 0
        executor.reset()
        assert len(executor.array.trace) == 0
        assert executor.array.operation_index == 0

    def test_repeated_runs_with_reset_are_identical(self):
        executor = self.executor()
        inputs = self.inputs(executor.netlist)
        first = executor.run(inputs)
        trace_size = len(executor.array.trace)
        executor.reset()
        second = executor.run(inputs)
        assert second.outputs == first.outputs
        assert len(executor.array.trace) == trace_size  # no leak across runs

    def test_without_reset_operation_index_drifts(self):
        # The leakage reset exists to fix: operation-indexed injectors would
        # target different sites on a second back-to-back run.
        executor = self.executor()
        inputs = self.inputs(executor.netlist)
        executor.run(inputs)
        drifted = executor.array.operation_index
        executor.run(inputs)
        assert executor.array.operation_index == 2 * drifted

    def test_reset_swaps_fault_injector(self):
        executor = self.executor()
        inputs = self.inputs(executor.netlist)
        executor.reset(fault_injector=ScheduledFaultInjector({"gate": [0]}))
        faulty = executor.run(inputs)
        assert any(check.error_detected for check in faulty.checks)
        executor.reset(fault_injector=NoFaultInjector())
        clean = executor.run(inputs)
        assert clean.outputs == clean.golden_outputs
        assert clean.errors_detected == 0

    def test_deterministic_injector_lines_up_after_reset(self):
        # Operation-indexed and ordinal-indexed injectors alike hit the same
        # sites, with the same outputs, on every run after a reset.
        executor = self.executor()
        inputs = self.inputs(executor.netlist)
        for make_injector, faults in (
            (lambda: DeterministicFaultInjector(target_operations={0: 1}), 1),
            (lambda: ScheduledFaultInjector({"gate": [1], "metadata": [3]}), 2),
        ):
            outcomes = []
            for _ in range(2):
                injector = make_injector()
                executor.reset(fault_injector=injector)
                report = executor.run(inputs)
                assert injector.log.count() == faults
                outcomes.append((report.outputs, injector.log.sites()))
            assert outcomes[0] == outcomes[1]

    def test_reset_works_across_all_executors(self):
        netlist = and_gate_example_netlist()
        inputs = self.inputs(netlist)
        for cls in (UnprotectedExecutor, EcimExecutor, TrimExecutor):
            executor = cls(netlist)
            first = executor.run(inputs)
            executor.reset()
            second = executor.run(inputs)
            assert first.outputs == second.outputs == first.golden_outputs
