"""End-to-end integration tests: compile → execute → protect → check → evaluate.

These tests cross module boundaries on purpose: they exercise the same flows
the examples and the benchmark harness use, on instances small enough for the
bit-exact executors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import CircuitBuilder, GreedyAllocator
from repro.core import (
    EcimExecutor,
    EcimScheme,
    ScalarBackend,
    TrimExecutor,
    TrimScheme,
    UnprotectedExecutor,
    UnprotectedScheme,
    exhaustive_single_fault_injection,
    make_backend,
)
from repro.core.rng import TrialStream
from repro.eval import EvaluationModel, run_experiment
from repro.pim import FaultModelSpec
from repro.workloads import (
    accumulator_bits,
    fft_input_assignment,
    fft_netlist,
    fft_outputs_to_spectrum,
    fft_reference,
    get_workload,
    matmul_input_assignment,
    matmul_netlist,
    matmul_output_matrix,
    matmul_reference,
)


def small_multiplier():
    builder = CircuitBuilder()
    a = builder.input_word(3, "a")
    b = builder.input_word(3, "b")
    builder.mark_output_word(builder.multiply_wallace(a, b), "p")
    return builder.netlist, a, b


class TestCompileAndExecuteFlow:
    def test_full_compiler_pipeline(self):
        netlist, _, _ = small_multiplier()
        allocation = GreedyAllocator(capacity=netlist.n_signals + 8).allocate(netlist)
        # Every input and every gate output gets a cell inside the capacity.
        produced = set(netlist.inputs) | {gate.output for gate in netlist.gates}
        assert produced <= set(allocation.cell_of_signal)
        assert all(0 <= cell < allocation.capacity for cell in allocation.cell_of_signal.values())
        assert allocation.peak_live_cells <= allocation.capacity

    @given(st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=8, deadline=None)
    def test_multiplier_protected_executions_agree(self, a, b):
        netlist, a_sigs, b_sigs = small_multiplier()
        inputs = {s: (a >> i) & 1 for i, s in enumerate(a_sigs)}
        inputs.update({s: (b >> i) & 1 for i, s in enumerate(b_sigs)})
        golden = netlist.evaluate_outputs(inputs)
        for executor_cls in (UnprotectedExecutor, EcimExecutor, TrimExecutor):
            report = executor_cls(netlist).run(dict(inputs))
            assert report.outputs == golden


class TestProtectedWorkloads:
    def test_protected_2x2_matmul(self):
        netlist = matmul_netlist(2, operand_bits=2)
        a = [[3, 1], [2, 2]]
        b = [[1, 0], [3, 2]]
        inputs = matmul_input_assignment(netlist, a, b, operand_bits=2)
        report = EcimExecutor(netlist).run(inputs)
        assert report.outputs_correct
        width = accumulator_bits(2, 2)
        assert np.array_equal(
            matmul_output_matrix(netlist, report.outputs, 2, width), matmul_reference(a, b)
        )

    def test_protected_fft4(self):
        bits = 4
        netlist = fft_netlist(4, bits)
        samples = [1, 5, 3, 7]
        inputs = fft_input_assignment(netlist, samples, bits)
        report = TrimExecutor(netlist).run(inputs)
        assert report.outputs_correct
        assert fft_outputs_to_spectrum(netlist, report.outputs, 4, bits) == fft_reference(
            samples, bits
        )

    @pytest.mark.parametrize("faulty_operation", [5, 50, 150, 300])
    def test_ecim_corrects_faults_during_matmul(self, faulty_operation):
        from repro.pim import DeterministicFaultInjector

        a = [[1, 2], [3, 1]]
        b = [[2, 2], [1, 0]]
        injector = DeterministicFaultInjector(target_operations={faulty_operation: 1})
        netlist = matmul_netlist(2, operand_bits=2)
        inputs = matmul_input_assignment(netlist, a, b, operand_bits=2)
        report = EcimExecutor(netlist, fault_injector=injector).run(inputs)
        assert injector.log.count() == 1
        assert report.outputs_correct

    def test_ecim_under_low_stochastic_error_rate(self):
        # SEP promises correction of one error per logic level, so every run
        # whose stochastic draw stays within one fault must be exact.
        netlist = matmul_netlist(2, operand_bits=2)
        a = [[1, 2], [3, 1]]
        b = [[2, 2], [1, 0]]
        inputs = matmul_input_assignment(netlist, a, b, operand_bits=2)
        trials = 10
        outcomes = ScalarBackend(netlist, "ecim").run_trials(
            inputs,
            n_trials=trials,
            fault_model=FaultModelSpec.stochastic(gate_error_rate=1e-4),
            stream=TrialStream.keyed((3, "mm2-ecim"), range(trials)),
        )
        faults = outcomes.faults_injected
        assert outcomes.outputs_correct[faults <= 1].all()
        assert (faults == 1).any()


class TestSepOnArithmeticCircuit:
    def test_exhaustive_sep_on_small_adder(self):
        builder = CircuitBuilder()
        x = builder.input_word(2, "x")
        y = builder.input_word(2, "y")
        total, carry = builder.ripple_adder(x, y)
        builder.mark_output_word(total)
        builder.mark_output_bit(carry)
        netlist = builder.netlist
        inputs = {netlist.inputs[0]: 1, netlist.inputs[1]: 1, netlist.inputs[2]: 0, netlist.inputs[3]: 1}

        backend = make_backend("scalar", netlist, "ecim")
        analysis = exhaustive_single_fault_injection(backend, inputs)
        assert analysis.total_sites > 50
        assert analysis.sep_guaranteed


class TestEvaluationPipeline:
    def test_workload_to_overhead_pipeline(self):
        model = EvaluationModel()
        spec = get_workload("mm8")
        ecim = model.compare(spec, EcimScheme(), "stt")
        trim = model.compare(spec, TrimScheme(), "stt")
        unprotected = model.evaluate_design(spec, UnprotectedScheme(), "stt")
        assert ecim.baseline.total_energy_fj == pytest.approx(unprotected.total_energy_fj)
        assert ecim.protected.total_energy_fj > unprotected.total_energy_fj
        assert trim.protected.n_reclaims > ecim.protected.n_reclaims

    def test_fig7_and_table4_are_consistent(self):
        # The reclaim counts reported by Table IV drive part of the Fig. 7
        # time overhead; both must come from the same model state.
        table4 = run_experiment("table4", benchmarks=("mm8", "fft8"))
        fig7 = run_experiment("fig7", benchmarks=("mm8", "fft8"))
        assert set(table4["reclaims"]) == set(fig7["benchmarks"])
        for series in fig7["time_overhead_percent"].values():
            assert all(value >= 0.0 for value in series)
