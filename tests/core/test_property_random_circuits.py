"""Property-based tests: random NOR/THR circuits behave identically under
functional evaluation, unprotected execution and protected execution, and the
SEP guarantee holds on randomly generated circuits, not just the paper's
hand-picked example."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.netlist import Netlist
from repro.core.backend import make_backend
from repro.core.executor import EcimExecutor, TrimExecutor, UnprotectedExecutor
from repro.core.sep import enumerate_fault_sites, exhaustive_single_fault_injection
from repro.pim.gates import GateType


def random_netlist(seed: int, n_inputs: int, n_gates: int) -> Netlist:
    """Generate a random combinational NOR/NOT/THR netlist.

    Gates draw their operands uniformly from the signals produced so far, so
    the construction order is automatically topological and the circuit
    exercises arbitrary level structures (wide, narrow, reconvergent).
    """
    rng = random.Random(seed)
    netlist = Netlist(name=f"random-{seed}")
    signals = [netlist.add_input(f"in{i}") for i in range(n_inputs)]
    for _ in range(n_gates):
        choice = rng.random()
        if choice < 0.5:
            operands = rng.sample(signals, k=min(len(signals), rng.randint(1, 3)))
            signal = netlist.add_gate(GateType.NOR, operands)
        elif choice < 0.7:
            signal = netlist.add_gate(GateType.NOT, [rng.choice(signals)])
        else:
            operands = [rng.choice(signals) for _ in range(4)]
            # THR needs input/output distinctness only; duplicate inputs are fine.
            operands = list(dict.fromkeys(operands)) or [rng.choice(signals)]
            while len(operands) < 4:
                operands.append(operands[-1])
            signal = netlist.add_gate(GateType.THR, operands, threshold=3)
        signals.append(signal)
    # Mark the last few produced signals as outputs.
    for signal in signals[-min(4, len(signals)):]:
        netlist.mark_output(signal)
    return netlist


def random_inputs(netlist: Netlist, seed: int):
    rng = random.Random(seed ^ 0x5EED)
    return {signal: rng.randint(0, 1) for signal in netlist.inputs}


class TestExecutorEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_inputs=st.integers(min_value=2, max_value=5),
        n_gates=st.integers(min_value=3, max_value=20),
    )
    def test_all_executors_match_the_golden_model(self, seed, n_inputs, n_gates):
        netlist = random_netlist(seed, n_inputs, n_gates)
        inputs = random_inputs(netlist, seed)
        golden = netlist.evaluate_outputs(inputs)
        for executor_cls in (UnprotectedExecutor, EcimExecutor, TrimExecutor):
            report = executor_cls(random_netlist(seed, n_inputs, n_gates)).run(dict(inputs))
            assert report.outputs == golden, executor_cls.__name__

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_gates=st.integers(min_value=3, max_value=12),
    )
    def test_ecim_single_output_variant_matches(self, seed, n_gates):
        netlist = random_netlist(seed, 3, n_gates)
        inputs = random_inputs(netlist, seed)
        golden = netlist.evaluate_outputs(inputs)
        report = EcimExecutor(
            random_netlist(seed, 3, n_gates), multi_output=False
        ).run(dict(inputs))
        assert report.outputs == golden


class TestSepOnRandomCircuits:
    @pytest.mark.parametrize("seed", [11, 42, 1234])
    def test_ecim_sep_holds_exhaustively(self, seed):
        netlist = random_netlist(seed, n_inputs=3, n_gates=8)
        inputs = random_inputs(netlist, seed)
        backend = make_backend("scalar", netlist, "ecim")
        analysis = exhaustive_single_fault_injection(backend, inputs)
        assert analysis.total_sites > 8
        assert analysis.sep_guaranteed, analysis.unprotected_sites

    @pytest.mark.parametrize("seed", [7, 99])
    def test_trim_sep_holds_exhaustively(self, seed):
        netlist = random_netlist(seed, n_inputs=3, n_gates=8)
        inputs = random_inputs(netlist, seed)
        backend = make_backend("scalar", netlist, "trim")
        analysis = exhaustive_single_fault_injection(backend, inputs)
        assert analysis.sep_guaranteed, analysis.unprotected_sites

    def test_fault_site_enumeration_is_deterministic(self):
        netlist = random_netlist(5, 3, 10)
        inputs = random_inputs(netlist, 5)
        rebuilt = random_netlist(5, 3, 10)
        first = enumerate_fault_sites(make_backend("scalar", netlist, "ecim"), inputs)
        second = enumerate_fault_sites(make_backend("scalar", rebuilt, "ecim"), inputs)
        assert first == second
