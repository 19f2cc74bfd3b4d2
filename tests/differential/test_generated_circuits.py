"""Generated-circuit differential: random NOR/NOT/THR netlists, every scheme
and gate style, ragged batches — candidate backends byte-identical to the
scalar reference, captured outputs included.

The fixed grid (``test_differential.py``) only sees the shipped workloads,
whose gate shapes are NOR2, NOT, THR3 and THR4 on distinct operands.  The
circuits of :func:`random_netlist` also fire one- and three-input NORs and
THR4 with repeated operands, and their level structures (wide, narrow,
reconvergent) give ECiM and TRiM levels of every size.  Each example runs
fault free, under deterministic two-flip plans drawn from the backend's own
site list, under the stochastic model with gate, metadata, preset and
memory errors, under bursts, and stuck at a polarity on two columns drawn
from the whole layout (scratch and parity columns included), on a batch
size drawn from 1 to 130 (so B % 64 and B % 8 land everywhere).  The
multi-output ECiM examples have NOR2 -> THR43 parity pairs, which the
bitpacked tape fuses, so their faults reach the fused record's slow path.
``max_examples`` stays small to keep tier-1 fast.  One more case runs a
pooled multi-fault sweep on a bitpacked backend whose int tape is already
built, so the pool pickles it.

The same circuits also check the paper's guarantee itself, on the default
backend: under ECiM and TRiM, in both gate styles, every single fault
leaves the outputs correct, while the unprotected twin loses it.
"""

import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import DEFAULT_BACKEND, derive_seed, make_backend
from repro.core.batched import sample_input_matrix
from repro.core.rng import TrialStream
from repro.core.sep import exhaustive_multi_fault_injection, exhaustive_single_fault_injection
from repro.pim.faults import FaultModelSpec

from differential_harness import BACKEND_FACTORIES, REFERENCE_BACKEND, assert_outcomes_identical

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "core"))
from test_property_random_circuits import random_netlist  # noqa: E402


def _two_flip_plans(sites, fault_seeds):
    plans = []
    for seed in fault_seeds:
        entry = {}
        for index in random.Random(seed).sample(range(len(sites)), 2):
            site = sites[index]
            entry.setdefault(site.operation_index, []).append(site.output_position)
        plans.append(entry)
    return plans


#: Every Bernoulli class at a rate that hits small circuits' few sites.
STOCHASTIC = FaultModelSpec.stochastic(
    gate_error_rate=0.05,
    metadata_error_rate=0.08,
    preset_error_rate=0.05,
    memory_error_rate=0.05,
)


#: Bursts long enough to hit both steps of a NOR -> THR parity pair.
BURST = FaultModelSpec.burst(
    burst_length=3,
    correlation_window=5,
    gate_error_rate=0.05,
    memory_error_rate=0.05,
)


def _stuck_at(n_cols, seed):
    """Two columns of the layout, stuck at a polarity, both drawn from the
    example's seed."""
    rng = random.Random(seed)
    return FaultModelSpec.stuck_at(
        rng.sample(range(n_cols), min(2, n_cols)), stuck_polarity=rng.randint(0, 1)
    )


@pytest.mark.parametrize("multi_output", [True, False], ids=["mo", "so"])
@pytest.mark.parametrize("scheme", ["unprotected", "ecim", "trim"])
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_inputs=st.integers(min_value=2, max_value=5),
    n_gates=st.integers(min_value=3, max_value=14),
    batch=st.integers(min_value=1, max_value=130),
)
def test_generated_circuit_byte_identical(scheme, multi_output, seed, n_inputs, n_gates, batch):
    netlist = random_netlist(seed, n_inputs, n_gates)
    reference = make_backend(REFERENCE_BACKEND, netlist, scheme, multi_output=multi_output)
    stream = TrialStream.keyed(("generated", seed), range(batch))
    inputs = sample_input_matrix(netlist, stream)
    sites = reference.enumerate_sites()
    plans = _two_flip_plans(
        sites, [derive_seed("generated", seed, trial, "faults") for trial in range(batch)]
    )
    candidates = {
        name: build(netlist, scheme, multi_output) for name, build in BACKEND_FACTORIES.items()
    }
    sources = {
        "fault-free": {},
        "plan": dict(fault_plan=plans),
        "stochastic": dict(fault_model=STOCHASTIC, stream=stream),
        "burst": dict(fault_model=BURST, stream=stream),
        "stuck-at": dict(fault_model=_stuck_at(candidates["bitpacked"].plan.n_cols, seed)),
    }
    expected = {
        source: reference.run_trials(inputs, capture_outputs=True, **kwargs)
        for source, kwargs in sources.items()
    }
    assert expected["fault-free"].outputs_correct.all()
    for name, candidate in candidates.items():
        assert candidate.enumerate_sites() == sites
        context = f"{netlist.name}/{scheme}/mo={multi_output}/B={batch}/{name}"
        for source, kwargs in sources.items():
            assert_outcomes_identical(
                expected[source],
                candidate.run_trials(inputs, capture_outputs=True, **kwargs),
                f"{context}/{source}",
            )


def test_pooled_sweep_after_the_tape_is_built():
    # A three-input NOR lowers to a truth-table record whose program is a
    # closure.  The pool pickles the backend once per shard, after the
    # in-process batch below has built its tape.
    netlist = random_netlist(3, 3, 5)
    assert any(node.gate == "nor" and len(node.inputs) == 3 for node in netlist.gates)
    backend = make_backend("bitpacked", netlist, "ecim")
    inputs = {signal: 1 for signal in netlist.inputs}
    backend.run_trials(inputs, n_trials=4)
    sweep = dict(k=2, chunk_size=64)
    serial = exhaustive_multi_fault_injection(backend, inputs, jobs=1, **sweep)
    assert serial.total_combinations > sweep["chunk_size"]  # several shards
    assert exhaustive_multi_fault_injection(backend, inputs, jobs=2, **sweep) == serial


@pytest.mark.parametrize("multi_output", [True, False], ids=["mo", "so"])
@pytest.mark.parametrize("scheme", ["ecim", "trim"])
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_inputs=st.integers(min_value=2, max_value=5),
    n_gates=st.integers(min_value=3, max_value=14),
)
def test_generated_circuit_single_error_protection(scheme, multi_output, seed, n_inputs, n_gates):
    netlist = random_netlist(seed, n_inputs, n_gates)
    rng = random.Random(seed)
    for _ in range(2):
        inputs = {signal: rng.randint(0, 1) for signal in netlist.inputs}
        protected = make_backend(DEFAULT_BACKEND, netlist, scheme, multi_output=multi_output)
        analysis = exhaustive_single_fault_injection(protected, inputs)
        assert analysis.sep_guaranteed, (netlist.name, scheme, multi_output, inputs)
        # Without checks a fault on an output gate reaches the outputs, so
        # the property can fail.
        bare = make_backend(DEFAULT_BACKEND, netlist, "unprotected", multi_output=multi_output)
        assert not exhaustive_single_fault_injection(bare, inputs).sep_guaranteed
