"""Generated-circuit differential: random NOR/NOT/THR netlists, every scheme
and gate style, ragged batches — candidate backends byte-identical to the
scalar reference, captured outputs included.

The fixed grid (``test_differential.py``) only sees the shipped workloads,
whose gate shapes are NOR2, NOT, THR3 and THR4 on distinct operands.  The
circuits of :func:`random_netlist` also fire one- and three-input NORs and
THR4 with repeated operands, and their level structures (wide, narrow,
reconvergent) give ECiM and TRiM levels of every size.  Each example runs
fault free, under deterministic two-flip plans drawn from the backend's own
site list, and under the stochastic model with gate, metadata, preset and
memory errors, on a batch size drawn from 1 to 130 (so B % 64 and B % 8
land everywhere).  ``max_examples`` stays small to keep tier-1 fast.
"""

import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import derive_seed, make_backend
from repro.core.batched import sample_input_matrix
from repro.core.rng import TrialStream
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
    stochastic = dict(fault_model=STOCHASTIC, stream=stream)
    expected = {
        "fault-free": reference.run_trials(inputs, capture_outputs=True),
        "plan": reference.run_trials(inputs, fault_plan=plans, capture_outputs=True),
        "stochastic": reference.run_trials(inputs, capture_outputs=True, **stochastic),
    }
    assert expected["fault-free"].outputs_correct.all()
    for name, build in BACKEND_FACTORIES.items():
        candidate = build(netlist, scheme, multi_output)
        assert candidate.enumerate_sites() == sites
        context = f"{netlist.name}/{scheme}/mo={multi_output}/B={batch}/{name}"
        assert_outcomes_identical(
            expected["fault-free"],
            candidate.run_trials(inputs, capture_outputs=True),
            f"{context}/fault-free",
        )
        assert_outcomes_identical(
            expected["plan"],
            candidate.run_trials(inputs, fault_plan=plans, capture_outputs=True),
            f"{context}/plan",
        )
        assert_outcomes_identical(
            expected["stochastic"],
            candidate.run_trials(inputs, capture_outputs=True, **stochastic),
            f"{context}/stochastic",
        )
