"""Every campaign fault source, byte-identical on every backend.

Under RNG contract 2 each shard draws from one counter-based trial stream,
and every stochastic fault source is lowered to one shared schedule or plan,
so the default model, the declarative stochastic model with preset and
memory errors, bursts, k-flip plans, importance shards and stratified shards
all give identical counters, weights, strata and captured output bits on
scalar, batched and bitpacked — at ragged shard sizes and offsets.
"""

import numpy as np
import pytest

from repro.campaign.adaptive import parse_estimator
from repro.campaign.adaptive.strata import allocate_trials, stratum_probabilities
from repro.campaign.spec import CampaignCell, ShardTask, trial_seed
from repro.campaign.worker import (
    _backend_for,
    _estimator_outcomes,
    _fault_model_spec,
    _multi_fault_plan,
    _site_arrays,
    run_shard,
)
from repro.core.backend import BACKEND_NAMES
from repro.core.batched import sample_input_matrix
from repro.core.rng import TrialStream

from differential_harness import assert_outcomes_identical

#: (workload, scheme, shard sizes): and2 runs every ragged size, dot2 the
#: small ones (the scalar reference costs ~20 ms per dot2 trial).
SHAPES = (
    ("and2", "ecim", (1, 13, 65)),
    ("and2", "trim", (1, 13, 65)),
    ("dot2", "ecim", (1, 13)),
    ("dot2", "trim", (1, 13)),
)
CASES = [
    (workload, scheme, size) for workload, scheme, sizes in SHAPES for size in sizes
]
CASE_IDS = [f"{w}-{s}-B{n}" for w, s, n in CASES]

#: Plain-campaign sources: cell fields beyond (workload, scheme).
PLAIN_SOURCES = {
    "default": dict(gate_error_rate=0.02, memory_error_rate=0.01),
    "stochastic": dict(
        gate_error_rate=0.02,
        memory_error_rate=0.01,
        fault_model="stochastic:preset=0.01,metadata=0.03",
    ),
    "burst": dict(
        gate_error_rate=0.02, memory_error_rate=0.01, fault_model="burst:length=3,window=5"
    ),
    "k-flip": dict(gate_error_rate=0.02, faults_per_trial=2),
}

#: Shards start mid-cell, so trial indices are not 0-based.
START = 37


def _shard(cell, size, backend, **extra):
    return ShardTask(
        cell=cell, shard_index=3, start_trial=START, n_trials=size, campaign_seed=9,
        backend=backend, **extra,
    )


def _outcomes(cell, size, backend_name):
    """The shard's TrialOutcomes, with outputs captured, exactly as
    run_shard draws them."""
    backend = _backend_for(cell, backend_name)
    stream = TrialStream(trial_seed(9, cell.key), range(START, START + size))
    inputs = sample_input_matrix(backend.netlist, stream)
    if cell.faults_per_trial is not None:
        plan = _multi_fault_plan(backend, stream, cell.faults_per_trial)
        return backend.run_trials(inputs, fault_plan=plan, capture_outputs=True)
    spec = _fault_model_spec(cell)
    return backend.run_trials(inputs, fault_model=spec, stream=stream, capture_outputs=True)


@pytest.mark.parametrize("source", sorted(PLAIN_SOURCES))
@pytest.mark.parametrize("workload,scheme,size", CASES, ids=CASE_IDS)
def test_plain_sources_byte_identical(workload, scheme, size, source):
    cell = CampaignCell(workload=workload, scheme=scheme, technology="stt",
                        **PLAIN_SOURCES[source])
    reference = _outcomes(cell, size, "scalar")
    shards = {name: run_shard(_shard(cell, size, name)).counts for name in BACKEND_NAMES}
    for name in BACKEND_NAMES[1:]:
        context = f"{cell.key}/B={size}/{name}"
        assert_outcomes_identical(reference, _outcomes(cell, size, name), context)
        assert shards[name] == shards["scalar"], context
    assert shards["scalar"] == reference.counts()


def _estimator_shard(cell, size, backend_name, estimator):
    est = parse_estimator(estimator)
    extra = dict(estimator=estimator)
    if est.kind == "stratified":
        backend = _backend_for(cell, backend_name)
        n_sites = _site_arrays(backend)[2]
        probabilities = stratum_probabilities(n_sites, cell.gate_error_rate, est.k_max)
        extra.update(allocation=allocate_trials(probabilities, 200), block_start=START - 20)
    return _shard(cell, size, backend_name, **extra)


@pytest.mark.parametrize("estimator", ["importance:rate=0.05", "stratified:k_max=2"])
@pytest.mark.parametrize("workload,scheme,size", CASES, ids=CASE_IDS)
def test_estimator_shards_byte_identical(workload, scheme, size, estimator):
    cell = CampaignCell(workload=workload, scheme=scheme, technology="stt", gate_error_rate=0.01)
    results = {}
    for name in BACKEND_NAMES:
        task = _estimator_shard(cell, size, name, estimator)
        result = run_shard(task)
        results[name] = (result.counts, result.weights, result.strata)
        backend = _backend_for(cell, name)
        stream = TrialStream(trial_seed(9, cell.key), task.trial_indices)
        inputs = sample_input_matrix(backend.netlist, stream)
        outcomes, _, _ = _estimator_outcomes(
            task, parse_estimator(estimator), backend, inputs, stream
        )
        assert outcomes.counts() == result.counts
        results[name] += (outcomes.faults_injected.tolist(), outcomes.outputs_correct.tolist())
    assert results["batched"] == results["scalar"]
    assert results["bitpacked"] == results["scalar"]


def test_sources_inject_faults():
    """A differential pass over fault-free shards proves nothing."""
    for source, fields in PLAIN_SOURCES.items():
        cell = CampaignCell(workload="dot2", scheme="ecim", technology="stt", **fields)
        counts = run_shard(_shard(cell, 13, "bitpacked")).counts
        assert counts["faulty_trials"] > 0, source
        if source in ("default", "stochastic", "burst"):
            assert counts["faults_injected"] > counts["faulty_trials"], source
    assert np.all(
        _outcomes(
            CampaignCell(workload="and2", scheme="ecim", technology="stt",
                         **PLAIN_SOURCES["k-flip"]),
            13,
            "bitpacked",
        ).faults_injected
        == 2
    )
