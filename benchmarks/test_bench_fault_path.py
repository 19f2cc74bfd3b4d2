"""Fault-path layer benches: the bit-sliced engine's fault lowering and
ECiM decode, plus the fault-free walk they add to, timed alone so a
campaign-level change can be traced to the layer it touched.

* one 250-trial fault-free mlp16 + ECiM ``run_trials``: the int-tape walk
  alone (16,834 of its 22,700 records are fused NOR2 -> THR43 parity
  pairs), plus packing the inputs and the golden netlist run;
* the same call under the default stochastic model at 1e-3: the schedule,
  its lowering to event lists, the walk with ~18k flip events on ~14k of
  the tape's 39,534 plan steps, and the ECiM decodes they trigger;
* lowering one 250-trial mlp16 + ECiM stochastic schedule at 1e-3 (~72
  faults per trial over 79,102 fault sites) to the walk's event lists, one
  XOR int per hit site: map the hits to tape-order ranks, one
  ``np.bincount``, pack the sites hit in several trials;
* one 4,096-row and2 + BCH-t2 k=4 sweep shard through ``run_trials``:
  lowering the CSR plan to XOR ints, then a syndrome decode at both logic
  levels in every row — the tape is short, so the shard is mostly fault
  path;
* the same shard as the sweep runs it (``sep._sweep_shard``): unranking
  the combinations and building the plan, ``run_trials``, then the
  per-level budget check and the coverage counters.

No ratios are asserted; the medians are pinned in ``baseline.json``.
"""

import numpy as np
from conftest import emit

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import make_backend
from repro.core.batched import sample_input_matrix
from repro.core.bitpacked import _flip_table, _scheduled_events
from repro.core.faultplan import FaultPlanArrays, unrank_combinations
from repro.core.rng import TrialStream, fault_schedule
from repro.core.sep import _Sweep, _sweep_shard
from repro.ecc.bch import bch_code_factory
from repro.pim.faults import FaultModelSpec

MLP16_TRIALS = 250
SWEEP_ROWS = 4096
SWEEP_K = 4

#: The default campaign model at the benched rate.
_MODEL = FaultModelSpec.stochastic(gate_error_rate=1e-3, memory_error_rate=0.0)


def test_mlp16_faultfree_walk(benchmark):
    netlist = get_campaign_workload("mlp16").netlist
    backend = make_backend("bitpacked", netlist, "ecim")
    stream = TrialStream.keyed((17, "mlp16"), range(MLP16_TRIALS))
    matrix = sample_input_matrix(netlist, stream)
    backend.run_trials(matrix[:2])  # lower the tape outside the timed rounds
    outcomes = benchmark.pedantic(
        backend.run_trials,
        args=(matrix,),
        kwargs={"capture_outputs": True},
        rounds=10,
        iterations=1,
    )
    assert outcomes.outputs_correct.all() and not outcomes.detected.any()
    rate = MLP16_TRIALS / benchmark.stats.stats.mean
    emit({"rendered": f"fault-free walk: {rate:.0f} trials/sec (mlp16, ecim, one shard)"})


def test_mlp16_faulty_walk(benchmark):
    netlist = get_campaign_workload("mlp16").netlist
    backend = make_backend("bitpacked", netlist, "ecim")
    stream = TrialStream.keyed((17, "mlp16"), range(MLP16_TRIALS))
    matrix = sample_input_matrix(netlist, stream)
    backend.run_trials(matrix[:2])  # lower the tape outside the timed rounds
    outcomes = benchmark.pedantic(
        backend.run_trials,
        args=(matrix,),
        kwargs={"fault_model": _MODEL, "stream": stream, "capture_outputs": True},
        rounds=10,
        iterations=1,
    )
    assert outcomes.faults_injected.sum() > 0 and outcomes.detected.any()
    rate = MLP16_TRIALS / benchmark.stats.stats.mean
    emit({"rendered": f"faulty walk: {rate:.0f} trials/sec (mlp16, ecim, one shard at 1e-3)"})


def test_mlp16_schedule_lowering(benchmark):
    netlist = get_campaign_workload("mlp16").netlist
    tape = make_backend("bitpacked", netlist, "ecim").tape
    stream = TrialStream.keyed((17, "mlp16"), range(MLP16_TRIALS))
    schedule = fault_schedule(_MODEL, stream, tape.plan.fault_sites, MLP16_TRIALS)

    def lower():
        ranks, trials = _scheduled_events(tape, schedule)
        return _flip_table(tape, ranks, trials, MLP16_TRIALS)

    steps, columns, masks = benchmark.pedantic(lower, rounds=10, iterations=1)
    assert steps[-1] == tape.n_steps and len(steps) == len(columns) + 1 == len(masks) + 1
    assert 0 < len(masks) <= int(schedule.faults.sum())
    rate = MLP16_TRIALS / benchmark.stats.stats.mean
    emit({"rendered": f"schedule lowering: {rate:.0f} trials/sec (mlp16, ecim, one shard)"})


def test_and2_bch2_sweep_shard(benchmark):
    netlist = get_campaign_workload("and2").netlist
    backend = make_backend("bitpacked", netlist, "ecim", code_factory=bch_code_factory(2))
    inputs = {signal: 1 for signal in netlist.inputs}
    sites = backend.enumerate_sites(inputs)
    site_ops = np.asarray([site.operation_index for site in sites], dtype=np.int64)
    site_positions = np.asarray([site.output_position for site in sites], dtype=np.int64)
    matrix = unrank_combinations(len(sites), SWEEP_K, np.arange(SWEEP_ROWS, dtype=np.int64))
    plan = FaultPlanArrays.from_site_matrix(matrix, site_ops, site_positions)
    backend.run_trials(inputs, n_trials=2)  # warm caches
    outcomes = benchmark.pedantic(
        backend.run_trials,
        args=(inputs,),
        kwargs={"n_trials": SWEEP_ROWS, "fault_plan": plan},
        rounds=10,
        iterations=1,
    )
    assert np.all(outcomes.faults_injected == SWEEP_K)
    assert outcomes.corrections.sum() > 0
    rate = SWEEP_ROWS / benchmark.stats.stats.mean
    emit({"rendered": f"sweep shard: {rate:.0f} combinations/sec (and2, bch-t2, k={SWEEP_K})"})


def test_and2_bch2_whole_sweep_shard(benchmark):
    netlist = get_campaign_workload("and2").netlist
    backend = make_backend("bitpacked", netlist, "ecim", code_factory=bch_code_factory(2))
    inputs = {signal: 1 for signal in netlist.inputs}
    sites = backend.enumerate_sites(inputs)
    sweep = _Sweep.over(backend, inputs, sites, SWEEP_K, 2, False)
    assert sweep.levels_sorted
    _sweep_shard(sweep, 0, 2)  # warm caches
    start, counters, _ = benchmark.pedantic(
        _sweep_shard, args=(sweep, 0, SWEEP_ROWS), rounds=10, iterations=1
    )
    assert start == 0 and counters[0] == SWEEP_ROWS
    assert counters[-1] == 0  # no within-budget combination corrupts the outputs
    rate = SWEEP_ROWS / benchmark.stats.stats.mean
    label = f"and2, bch-t2, k={SWEEP_K}"
    emit({"rendered": f"whole sweep shard: {rate:.0f} combinations/sec ({label})"})
