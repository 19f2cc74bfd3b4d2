"""Fault-path layer benches: the bit-sliced engine's fault lowering and
ECiM decode, timed alone so a campaign-level change can be traced to the
layer it touched.

* lowering one 250-trial mlp16 + ECiM stochastic schedule at 1e-3 (~72
  faults per trial over 79,102 fault sites) to the engine's per-site XOR
  ints: map the hits to tape-order ranks, one ``np.bincount``, pack the
  sites hit in several trials;
* one 4,096-row and2 + BCH-t2 k=4 sweep shard through ``run_trials``:
  lowering the CSR plan to XOR ints, then a syndrome decode at both logic
  levels in every row — the tape is short, so the shard is mostly fault
  path.

No ratios are asserted; the medians are pinned in ``baseline.json``.
"""

import numpy as np
from conftest import emit

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import make_backend
from repro.core.bitpacked import _flip_table, _int_tape, _scheduled_events
from repro.core.faultplan import FaultPlanArrays, unrank_combinations
from repro.core.rng import TrialStream, fault_schedule
from repro.ecc.bch import bch_code_factory
from repro.pim.faults import FaultModelSpec

MLP16_TRIALS = 250
SWEEP_ROWS = 4096
SWEEP_K = 4

#: The default campaign model at the benched rate.
_MODEL = FaultModelSpec.stochastic(gate_error_rate=1e-3, memory_error_rate=0.0)


def test_mlp16_schedule_lowering(benchmark):
    netlist = get_campaign_workload("mlp16").netlist
    soa = make_backend("bitpacked", netlist, "ecim").soa
    tape = _int_tape(soa)
    stream = TrialStream.keyed((17, "mlp16"), range(MLP16_TRIALS))
    schedule = fault_schedule(_MODEL, stream, soa.plan.fault_sites, MLP16_TRIALS)

    def lower():
        ranks, trials = _scheduled_events(tape, schedule)
        return list(_flip_table(tape, ranks, trials, MLP16_TRIALS))

    flips = benchmark.pedantic(lower, rounds=10, iterations=1)
    assert 0 < len(flips) <= int(schedule.faults.sum())
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
