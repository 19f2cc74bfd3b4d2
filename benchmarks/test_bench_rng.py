"""RNG layer benches: the counter-based stream a campaign shard draws from.

Three layers of :mod:`repro.core.rng`, timed alone so a campaign-level
change can be traced to the layer it touched:

* the stream key plus every trial's inputs for 20,000 dot2 trials — one
  SHA-256 and one vectorized Philox call;
* the stochastic fault schedule of a 20,000-trial dot2 + ECiM batch at
  1e-3 (geometric skip-sampling per fault class);
* the same schedule for one 250-trial mlp16 + ECiM shard, whose 72,448
  gate outputs make the gap matrices widest.
"""

from conftest import emit

from repro.campaign.spec import trial_seed
from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import make_backend
from repro.core.batched import sample_input_matrix
from repro.core.rng import TrialStream, fault_schedule
from repro.pim.faults import FaultModelSpec

STREAM_TRIALS = 20_000
DOT2_TRIALS = 20_000
MLP16_TRIALS = 250

#: The default campaign model at the benched rate.
_MODEL = FaultModelSpec.stochastic(gate_error_rate=1e-3, memory_error_rate=0.0)


def test_stream_key_and_inputs(benchmark):
    netlist = get_campaign_workload("dot2").netlist

    def draw():
        stream = TrialStream(trial_seed(17, "dot2|ecim"), range(STREAM_TRIALS))
        return sample_input_matrix(netlist, stream)

    inputs = benchmark.pedantic(draw, rounds=5, iterations=1)
    assert inputs.shape == (STREAM_TRIALS, len(netlist.inputs))
    rate = STREAM_TRIALS / benchmark.stats.stats.mean
    emit({"rendered": f"stream key + inputs: {rate:.0f} trials/sec (dot2)"})


def _bench_schedule(benchmark, workload, trials, rounds):
    netlist = get_campaign_workload(workload).netlist
    sites = make_backend("batched", netlist, "ecim").plan.fault_sites
    stream = TrialStream.keyed((17, workload), range(trials))
    schedule = benchmark.pedantic(
        fault_schedule, args=(_MODEL, stream, sites, trials), rounds=rounds, iterations=1
    )
    assert schedule.faults.shape == (trials,)
    assert 0 < schedule.faults.sum()
    rate = trials / benchmark.stats.stats.mean
    emit({"rendered": f"stochastic schedule: {rate:.0f} trials/sec ({workload}, ecim)"})


def test_dot2_stochastic_schedule(benchmark):
    _bench_schedule(benchmark, "dot2", DOT2_TRIALS, rounds=5)


def test_mlp16_stochastic_schedule(benchmark):
    _bench_schedule(benchmark, "mlp16", MLP16_TRIALS, rounds=10)
