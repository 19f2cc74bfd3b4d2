"""Bit-sliced engine bench: trials/sec vs the uint8 batched and scalar
engines on the same cells.

Three shapes, matching how campaigns actually spend time:

* the dot2 + ECiM Monte-Carlo shard (the default stochastic model at
  1e-3), benched at the engine level — one ``run_trials`` call over a
  precomputed trial stream and inputs, so the numbers isolate the
  interpreters plus the shared fault schedule.  Every gate is a few big-int
  ops over the whole batch, so the asserted floor is a conservative 4x over
  the uint8 engine;
* one 250-trial mlp16 + ECiM shard under the same model: the 39,534-step
  tape where per-step interpretation cost, not fault sampling, dominates;
* a dot2 k=2 multi-fault shard through the full campaign path from a cold
  executor cache.  Plans are array-native (one k-subset draw per trial
  into a CSR ``FaultPlanArrays`` batch), so compiling the plan and
  enumerating its fault sites cost about as much as interpretation on both
  tape engines; the bench only guards against regressing below the uint8
  engine rather than asserting a speedup;
* a serial multi-shard campaign on warm caches — dot2 under unprotected,
  ECiM and TRiM, four 250-trial shards per cell — where each cell's
  shards run as one engine batch and are recorded one by one.
"""

from conftest import emit

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.workloads import get_campaign_workload
from repro.campaign.worker import clear_executor_cache
from repro.core.backend import make_backend
from repro.core.batched import sample_input_matrix
from repro.core.rng import TrialStream
from repro.pim.faults import FaultModelSpec

SCALAR_TRIALS = 120
BATCHED_TRIALS = 1000
BITPACKED_TRIALS = 20_000
KFLIP_TRIALS = 2000
MLP16_TRIALS = 250

#: The asserted floor of the bit-packed engine over the uint8 batched one on
#: the Monte-Carlo shard (ISSUE 7 acceptance criterion).
BITPACKED_FLOOR = 4.0

#: The Monte-Carlo cell: dot2 + ECiM under the default stochastic model.
_MODEL = FaultModelSpec.stochastic(gate_error_rate=1e-3, memory_error_rate=0.0)
_SEED = 23

_KFLIP_CELL = dict(
    workloads=("dot2",),
    schemes=("ecim",),
    technologies=("stt",),
    gate_error_rates=(1e-3,),
    faults_per_trial=2,
    seed=31,
    name="bitpacked-kflip-bench",
)

#: The serial multi-shard campaign: perfbench's dot2 grid at its repeat size.
_SERIAL_CAMPAIGN = dict(
    workloads=("dot2",),
    schemes=("unprotected", "ecim", "trim"),
    technologies=("stt",),
    gate_error_rates=(1e-3,),
    shard_size=250,
    seed=37,
    backend="bitpacked",
    name="bitpacked-serial-campaign-bench",
)
SERIAL_CAMPAIGN_TRIALS = 1000

#: trials/sec per engine, filled in file order (scalar -> batched ->
#: bitpacked) and consumed by the later tests' ratio assertions.
_OBSERVED = {}
_KFLIP_OBSERVED = {}


def _bench_engine(benchmark, name, trials, workload="dot2", rounds=1):
    """Time one warmed run_trials call on an ECiM Monte-Carlo shard."""
    netlist = get_campaign_workload(workload).netlist
    backend = make_backend(name, netlist, "ecim")
    stream = TrialStream.keyed((_SEED, "bench"), range(trials))
    inputs = sample_input_matrix(netlist, stream)
    backend.run_trials(inputs[:2], fault_model=_MODEL, stream=stream[:2])  # warm caches
    outcomes = benchmark.pedantic(
        backend.run_trials,
        args=(inputs,),
        kwargs={"fault_model": _MODEL, "stream": stream},
        rounds=rounds,
        iterations=1,
    )
    assert outcomes.n_trials == trials
    assert outcomes.counts()["silent_corruption"] == 0
    return trials / benchmark.stats.stats.mean


def test_scalar_monte_carlo_throughput(benchmark):
    _OBSERVED["scalar"] = _bench_engine(benchmark, "scalar", SCALAR_TRIALS)
    emit({"rendered": f"scalar engine: {_OBSERVED['scalar']:.0f} trials/sec (dot2, ecim)"})


def test_batched_monte_carlo_throughput(benchmark):
    _OBSERVED["batched"] = _bench_engine(benchmark, "batched", BATCHED_TRIALS)
    emit({"rendered": f"batched engine: {_OBSERVED['batched']:.0f} trials/sec (dot2, ecim)"})


def test_bitpacked_monte_carlo_throughput(benchmark):
    bitpacked = _bench_engine(benchmark, "bitpacked", BITPACKED_TRIALS)
    _OBSERVED["bitpacked"] = bitpacked
    lines = [
        f"bitpacked engine: {bitpacked:.0f} trials/sec "
        f"(dot2, ecim, {BITPACKED_TRIALS}-trial shard)"
    ]
    if "scalar" in _OBSERVED:
        lines.append(f"speedup over scalar: {bitpacked / _OBSERVED['scalar']:.0f}x")
    if "batched" in _OBSERVED:
        speedup = bitpacked / _OBSERVED["batched"]
        lines.append(f"speedup over batched (uint8): {speedup:.1f}x")
        assert speedup >= BITPACKED_FLOOR, (
            f"bitpacked engine must be >={BITPACKED_FLOOR:.0f}x the uint8 "
            f"batched engine on the Monte-Carlo shard, got {speedup:.1f}x"
        )
    emit({"rendered": "\n".join(lines)})


def test_bitpacked_mlp16_shard_throughput(benchmark):
    rate = _bench_engine(benchmark, "bitpacked", MLP16_TRIALS, workload="mlp16", rounds=5)
    emit({"rendered": f"bitpacked engine: {rate:.0f} trials/sec (mlp16, ecim, one shard)"})


def _run(benchmark, backend, trials, cell):
    """Time one full campaign (spec -> shards -> counters) on ``backend``."""
    spec = CampaignSpec(backend=backend, trials=trials, shard_size=trials, **cell)
    clear_executor_cache()
    result = benchmark.pedantic(
        run_campaign, args=(spec,), kwargs={"workers": 0}, rounds=1, iterations=1
    )
    assert result.total_trials == trials
    return trials / benchmark.stats.stats.mean


def test_batched_kflip_throughput(benchmark):
    batched = _run(benchmark, "batched", KFLIP_TRIALS, _KFLIP_CELL)
    _KFLIP_OBSERVED["batched"] = batched
    emit({"rendered": f"batched engine, k=2 plans: {batched:.0f} trials/sec"})


def test_bitpacked_kflip_throughput(benchmark):
    bitpacked = _run(benchmark, "bitpacked", KFLIP_TRIALS, _KFLIP_CELL)
    lines = [f"bitpacked engine, k=2 plans: {bitpacked:.0f} trials/sec"]
    if "batched" in _KFLIP_OBSERVED:
        ratio = bitpacked / _KFLIP_OBSERVED["batched"]
        lines.append(f"ratio over batched (uint8): {ratio:.2f}x")
        # Plan compile and site enumeration weigh as much as interpretation
        # on this path; guard against regressing below the uint8 engine
        # (with CI noise headroom) rather than asserting a speedup.
        assert ratio >= 0.8, f"bitpacked k=2 shard fell below the uint8 engine: {ratio:.2f}x"
    emit({"rendered": "\n".join(lines)})


def test_bitpacked_serial_campaign_throughput(benchmark):
    run_campaign(CampaignSpec(trials=1, **_SERIAL_CAMPAIGN), workers=0)  # warm caches
    spec = CampaignSpec(trials=SERIAL_CAMPAIGN_TRIALS, **_SERIAL_CAMPAIGN)
    result = benchmark.pedantic(
        run_campaign, args=(spec,), kwargs={"workers": 0}, rounds=5, iterations=1
    )
    assert result.executed_shards == 12
    rate = result.total_trials / benchmark.stats.stats.median
    emit({"rendered": f"bitpacked serial campaign: {rate:.0f} trials/sec (dot2, 3 schemes)"})
