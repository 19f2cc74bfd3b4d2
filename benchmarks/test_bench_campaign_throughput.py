"""Campaign engine bench: fault-injection trials/sec, serial vs multi-process.

Not a paper artefact — this measures the throughput of the
``repro.campaign`` engine itself: how many full protected executions per
second the shard runner sustains, and what the process-pool fan-out buys
once shard work amortises worker start-up.  Each pair of configurations
runs the *same* spec, so the bench doubles as an end-to-end check that
worker count does not change campaign results:

* a scalar and2 campaign, compared by its counters;
* a bitpacked dot2 campaign recording into a checkpoint and a results
  store — a default campaign's path, where the pool runs shard groups and
  every group commits once — compared by its checkpoint lines.

None of these is pinned in ``baseline.json``: the baseline gate compares
absolute seconds without scaling for host speed, and pool wall time on a
shared 2-vCPU runner is too noisy to gate.
"""

from conftest import emit

from repro.campaign import CampaignSpec, run_campaign

TRIALS = 240
_SPEC = dict(
    workloads=("and2",),
    schemes=("unprotected", "ecim", "trim"),
    technologies=("stt",),
    gate_error_rates=(1e-3,),
    trials=TRIALS,
    shard_size=40,
    seed=17,
    backend="scalar",
    name="throughput-bench",
)

#: 9 cells of 10,000 trials in 250-trial shards (360 shards).
_RECORDED_SPEC = dict(
    workloads=("dot2",),
    schemes=("unprotected", "ecim", "trim"),
    technologies=("stt",),
    gate_error_rates=(1e-3, 3e-3, 1e-2),
    trials=10_000,
    shard_size=250,
    seed=19,
    backend="bitpacked",
    name="recorded-throughput-bench",
)

#: Filled by the serial benches, compared by the parallel ones (file order).
_OBSERVED = {}


def _report(result, benchmark, label):
    elapsed = benchmark.stats.stats.mean
    emit(
        {
            "rendered": (
                f"Campaign throughput ({label}): "
                f"{result.total_trials} trials in {elapsed:.2f}s = "
                f"{result.total_trials / elapsed:.0f} trials/sec"
            )
        }
    )


def test_campaign_throughput_serial(benchmark):
    spec = CampaignSpec(**_SPEC)
    result = benchmark.pedantic(
        run_campaign, args=(spec,), kwargs={"workers": 0}, rounds=1, iterations=1
    )
    assert result.total_trials == TRIALS * 3
    _OBSERVED["serial"] = result.counts_by_cell
    _report(result, benchmark, "serial")


def test_campaign_throughput_two_workers(benchmark):
    spec = CampaignSpec(**_SPEC)
    result = benchmark.pedantic(
        run_campaign, args=(spec,), kwargs={"workers": 2}, rounds=1, iterations=1
    )
    assert result.total_trials == TRIALS * 3
    if "serial" in _OBSERVED:
        assert result.counts_by_cell == _OBSERVED["serial"]
    _report(result, benchmark, "2 workers")


def _run_recorded(benchmark, tmp_path, workers):
    """Time one fresh recorded campaign; returns its result and sorted
    checkpoint lines."""
    checkpoint = tmp_path / f"recorded-w{workers}.jsonl"
    result = benchmark.pedantic(
        run_campaign,
        args=(CampaignSpec(**_RECORDED_SPEC),),
        kwargs={
            "workers": workers,
            "checkpoint": checkpoint,
            "db": tmp_path / f"recorded-w{workers}.sqlite",
        },
        rounds=1,
        iterations=1,
    )
    lines = sorted(checkpoint.read_text(encoding="utf-8").splitlines())
    assert result.executed_shards == len(lines) == 360
    return result, lines


def test_recorded_campaign_throughput_serial(benchmark, tmp_path):
    result, lines = _run_recorded(benchmark, tmp_path, 0)
    _OBSERVED["recorded serial"] = lines
    _report(result, benchmark, "bitpacked dot2, checkpoint + store, serial")


def test_recorded_campaign_throughput_two_workers(benchmark, tmp_path):
    result, lines = _run_recorded(benchmark, tmp_path, 2)
    if "recorded serial" in _OBSERVED:
        assert lines == _OBSERVED["recorded serial"]
    _report(result, benchmark, "bitpacked dot2, checkpoint + store, 2 workers")
