"""Campaign engine bench: fault-injection trials/sec, serial vs multi-process.

Not a paper artefact — this measures the throughput of the
``repro.campaign`` engine itself: how many full protected executions per
second the shard runner sustains, and what the process-pool fan-out buys
once shard work amortises worker start-up.  The two configurations run the
*same* spec, so the bench doubles as an end-to-end check that worker count
does not change campaign results.
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

#: Filled by the serial bench, compared by the parallel bench (file order).
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
