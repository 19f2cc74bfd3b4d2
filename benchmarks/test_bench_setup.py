"""Set-up bench: a cold mlp16 + ECiM tape compile and int-tape lowering.

A short campaign pays for its set-up: each process compiles the
``ExecutionPlan`` of every cell it meets (``compile_plan``, which builds the
scalar executor's layout and one ECiM code per level width) and lowers it
to the bit-sliced int tape (``lower_plan``).  On mlp16 + ECiM that is most
of perfbench's ``mlp16_app`` ``setup_s``.  Every round starts cold: the
netlist is the process-cached one, the plan and the tape are built anew.

No ratios are asserted; the median is pinned in ``baseline.json``.
"""

from conftest import emit

from repro.campaign.workloads import get_campaign_workload
from repro.core.batched import compile_plan
from repro.core.bitpacked import lower_plan


def test_mlp16_ecim_setup(benchmark):
    netlist = get_campaign_workload("mlp16").netlist

    def setup():
        return lower_plan(compile_plan(netlist, "ecim"))

    tape = benchmark.pedantic(setup, rounds=5, iterations=1)
    assert tape.n_steps == 39534 and len(tape.records) == 22700
    seconds = benchmark.stats.stats.median
    emit({"rendered": f"cold set-up: {seconds:.3f} s per tape (mlp16, ecim, compile + lower)"})
