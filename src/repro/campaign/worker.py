"""Shard execution: the code that actually runs trials, in any process.

A shard is a contiguous chunk of one grid cell's trials, and it stays the
unit of resume and recording.  :func:`run_shards` executes one *group* of a
cell's consecutive shards as a single engine batch and returns one summed
:class:`~repro.campaign.aggregate.ShardResult` per shard; :func:`run_shard`
is the one-shard group.  The serial runner hands it the groups
:func:`shard_groups` cuts (at most the backend class's
``max_batch_trials`` — 4,096 trials on the tape backends, one shard on the
scalar one) and the process pool one shard per task.  Both give the same
bytes, which is a structural property rather than a testing aspiration:

* every trial's randomness comes from one counter-based
  :class:`~repro.core.rng.TrialStream` per batch, keyed once through
  :func:`~repro.campaign.spec.trial_seed` and addressed by trial index —
  inputs and faults as independent streams, never process-local state — so
  a trial draws the same whichever batch it runs in;
* every per-shard sum is taken over that shard's own slice of the batch's
  per-trial vectors (outcomes, captured outputs, importance weights,
  stratum labels), so even float sums match a one-shard run;
* the fault source follows the cell: ``faults_per_trial`` builds
  deterministic k-flip plans, ``fault_model`` runs the declarative
  :class:`~repro.pim.faults.FaultModelSpec` layer (rates the grammar leaves
  unset inherit the cell's swept rates), and otherwise the stochastic model
  at the cell's rates applies — every one byte-identical across backends;
* trial execution goes through the
  :class:`~repro.core.backend.ExecutionBackend` protocol — the **scalar**
  backend reuses one executor per cell configuration through the ``reset``
  fast path, the tape backends interpret one compiled instruction tape per
  cell configuration over the whole batch at once — so the engine dispatch
  lives in :func:`repro.core.backend.make_backend`, not here;
* scalar backends get a :class:`~repro.pim.operations.NullTrace` because
  campaigns only consume outcome counters, not timing/energy traces.

Both per-process caches are bounded LRU maps (:data:`CACHE_LIMIT` entries):
a long campaign sweeping many (workload, scheme, technology, gate-style)
combinations recycles the least-recently-used backend instead of
accumulating one per distinct cell configuration for the life of the worker.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

import numpy as np

from repro.campaign.adaptive.grammar import EstimatorSpec, parse_estimator
from repro.campaign.adaptive.importance import likelihood_ratios, weighted_outcome_sums
from repro.campaign.adaptive.strata import (
    per_stratum_counts,
    stratified_plan,
    stratum_probabilities,
)
from repro.campaign.aggregate import ShardResult
from repro.campaign.application import application_counts, get_application_workload
from repro.campaign.spec import CampaignCell, ShardTask, trial_seed
from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import BoundedCache, ExecutionBackend, backend_class, make_backend
from repro.core.batched import sample_input_matrix
from repro.core.faultplan import FaultPlanArrays
from repro.core.rng import TrialStream
from repro.errors import EvaluationError
from repro.pim.faults import FaultModelSpec, parse_fault_model
from repro.pim.technology import get_technology

__all__ = [
    "CACHE_LIMIT",
    "build_executor",
    "build_plan",
    "run_shard",
    "run_shards",
    "shard_groups",
    "site_count",
    "clear_executor_cache",
]

#: Upper bound on cached backends per engine per worker process.
CACHE_LIMIT = 8

#: Per-process scalar backends: one reusable executor per distinct cell
#: configuration, least-recently-used entries evicted beyond CACHE_LIMIT.
_EXECUTOR_CACHE: "BoundedCache" = BoundedCache(CACHE_LIMIT)

#: Per-process tape backends (batched uint8 and bit-sliced bitpacked
#: engines, keyed by engine name).  Plans are technology-independent
#: (timing/energy never enter trial outcomes), hence the shorter key.
_PLAN_CACHE: "BoundedCache" = BoundedCache(CACHE_LIMIT)


def build_executor(cell: CampaignCell):
    """Construct a fresh scalar executor for ``cell`` (no cache)."""
    netlist = get_campaign_workload(cell.workload).netlist
    return make_backend(
        "scalar",
        netlist,
        cell.scheme,
        multi_output=cell.multi_output,
        technology=cell.technology,
    ).executor


def build_plan(cell: CampaignCell):
    """Compile a fresh batched execution plan for ``cell`` (no cache)."""
    netlist = get_campaign_workload(cell.workload).netlist
    return make_backend(
        "batched", netlist, cell.scheme, multi_output=cell.multi_output
    ).plan


def _executor_for(cell: CampaignCell) -> ExecutionBackend:
    key = (cell.workload, cell.scheme, cell.technology, cell.multi_output)

    def build():
        netlist = get_campaign_workload(cell.workload).netlist
        return make_backend(
            "scalar",
            netlist,
            cell.scheme,
            multi_output=cell.multi_output,
            technology=cell.technology,
            null_trace=True,
        )

    return _EXECUTOR_CACHE.lookup(key, build)


def _plan_for(cell: CampaignCell, backend: str = "batched") -> ExecutionBackend:
    # Plans are technology-independent (timing/energy never enter trial
    # outcomes), but an unknown technology must fail here just like the
    # scalar backend's executor construction does — and before the cache,
    # which keys without technology.
    get_technology(cell.technology)
    key = (backend, cell.workload, cell.scheme, cell.multi_output)

    def build():
        netlist = get_campaign_workload(cell.workload).netlist
        return make_backend(
            backend, netlist, cell.scheme, multi_output=cell.multi_output
        )

    return _PLAN_CACHE.lookup(key, build)


def _backend_for(cell: CampaignCell, backend: str) -> ExecutionBackend:
    """The cached, cell-bound backend serving this shard."""
    return _executor_for(cell) if backend == "scalar" else _plan_for(cell, backend)


def clear_executor_cache() -> None:
    """Drop cached backends (tests exercising cold-start paths)."""
    _EXECUTOR_CACHE.clear()
    _PLAN_CACHE.clear()


def site_count(cell: CampaignCell, backend_name: str) -> int:
    """Number of enumerable fault sites of ``cell`` on ``backend_name``.

    All backends enumerate identical site lists (a PR-3 invariant), and the
    count is exactly the number of Bernoulli draws one stochastic trial
    performs when ``memory_error_rate == 0`` — the ``n`` of the
    importance-sampling likelihood ratio and of the stratified binomial.
    Cached on the backend instance: site enumeration dry-runs the circuit.
    """
    backend = _backend_for(cell, backend_name)
    return _site_arrays(backend)[2]


def _site_arrays(backend: ExecutionBackend):
    """``(operation_index, output_position, count)`` of the backend's sites,
    computed once per cached backend instance (mlp16 + ECiM enumerates
    72,448 sites, more work than a whole shard's interpretation)."""
    cached = getattr(backend, "_campaign_site_arrays", None)
    if cached is None:
        sites = backend.enumerate_sites()
        count = len(sites)
        cached = (
            np.fromiter((site.operation_index for site in sites), np.int64, count),
            np.fromiter((site.output_position for site in sites), np.int64, count),
            count,
        )
        backend._campaign_site_arrays = cached
    return cached


def _estimator_outcomes(task: ShardTask, est: EstimatorSpec, backend, inputs, stream):
    """Run one estimator-mode batch over ``stream``'s trials.

    Returns ``(outcomes, weights, strata)``: the per-trial outcomes and
    weights, and for stratified batches ``strata(rows)``, the per-stratum
    counters of those rows (None otherwise).  ``task`` is any shard of the
    batch: they share the cell, allocation and block start.
    """
    cell = task.cell
    site_ops, site_positions, n_sites = _site_arrays(backend)
    if est.kind == "importance":
        outcomes = backend.run_trials(
            inputs,
            fault_model=FaultModelSpec.stochastic(gate_error_rate=est.rate, memory_error_rate=0.0),
            stream=stream,
        )
        weights = likelihood_ratios(
            outcomes.faults_injected, n_sites, cell.gate_error_rate, est.rate
        )
        return outcomes, weights, None
    if est.kind == "stratified":
        if task.allocation is None:
            raise EvaluationError(
                "stratified shards need a per-stratum allocation; run them "
                "through run_campaign, which plans allocations per round"
            )
        probabilities = stratum_probabilities(n_sites, cell.gate_error_rate, est.k_max)
        offsets = stream.trials.astype(np.int64) - task.block_start
        plans, stratum_of, _ = stratified_plan(
            n_sites,
            cell.gate_error_rate,
            est.k_max,
            task.allocation,
            offsets,
            stream,
            site_ops,
            site_positions,
        )
        outcomes = backend.run_trials(inputs, fault_plan=plans)
        # Per-trial weight pi_k * B / n_k: the Horvitz-Thompson view of the
        # stratified draw (B = block trials), so stratified shards feed the
        # same weighted columns and ESS diagnostics as importance shards.
        allocation = np.asarray(task.allocation, dtype=np.float64)
        block_trials = float(allocation.sum())
        per_stratum_weight = np.where(
            allocation > 0, probabilities * block_trials / np.maximum(allocation, 1.0), 0.0
        )

        def strata(rows):
            return per_stratum_counts(stratum_of[rows], outcomes[rows], probabilities, est.k_max)

        return outcomes, per_stratum_weight[stratum_of], strata
    raise EvaluationError(f"unknown estimator kind {est.kind!r}")


def _fault_model_spec(cell: CampaignCell) -> FaultModelSpec:
    """The cell's declarative fault model — the stochastic model when the
    cell names none — with rates the grammar string left unset inherited
    from the cell's swept gate/memory rates."""
    spec = parse_fault_model(cell.fault_model) if cell.fault_model else FaultModelSpec()
    return spec.resolved(
        gate_error_rate=cell.gate_error_rate,
        memory_error_rate=cell.memory_error_rate,
    )


def _multi_fault_plan(backend: ExecutionBackend, stream: TrialStream, k: int) -> FaultPlanArrays:
    """One deterministic k-flip plan per trial, drawn from its plan stream.

    Sites are sampled uniformly without replacement from the backend's
    enumeration (:meth:`~repro.core.rng.TrialStream.subsets`); because every
    backend enumerates sites identically and k-flip plans execute
    bit-exactly on all of them, a ``faults_per_trial`` campaign produces
    byte-identical counters on every backend.  The chosen site indices go
    straight into a CSR :class:`~repro.core.faultplan.FaultPlanArrays` batch
    over the backend's cached site arrays.
    """
    site_ops, site_positions, count = _site_arrays(backend)
    if k > count:
        raise EvaluationError(f"faults_per_trial={k} exceeds the {count} injectable sites")
    return FaultPlanArrays.from_site_matrix(stream.subsets(count, k), site_ops, site_positions)


def _batch_key(task: ShardTask) -> tuple:
    """Everything but the trial range: tasks sharing it draw from one
    stream under one fault source, so they can run as one batch."""
    return (
        task.cell,
        task.campaign_seed,
        task.backend,
        task.estimator,
        task.allocation,
        task.block_start,
    )


def _continues(previous: ShardTask, task: ShardTask) -> bool:
    """Whether ``task`` extends ``previous``'s batch: the same batch key,
    starting at the trial where ``previous`` ends."""
    return (
        _batch_key(task) == _batch_key(previous)
        and task.start_trial == previous.start_trial + previous.n_trials
    )


def shard_groups(tasks: Iterable[ShardTask]) -> Iterator[List[ShardTask]]:
    """Cut ``tasks``, in order, into the groups :func:`run_shards` runs.

    A group is a run of consecutive tasks each of which continues the one
    before it (see :func:`_continues`), holding at most the backend class's
    ``max_batch_trials`` trials — a shard alone always forms a group.  So a
    resume gap, a new cell or a new stratified round starts a new group.
    """
    group: List[ShardTask] = []
    trials = 0
    for task in tasks:
        if (
            group
            and _continues(group[-1], task)
            and trials + task.n_trials <= backend_class(task.backend).max_batch_trials
        ):
            group.append(task)
            trials += task.n_trials
            continue
        if group:
            yield group
        group, trials = [task], task.n_trials
    if group:
        yield group


def run_shards(tasks: Sequence[ShardTask]) -> List[ShardResult]:
    """Execute one group of shards as one engine batch; one result per shard.

    The group's trials share one trial stream, one input matrix, one fault
    source and one ``run_trials`` call; each result sums its own shard's
    slice of the per-trial vectors, so it equals :func:`run_shard` on that
    shard byte for byte.
    """
    first, last = tasks[0], tasks[-1]
    for previous, task in zip(tasks, tasks[1:]):
        if not _continues(previous, task):
            raise EvaluationError(
                f"shard {task.shard_index} of {task.cell.key} does not continue "
                f"shard {previous.shard_index} of {previous.cell.key}: run_shards "
                "takes consecutive shards of one cell (see shard_groups)"
            )
    cell = first.cell
    backend = _backend_for(cell, first.backend)
    trials = range(first.start_trial, last.start_trial + last.n_trials)
    stream = TrialStream(trial_seed(first.campaign_seed, cell.key), trials)
    inputs = sample_input_matrix(backend.netlist, stream)
    app = get_application_workload(cell.workload) if cell.application else None
    est = parse_estimator(first.estimator) if first.estimator is not None else None
    weights = strata = None
    if est is not None and est.kind != "uniform":
        if app is not None:
            raise EvaluationError(
                "application metrics and rare-event estimators are exclusive: "
                "application counters are plain per-trial sums and carry no "
                "importance weights"
            )
        outcomes, weights, strata = _estimator_outcomes(first, est, backend, inputs, stream)
    elif cell.faults_per_trial is not None:
        outcomes = backend.run_trials(
            inputs,
            fault_plan=_multi_fault_plan(backend, stream, cell.faults_per_trial),
            capture_outputs=app is not None,
        )
    else:
        spec = _fault_model_spec(cell)
        outcomes = backend.run_trials(
            inputs,
            fault_model=spec,
            stream=stream if spec.needs_stream else None,
            capture_outputs=app is not None,
        )
    results = []
    for task in tasks:
        row = task.start_trial - first.start_trial
        rows = slice(row, row + task.n_trials)
        shard = outcomes[rows]
        results.append(
            ShardResult(
                cell_key=cell.key,
                shard_index=task.shard_index,
                counts=shard.counts(),
                weights=None if weights is None else weighted_outcome_sums(weights[rows], shard),
                strata=None if strata is None else strata(rows),
                application=(
                    None if app is None else application_counts(app, inputs[rows], shard.outputs)
                ),
            )
        )
    return results


def run_shard(task: ShardTask) -> ShardResult:
    """Execute every trial of one shard and return its summed counters."""
    return run_shards([task])[0]
