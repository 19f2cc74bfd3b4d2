"""Campaign orchestration: shard scheduling, worker pools and resume.

:func:`run_campaign` turns a :class:`~repro.campaign.spec.CampaignSpec` into
a :class:`CampaignResult`:

1. expand the spec into shards (fixed partitioning, independent of workers);
2. if a checkpoint path is given, load completed shards filed under any of
   this spec's hashes (:meth:`~repro.campaign.spec.CampaignSpec.resume_hashes`)
   and schedule only the remainder;
3. cut the pending shards into groups
   (:func:`~repro.campaign.worker.shard_groups`) and run each group as one
   engine batch (:func:`~repro.campaign.worker.run_shards`) — serially
   in-process (``workers <= 1``) or one group per task on a
   :class:`concurrent.futures.ProcessPoolExecutor` — committing each
   finished group into the checkpoint (and, with ``db``, the persistent
   :class:`~repro.store.database.ResultsStore` corpus) as it completes, so
   an interrupt at any point loses at most the groups in flight;
4. merge every metric family's sums (in canonical shard order) into
   per-cell reports with Wilson confidence intervals.

Both modes cut groups the same way.  A group is a cell's consecutive
pending shards, at most the backend's ``max_batch_trials`` trials (4,096
on the tape backends, one shard on the scalar one); a pool of N workers
also caps it at ``ceil(pending trials / 2N)``, so every worker gets work.
A group is the unit of commit: one checkpoint write and ``fsync``, one
database transaction and one progress call.  The shard stays the unit of
resume and of checkpoint lines, and every trial's randomness is derived
from the spec and its trial index alone, so aggregate results and
checkpoint lines are bit-identical for any worker count, any grouping and
any serial/parallel/resumed execution history.  A worker process that dies
fails the campaign with a :class:`~repro.errors.WorkerDiedError`; the
groups already committed resume.

Specs with an ``estimator`` (or a ``target_ci_halfwidth``) dispatch to the
round-structured adaptive driver in :mod:`repro.campaign.adaptive.runner`,
which reuses the :class:`ShardRecorder` / :func:`drain_tasks` machinery
here — resume, live recording and worker-count invariance carry over to the
rare-event modes unchanged.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.campaign.aggregate import (
    CellReport,
    ShardResult,
    cell_reports,
    merge_shards,
    render_application_table,
    render_campaign_table,
    render_estimator_table,
)
from repro.campaign.checkpoint import CheckpointStore
from repro.campaign.spec import CampaignSpec, ShardTask
from repro.campaign.worker import run_shards, shard_groups

# Nothing here calls run_shard; perfbench's trace mode wraps it under this
# module's name (perfbench/child.py, LAYERS), so the name stays importable.
from repro.campaign.worker import run_shard  # noqa: F401
from repro.errors import EvaluationError, WorkerDiedError

__all__ = ["CampaignResult", "ShardRecorder", "drain_tasks", "run_campaign"]


@dataclass
class CampaignResult:
    """Everything a caller needs from a finished campaign.

    Merged sums live in one ``<family>_by_cell`` map per metric family
    (:func:`~repro.campaign.aggregate.merge_shards`), keyed by cell key.
    """

    spec: CampaignSpec
    reports: List[CellReport]
    executed_shards: int
    resumed_shards: int
    workers: int
    #: Dispatch rounds the driver ran (always 1 on the fixed-trial path).
    rounds: int = 1
    #: Sequential-stopping target this run converged against, when set.
    target_ci_halfwidth: Optional[float] = None
    counts_by_cell: Dict[str, Dict[str, int]] = field(default_factory=dict)
    weights_by_cell: Dict[str, Dict[str, float]] = field(default_factory=dict)
    strata_by_cell: Dict[str, Dict[str, Dict[str, float]]] = field(default_factory=dict)
    application_by_cell: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def total_trials(self) -> int:
        return sum(report.trials for report in self.reports)

    @property
    def rendered(self) -> str:
        table = render_campaign_table(
            f"Campaign '{self.spec.name}': empirical error coverage "
            f"({self.total_trials} trials, seed {self.spec.seed})",
            self.reports,
        )
        if self.spec.estimator is not None:
            from repro.campaign.adaptive.grammar import parse_estimator

            metric = parse_estimator(self.spec.estimator).metric
            table += "\n\n" + render_estimator_table(
                f"Estimator '{self.spec.estimator}': target-rate estimates "
                f"({self.rounds} round(s))",
                self.reports,
                metric,
            )
        if self.application_by_cell:
            table += "\n\n" + render_application_table(
                f"Campaign '{self.spec.name}': application-level degradation "
                "vs the integer oracle",
                self.reports,
            )
        return table

    def summary(self) -> Dict[str, object]:
        summary: Dict[str, object] = {
            "name": self.spec.name,
            "spec_hash": self.spec.spec_hash(),
            "cells": len(self.reports),
            "total_trials": self.total_trials,
            "executed_shards": self.executed_shards,
            "resumed_shards": self.resumed_shards,
            "workers": self.workers,
        }
        if self.application_by_cell:
            summary["application_trials"] = sum(
                cell["app_trials"] for cell in self.application_by_cell.values()
            )
            summary["argmax_flips"] = sum(
                cell["argmax_flips"] for cell in self.application_by_cell.values()
            )
        if self.spec.estimator is not None or self.target_ci_halfwidth is not None:
            summary["estimator"] = self.spec.estimator or "uniform"
            summary["rounds"] = self.rounds
            if self.target_ci_halfwidth is not None:
                summary["target_ci_halfwidth"] = self.target_ci_halfwidth
        return summary


class ShardRecorder:
    """Checkpoint + results-store recording shared by both campaign drivers.

    Owns the resume set (completed shards of this spec hash), the growing
    result list, and the side effects every finished group of shards
    triggers: one checkpoint append, one database transaction, one progress
    call.  The adaptive driver admits tasks round by round; the fixed driver
    admits the whole shard list at once — either way resumed shards
    short-circuit without re-execution.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        checkpoint: Optional[Union[str, "os.PathLike[str]"]] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        db: Optional[Union[str, "os.PathLike[str]"]] = None,
    ) -> None:
        self.spec = spec
        self.spec_hash = spec.spec_hash()
        self.progress = progress
        self.store = CheckpointStore(checkpoint) if checkpoint is not None else None
        # One read for every hash this campaign was ever filed under: the
        # old per-backend ones hold the same trials and resume too.
        resume_hashes, v1_hashes = spec.resume_hashes(), spec.spec_hashes_v1()
        by_hash = self.store.load_by_hash(resume_hashes + v1_hashes) if self.store else {}
        if any(spec_hash in by_hash for spec_hash in v1_hashes):
            raise EvaluationError(
                f"checkpoint {self.store.path} holds results of this campaign "
                "under RNG contract 1, which this version cannot resume; keep "
                "them queryable with `repro store ingest` and start a fresh "
                "checkpoint"
            )
        self.results_db = None
        if db is not None:
            from repro.store.database import ResultsStore

            self.results_db = ResultsStore(db)
            self.results_db.record_campaign(spec)
        self.completed: Dict[tuple, ShardResult] = {}
        for spec_hash in resume_hashes:
            for key, result in by_hash.get(spec_hash, {}).items():
                self.completed.setdefault(key, result)
        self.results: List[ShardResult] = []
        self.resumed = 0
        self.total = 0
        self._cells_by_key = {cell.key: cell for cell in spec.cells()}

    def admit(self, tasks: List[ShardTask]) -> List[ShardTask]:
        """Schedule ``tasks``; resumed ones complete instantly, rest pend."""
        pending: List[ShardTask] = []
        resumed: List[ShardResult] = []
        self.total += len(tasks)
        for task in tasks:
            done = self.completed.get((task.cell.key, task.shard_index))
            if done is None:
                pending.append(task)
            else:
                resumed.append(done)
        if resumed:
            self.resumed += len(resumed)
            self._file(resumed)
        return pending

    def record(self, results: Sequence[ShardResult]) -> None:
        """Commit one finished group of shards."""
        if self.store:
            self.store.append(self.spec_hash, results)
        self._file(results)

    def _file(self, results: Sequence[ShardResult]) -> None:
        """Add ``results`` to the run, to ``--db`` in one transaction, and
        report progress once."""
        self.results.extend(results)
        if self.results_db is not None:
            with self.results_db.transaction():
                for result in results:
                    self.results_db.record_shard(
                        self.spec_hash, self._cells_by_key[result.cell_key], result
                    )
        if self.progress:
            self.progress(len(self.results), self.total)

    @property
    def executed(self) -> int:
        return len(self.results) - self.resumed

    def close(self) -> None:
        if self.results_db is not None:
            self.results_db.close()
            self.results_db = None


def drain_tasks(
    workers: int,
    pending: List[ShardTask],
    record: Callable[[List[ShardResult]], None],
) -> None:
    """Execute ``pending`` shards serially or over a bounded process pool.

    Both modes run the groups :func:`~repro.campaign.worker.shard_groups`
    cuts for ``workers``, one engine batch each, and hand ``record`` each
    group's results in shard order.  A worker process that dies raises
    :class:`~repro.errors.WorkerDiedError`, an
    :class:`~repro.errors.EvaluationError`.
    """
    groups = shard_groups(pending, workers)
    if workers <= 1 or not pending:
        for group in groups:
            record(run_shards(group))
        return
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            in_flight = set()
            try:
                while True:
                    # Bound in-flight futures so enormous campaigns don't
                    # materialise their whole group list in the pool's queue.
                    while len(in_flight) < 2 * workers:
                        group = next(groups, None)
                        if group is None:
                            break
                        in_flight.add(pool.submit(run_shards, group))
                    if not in_flight:
                        break
                    finished, in_flight = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in finished:
                        record(future.result())
            finally:
                # A poisoned record callback (or KeyboardInterrupt) must not
                # hang the context-manager exit behind queued groups: cancel
                # everything not yet running, then let __exit__ join the pool.
                # Python 3.9+: cancel_futures sweeps the pool's own queue too.
                pool.shutdown(wait=False, cancel_futures=True)
    except BrokenProcessPool as error:
        raise WorkerDiedError(f"a campaign worker process died: {error}") from error


def build_result(
    spec: CampaignSpec,
    recorder: ShardRecorder,
    workers: int,
    rounds: int = 1,
    target_ci_halfwidth: Optional[float] = None,
) -> CampaignResult:
    """Merge a recorder's accumulated shards into the final result."""
    merged = merge_shards(recorder.results)
    return CampaignResult(
        spec=spec,
        reports=cell_reports(spec.cells(), merged, estimator=spec.estimator),
        executed_shards=recorder.executed,
        resumed_shards=recorder.resumed,
        workers=max(1, workers),
        rounds=rounds,
        target_ci_halfwidth=target_ci_halfwidth,
        **{f"{name}_by_cell": by_cell for name, by_cell in merged.items()},
    )


def _default_workers() -> int:
    return max(1, (os.cpu_count() or 2) - 1)


def run_campaign(
    spec: CampaignSpec,
    workers: int = 0,
    checkpoint: Optional[Union[str, "os.PathLike[str]"]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    db: Optional[Union[str, "os.PathLike[str]"]] = None,
    target_ci_halfwidth: Optional[float] = None,
    max_rounds: Optional[int] = None,
) -> CampaignResult:
    """Run (or resume) a campaign and aggregate its per-cell statistics.

    ``workers``: 0 or 1 runs shards serially in-process; N > 1 fans them out
    over a process pool of N workers; negative picks ``cpu_count - 1``.
    ``progress`` (optional) is called as ``progress(done, total)`` in shards
    after each group is committed, counting resumed shards as already done.
    ``db`` (optional) names a :class:`~repro.store.database.ResultsStore`
    SQLite file: the campaign row is registered up front and every completed
    group (resumed shards included) is recorded live as it lands, so even an
    interrupted run leaves its finished shards in the corpus.  Recording is
    idempotent — re-running, resuming, or separately ingesting the same
    checkpoint can never duplicate a shard.

    ``target_ci_halfwidth`` switches to sequential stopping: shards dispatch
    in rounds of ``spec.trials`` per cell until every cell's CI half-width
    for the estimator's target metric drops to the target (or ``max_rounds``
    rounds ran).  Specs with an ``estimator`` always take the adaptive path.
    """
    if workers < 0:
        workers = _default_workers()
    if spec.estimator is not None or target_ci_halfwidth is not None:
        from repro.campaign.adaptive.runner import run_adaptive_campaign

        return run_adaptive_campaign(
            spec,
            workers=workers,
            checkpoint=checkpoint,
            progress=progress,
            db=db,
            target_ci_halfwidth=target_ci_halfwidth,
            max_rounds=max_rounds,
        )

    recorder = ShardRecorder(spec, checkpoint=checkpoint, progress=progress, db=db)
    try:
        pending = recorder.admit(spec.shards())
        drain_tasks(workers, pending, recorder.record)
        return build_result(spec, recorder, workers)
    finally:
        recorder.close()
