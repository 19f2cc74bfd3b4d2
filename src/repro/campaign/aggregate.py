"""Campaign statistics: the metric-family table, shard merging, outcome
rates and Wilson intervals.

Every trial is classified into exactly one of four outcomes:

* **correct, clean** — final outputs correct and no check ever fired;
* **correct, recovered** — final outputs correct after >= 1 detection;
* **detected corruption** — final outputs wrong but some check fired
  (the scheme knew something went wrong: a crash/retry in a real system);
* **silent corruption** — final outputs wrong and no check ever fired
  (the failure mode ECiM/TRiM exist to eliminate).

A shard reports its sums in *metric families*, declared once in
:data:`FAMILIES`: the outcome ``counts`` every shard carries, the estimator
``weights`` and per-stratum ``strata`` of rare-event shards, and the
oracle-comparison ``application`` counters.  Each :class:`MetricFamily`
gives its keys (owned by its producer), value type, whether a shard may
omit it, the store schema version whose migration added its columns, and
its derived query columns.  Checkpoint (de)serialisation, merging, the
cell reports, the store's DDL, recording and ``repro query`` all iterate
that table, so a new family costs one entry, a field on :class:`ShardResult`,
:class:`CellReport` and ``CampaignResult``, and its producer; its store
migration is generated from the entry.

Shards merge in one canonical ``(cell key, shard index)`` order.  Integer
sums do not need it, but float addition is not associative, so the order is
what keeps every merged sum bit-identical no matter how trials were
partitioned across shards, processes or resumed runs.

Rates come with Wilson score intervals rather than normal approximations:
campaign cells routinely sit at 0 or 1 observed proportion (e.g. zero silent
corruptions in 10k trials under SEP), exactly where the Wald interval
collapses to zero width and the Wilson interval stays honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.campaign.adaptive.grammar import ESTIMATOR_METRICS
from repro.campaign.adaptive.importance import WEIGHT_KEYS
from repro.campaign.adaptive.strata import STRATUM_COUNT_KEYS
from repro.campaign.application import APPLICATION_KEYS
from repro.campaign.spec import CampaignCell
from repro.errors import EvaluationError
from repro.stats import (
    effective_sample_size,
    interval_halfwidth,
    stratified_mean_interval,
    weighted_mean_interval,
    wilson_interval,
)

__all__ = [
    "COUNT_KEYS",
    "WEIGHT_KEYS",
    "APPLICATION_KEYS",
    "MetricFamily",
    "FAMILIES",
    "wilson_interval",
    "zeroed_counts",
    "ShardResult",
    "merge_shards",
    "CellReport",
    "cell_reports",
    "render_campaign_table",
    "render_estimator_table",
    "render_application_table",
]

#: Integer counters a shard reports (all sums — merge by addition).
COUNT_KEYS = (
    "trials",
    "correct",
    "clean",
    "recovered",
    "detected",
    "detected_corruption",
    "silent_corruption",
    "corrections",
    "uncorrectable_levels",
    "faults_injected",
    "faulty_trials",
)


def zeroed_counts() -> Dict[str, int]:
    return {key: 0 for key in COUNT_KEYS}


@dataclass(frozen=True)
class MetricFamily:
    """One family of per-shard sums, declared once for every layer.

    ``name`` is the :class:`ShardResult` and :class:`CellReport` field, the
    checkpoint record key and the ``CampaignResult.<name>_by_cell`` map;
    ``keys`` are the sums its producer reports, each of type ``value``.
    """

    name: str
    #: Singular noun for error messages ("unknown shard <noun> ...").
    noun: str
    keys: Tuple[str, ...]
    value: type = int
    #: A shard may omit the family: it then serialises without it, and its
    #: store columns hold NULL.
    optional: bool = True
    #: Store schema version whose migration added the family's shard
    #: columns; None for a family that never reaches SQL.
    schema_version: Optional[int] = None
    #: The key counting the family's trials, which its rates divide by.
    trials: Optional[str] = None
    #: Per-stratum entries ``{label: {"pi": float, key: int}}`` instead of
    #: one flat sum per key.
    nested: bool = False
    #: Derived ``repro query`` columns, each ``(column, value of a
    #: CellReport)``; None on rows no shard of which carried the family.
    derived: Tuple[Tuple[str, Callable[["CellReport"], object]], ...] = ()

    def zeroed(self) -> Dict[str, object]:
        return dict.fromkeys(self.keys, self.value(0))

    def parse(self, raw: object) -> Dict[str, object]:
        """The family's sums in one checkpoint record, zero-filled; raises
        :class:`EvaluationError` on anything but an object of known keys (and,
        when nested, of strata each carrying a numeric ``pi``)."""
        if not self.nested:
            return self._parse_flat(raw)
        if not isinstance(raw, dict):
            raise EvaluationError(f"shard {self.name} must be an object, got {raw!r}")
        entries = {}
        for label, entry in raw.items():
            pi = entry.get("pi") if isinstance(entry, dict) else None
            if isinstance(pi, bool) or not isinstance(pi, (int, float)):
                raise EvaluationError(
                    f"stratum {label!r} must be an object with a numeric 'pi', got {entry!r}"
                )
            counters = {key: value for key, value in entry.items() if key != "pi"}
            entries[str(label)] = {"pi": float(pi), **self._parse_flat(counters)}
        return entries

    def _parse_flat(self, raw: object) -> Dict[str, object]:
        if not isinstance(raw, dict):
            raise EvaluationError(f"shard {self.noun}s must be an object, got {raw!r}")
        sums = self.zeroed()
        for key, value in raw.items():
            if key not in sums:
                raise EvaluationError(f"unknown shard {self.noun} {key!r}")
            sums[key] = self.value(value)
        return sums

    def derive(self, report: "CellReport") -> Dict[str, object]:
        """The family's query columns for ``report``."""
        present = getattr(report, self.name) is not None
        return {column: value(report) if present else None for column, value in self.derived}


COUNTS = MetricFamily(
    "counts",
    "counter",
    COUNT_KEYS,
    optional=False,
    schema_version=1,
    trials="trials",
    derived=(
        ("trials", lambda r: r.trials),
        ("coverage", lambda r: r.coverage),
        ("coverage_ci_low", lambda r: r.coverage_interval[0]),
        ("coverage_ci_high", lambda r: r.coverage_interval[1]),
        ("silent_corruption_rate", lambda r: r.silent_corruption_rate),
        ("silent_ci_low", lambda r: r.silent_corruption_interval[0]),
        ("silent_ci_high", lambda r: r.silent_corruption_interval[1]),
        ("detected_rate", lambda r: r.detected_rate),
        ("recovered_rate", lambda r: r.recovered_rate),
        ("detected_corruption_rate", lambda r: r.detected_corruption_rate),
        ("faults_per_trial_avg", lambda r: r.average_faults_per_trial),
    ),
)

#: Importance/stratified weight sums.  In the store a group mixing weighted
#: and uniform shards sums only the weighted ones — such groups are
#: statistically ill-posed, and keeping them apart is the caller's job.
WEIGHTS = MetricFamily(
    "weights",
    "weight",
    WEIGHT_KEYS,
    float,
    schema_version=2,
    derived=(
        ("weight_sum", lambda r: r.weights["weight_sum"]),
        ("effective_sample_size", lambda r: r.effective_sample_size),
        ("weighted_silent_rate", lambda r: r._weighted("silent_corruption")[0]),
        ("weighted_silent_ci_low", lambda r: r._weighted("silent_corruption")[1]),
        ("weighted_silent_ci_high", lambda r: r._weighted("silent_corruption")[2]),
        ("weighted_detected_corruption_rate", lambda r: r._weighted("detected_corruption")[0]),
        ("weighted_detected_corruption_ci_low", lambda r: r._weighted("detected_corruption")[1]),
        ("weighted_detected_corruption_ci_high", lambda r: r._weighted("detected_corruption")[2]),
    ),
)

#: Per-stratum counters of stratified shards; they steer Neyman allocation
#: in process and never reach SQL.
STRATA = MetricFamily("strata", "stratum counter", STRATUM_COUNT_KEYS, nested=True)

#: Oracle-comparison counters of application-scored shards.
APPLICATION = MetricFamily(
    "application",
    "application counter",
    APPLICATION_KEYS,
    schema_version=3,
    trials="app_trials",
    derived=(
        ("app_trials", lambda r: r.application_trials),
        ("argmax_flip_rate", lambda r: r.argmax_flip_rate),
        ("argmax_flip_ci_low", lambda r: r.argmax_flip_interval[0]),
        ("argmax_flip_ci_high", lambda r: r.argmax_flip_interval[1]),
        ("output_bit_errors_avg", lambda r: r.output_bit_errors_avg),
        ("output_error_magnitude_avg", lambda r: r.output_error_magnitude_avg),
    ),
)

#: Every metric family a shard may carry.  Append-only in practice: the
#: store's migrations are generated from the stored families' columns and
#: pinned by ``tests/golden/store_schema.json``.
FAMILIES: Tuple[MetricFamily, ...] = (COUNTS, WEIGHTS, STRATA, APPLICATION)


@dataclass(frozen=True)
class ShardResult:
    """Sums from one completed shard, one field per :data:`FAMILIES` entry
    (picklable and JSON-round-trippable).

    Optional families stay None unless the shard reports them and serialise
    only when present, so every pre-existing checkpoint byte stream
    round-trips unchanged.
    """

    cell_key: str
    shard_index: int
    counts: Dict[str, int] = field(default_factory=zeroed_counts)
    #: Float sums of :data:`WEIGHT_KEYS` (importance/stratified shards).
    weights: Optional[Dict[str, float]] = None
    #: Per-stratum integer counters plus each stratum's population
    #: probability ``pi`` (stratified shards).
    strata: Optional[Dict[str, Dict[str, float]]] = None
    #: Integer sums of :data:`APPLICATION_KEYS` (application-scored shards).
    application: Optional[Dict[str, int]] = None

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"cell": self.cell_key, "shard": self.shard_index}
        for family in FAMILIES:
            sums = getattr(self, family.name)
            if sums is not None:
                data[family.name] = (
                    {label: dict(entry) for label, entry in sums.items()}
                    if family.nested
                    else dict(sums)
                )
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardResult":
        families = {}
        for family in FAMILIES:
            raw = data.get(family.name)
            if raw is not None:
                families[family.name] = family.parse(raw)
            elif not family.optional:
                raise EvaluationError(f"shard record has no {family.name!r}")
        return cls(cell_key=str(data["cell"]), shard_index=int(data["shard"]), **families)


def merge_shards(results: Iterable[ShardResult]) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Merge shard sums per family and cell key: ``{family: {cell key: sums}}``.

    Shards merge in ``(cell key, shard index)`` order.  Strata pool per
    label, each stratum's ``pi`` — a population constant, identical in every
    shard that reports the stratum — carried through unchanged.  A cell none
    of whose shards carries an optional family is absent from its map.
    """
    merged: Dict[str, Dict[str, Dict[str, object]]] = {family.name: {} for family in FAMILIES}
    for result in sorted(results, key=lambda r: (r.cell_key, r.shard_index)):
        for family in FAMILIES:
            sums = getattr(result, family.name)
            if sums is None:
                continue
            if family.nested:
                cell = merged[family.name].setdefault(result.cell_key, {})
                for label, entry in sums.items():
                    into = cell.setdefault(label, {"pi": entry["pi"]})
                    for key, value in entry.items():
                        if key != "pi":
                            into[key] = into.get(key, 0) + value
            else:
                cell = merged[family.name].setdefault(result.cell_key, family.zeroed())
                for key, value in sums.items():
                    cell[key] += value
    return merged


@dataclass(frozen=True)
class CellReport:
    """Merged family sums of one grid cell, with outcome rates and 95%
    Wilson intervals.

    When the cell ran under a rare-event estimator, ``weights`` / ``strata``
    hold its merged weight sums and pooled per-stratum counters, and
    :meth:`estimate` dispatches to the matching estimator: pooled stratified
    mean + stratified variance when strata are present, Horvitz-Thompson
    weighted mean + normal interval when only weights are, and the classic
    proportion + Wilson interval otherwise.  The raw-count properties
    (``coverage`` etc.) always describe the *sampled* trials — under a tilted
    proposal they estimate the proposal-rate probabilities, not the target's.

    ``repro query`` builds one report per result row from the store's sums,
    with ``cell`` None (a row may pool many cells) and no strata, and reads
    its derived columns off it (:attr:`MetricFamily.derived`).
    """

    cell: Optional[CampaignCell]
    counts: Dict[str, int] = field(default_factory=zeroed_counts)
    weights: Optional[Dict[str, float]] = None
    strata: Optional[Dict[str, Dict[str, float]]] = None
    estimator: Optional[str] = None
    #: Merged :data:`APPLICATION_KEYS` sums of application-scored cells
    #: (None on plain cells) — see :mod:`repro.campaign.application`.
    application: Optional[Dict[str, int]] = None

    @property
    def trials(self) -> int:
        return self.counts["trials"]

    def estimate(self, metric: str = "silent_corruption") -> Tuple[float, Tuple[float, float]]:
        """``(mean, (low, high))`` for one metric under the cell's estimator."""
        if metric not in ESTIMATOR_METRICS:
            raise EvaluationError(
                f"unknown estimator metric {metric!r}; expected one of {ESTIMATOR_METRICS}"
            )
        if self.strata:
            mean, low, high = stratified_mean_interval(
                [
                    (entry["pi"], int(entry["trials"]), int(entry[metric]))
                    for entry in self.strata.values()
                ]
            )
            return mean, (low, high)
        if self.weights:
            mean, low, high = self._weighted(metric)
            return mean, (low, high)
        return self._rate(metric), self._interval(metric)

    def _weighted(self, metric: str) -> Tuple[float, float, float]:
        """Horvitz-Thompson ``(mean, low, high)`` of one metric's weight sums."""
        return weighted_mean_interval(
            self.weights[f"w_{metric}"], self.weights[f"w_{metric}_sq"], self.trials
        )

    def estimate_halfwidth(self, metric: str = "silent_corruption") -> float:
        """CI half-width of :meth:`estimate` — the sequential-stopping signal."""
        return interval_halfwidth(self.estimate(metric)[1])

    @property
    def effective_sample_size(self) -> Optional[float]:
        """Kish ESS of the cell's weight set (``None`` for unweighted cells)."""
        if not self.weights:
            return None
        return effective_sample_size(self.weights["weight_sum"], self.weights["weight_sq_sum"])

    def _tally(self, key: str, family: MetricFamily) -> Tuple[int, int]:
        """``(count, trials)`` of one integer sum; an absent family is empty."""
        sums = getattr(self, family.name) or {}
        return sums.get(key, 0), sums.get(family.trials, 0)

    def _rate(self, key: str, family: MetricFamily = COUNTS) -> float:
        count, trials = self._tally(key, family)
        return count / trials if trials else 0.0

    def _interval(self, key: str, family: MetricFamily = COUNTS) -> Tuple[float, float]:
        return wilson_interval(*self._tally(key, family))

    @property
    def coverage(self) -> float:
        """Fraction of trials with correct final outputs."""
        return self._rate("correct")

    @property
    def coverage_interval(self) -> Tuple[float, float]:
        return self._interval("correct")

    @property
    def detected_rate(self) -> float:
        return self._rate("detected")

    @property
    def silent_corruption_rate(self) -> float:
        return self._rate("silent_corruption")

    @property
    def silent_corruption_interval(self) -> Tuple[float, float]:
        return self._interval("silent_corruption")

    @property
    def detected_corruption_rate(self) -> float:
        return self._rate("detected_corruption")

    @property
    def recovered_rate(self) -> float:
        return self._rate("recovered")

    @property
    def average_faults_per_trial(self) -> float:
        return self._rate("faults_injected")

    # -------------------------------------------------------------- #
    # Application metrics (absent application data reads as zero
    # trials, whose rates are 0.0)
    # -------------------------------------------------------------- #
    @property
    def application_trials(self) -> int:
        return self.application["app_trials"] if self.application else 0

    @property
    def argmax_flip_rate(self) -> float:
        """Accuracy degradation: fraction of trials whose dominant output
        word moved vs the integer oracle."""
        return self._rate("argmax_flips", APPLICATION)

    @property
    def argmax_flip_interval(self) -> Tuple[float, float]:
        return self._interval("argmax_flips", APPLICATION)

    @property
    def output_bit_errors_avg(self) -> float:
        """Mean Hamming distance between faulty and oracle output words."""
        return self._rate("output_bit_errors", APPLICATION)

    @property
    def output_error_magnitude_avg(self) -> float:
        """Mean summed wrap-around word distance — the SNR proxy."""
        return self._rate("output_error_magnitude", APPLICATION)

    def as_row(self) -> List[object]:
        """One rendered table row (shared by the CLI and the experiment)."""
        cov_low, cov_high = self.coverage_interval
        silent_low, silent_high = self.silent_corruption_interval
        return [
            self.cell.workload,
            self.cell.scheme,
            self.cell.technology,
            f"{self.cell.gate_error_rate:.1e}",
            self.trials,
            f"{self.coverage:.4f}",
            f"[{cov_low:.4f}, {cov_high:.4f}]",
            f"{self.silent_corruption_rate:.4f}",
            f"[{silent_low:.4f}, {silent_high:.4f}]",
            f"{self.detected_rate:.4f}",
            f"{self.average_faults_per_trial:.2f}",
        ]


def cell_reports(
    cells: Iterable[CampaignCell],
    merged: Dict[str, Dict[str, Dict[str, object]]],
    estimator: Optional[str] = None,
) -> List[CellReport]:
    """Pair each grid cell with its :func:`merge_shards` sums, in grid order;
    a cell without shards reports zero counts."""
    return [
        CellReport(
            cell=cell,
            estimator=estimator,
            **{name: by_cell[cell.key] for name, by_cell in merged.items() if cell.key in by_cell},
        )
        for cell in cells
    ]


def render_campaign_table(title: str, reports: Iterable[CellReport]) -> str:
    from repro.eval.report import format_table

    return format_table(
        [
            "workload",
            "scheme",
            "tech",
            "gate err rate",
            "trials",
            "coverage",
            "95% CI",
            "silent",
            "silent 95% CI",
            "detected",
            "faults/trial",
        ],
        [report.as_row() for report in reports],
        title=title,
    )


def render_application_table(title: str, reports: Iterable[CellReport]) -> str:
    """Per-cell application summary: argmax-flip rate + CI, bit errors, SNR
    proxy — rendered only for cells that carry application counters."""
    from repro.eval.report import format_table

    rows = []
    for report in reports:
        if not report.application:
            continue
        low, high = report.argmax_flip_interval
        rows.append(
            [
                report.cell.workload,
                report.cell.scheme,
                report.cell.technology,
                f"{report.cell.gate_error_rate:.1e}",
                report.application_trials,
                f"{report.argmax_flip_rate:.4f}",
                f"[{low:.4f}, {high:.4f}]",
                f"{report.output_bit_errors_avg:.3f}",
                f"{report.output_error_magnitude_avg:.3f}",
            ]
        )
    return format_table(
        [
            "workload",
            "scheme",
            "tech",
            "gate err rate",
            "trials",
            "argmax flips",
            "95% CI",
            "bit errs/trial",
            "|err|/trial",
        ],
        rows,
        title=title,
    )


def render_estimator_table(title: str, reports: Iterable[CellReport], metric: str) -> str:
    """Per-cell estimator summary: target-rate estimate, CI and ESS."""
    from repro.eval.report import format_table

    rows = []
    for report in reports:
        mean, (low, high) = report.estimate(metric)
        ess = report.effective_sample_size
        rows.append(
            [
                report.cell.workload,
                report.cell.scheme,
                report.cell.technology,
                f"{report.cell.gate_error_rate:.1e}",
                report.trials,
                f"{mean:.3e}",
                f"[{low:.3e}, {high:.3e}]",
                f"{interval_halfwidth((low, high)):.3e}",
                "-" if ess is None else f"{ess:.1f}",
            ]
        )
    return format_table(
        [
            "workload",
            "scheme",
            "tech",
            "gate err rate",
            "trials",
            metric,
            "95% CI",
            "halfwidth",
            "ESS",
        ],
        rows,
        title=title,
    )
