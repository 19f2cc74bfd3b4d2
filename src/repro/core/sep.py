"""Single Error Protection (SEP) analysis — the executable form of Fig. 6.

The paper argues (Section IV-E) that adapting Hamming codes or TMR is not by
itself enough: SEP additionally requires checking at logic-level granularity,
because an uncorrected error at level L propagates through the gates of level
L+1 into *multiple* errors, defeating a single-error-correcting code.

This module provides:

* :func:`and_gate_example_netlist` — the Fig. 6 example circuit: three
  multi-output NOR gates over two logic levels implementing a 2-input AND
  (``o1 = NOT a``, ``o2 = NOT b``, ``o3 = out = NOR(o1, o2)``).
* :func:`exhaustive_single_fault_injection` — inject one bit flip at every
  possible gate-output site of an execution (every output cell of every gate
  firing, metadata included) and verify the final circuit outputs; this is
  the operational statement of the SEP guarantee.
* :func:`exhaustive_multi_fault_injection` /
  :func:`multi_fault_coverage_table` — the k-simultaneous-flip
  generalisation: sweep every (sites choose k) combination in bounded
  shards and split the outcomes into SEP-guaranteed / code-corrected /
  detected / silent, quantifying where the single-error budget breaks and
  what a stronger (BCH-t) code recovers — the Fig. 8 extension as a
  computed artefact.
* :func:`fig6_case_table` — categorise the fault sites of the AND example
  like the table in Fig. 6 (error in a level-1 data output, in the level-2
  output, or in a redundant ``r_ij`` / parity cell) and report, for each
  category, the observed number of errors at the level output and the final
  outcome.
* :func:`circuit_granularity_counterexample` — show that with checks deferred
  to circuit granularity a single fault does escape correction, i.e. the
  logic-level granularity is necessary, not just convenient.

Every analysis takes an :class:`~repro.core.backend.ExecutionBackend` bound
to the circuit under test (``make_backend(name, netlist, scheme,
multi_output=...)``; ``scalar`` is the executor object model).  The
exhaustive sweep is vectorised with *fault site as the batch dimension*:
one batch row per enumerated site, each carrying a single-bit deterministic
flip plan — on a tape backend the whole Fig. 6 sweep is a single tape
interpretation.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.netlist import Netlist
from repro.compiler.synthesis import CircuitBuilder
from repro.core.backend import ExecutionBackend, FaultSite, classify_outcome
from repro.core.faultplan import FaultPlanArrays, combination_count, unrank_combinations
from repro.errors import ProtectionError

__all__ = [
    "FaultSite",
    "FaultOutcome",
    "SepAnalysis",
    "MultiFaultOutcome",
    "MultiFaultAnalysis",
    "and_gate_example_netlist",
    "enumerate_fault_sites",
    "exhaustive_single_fault_injection",
    "exhaustive_multi_fault_injection",
    "multi_fault_coverage_table",
    "fig6_case_table",
    "circuit_granularity_counterexample",
]


@dataclass(frozen=True)
class FaultOutcome:
    """Result of injecting a single fault at one site."""

    site: FaultSite
    final_outputs_correct: bool
    error_detected: bool
    corrections: int
    uncorrectable_levels: int

    @property
    def classification(self) -> str:
        """``corrected`` / ``detected`` / ``silent`` — the sweep's verdict."""
        return classify_outcome(self.final_outputs_correct, self.error_detected)


@dataclass
class SepAnalysis:
    """Aggregate result of an exhaustive single-fault sweep."""

    outcomes: List[FaultOutcome] = field(default_factory=list)

    @property
    def total_sites(self) -> int:
        return len(self.outcomes)

    @property
    def protected_sites(self) -> int:
        return sum(1 for o in self.outcomes if o.final_outputs_correct)

    @property
    def unprotected_sites(self) -> List[FaultOutcome]:
        return [o for o in self.outcomes if not o.final_outputs_correct]

    @property
    def sep_guaranteed(self) -> bool:
        """True when every single fault left the final outputs correct."""
        return bool(self.outcomes) and not self.unprotected_sites

    @property
    def coverage(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.protected_sites / self.total_sites

    def by_category(self) -> Dict[str, Tuple[int, int]]:
        """(protected, total) per site category (data vs metadata)."""
        summary: Dict[str, List[int]] = {}
        for outcome in self.outcomes:
            key = "metadata" if outcome.site.is_metadata or outcome.site.output_position > 0 else "data"
            entry = summary.setdefault(key, [0, 0])
            entry[1] += 1
            if outcome.final_outputs_correct:
                entry[0] += 1
        return {k: (v[0], v[1]) for k, v in summary.items()}


def and_gate_example_netlist() -> Netlist:
    """The illustrative circuit of Fig. 6: AND built from three NOR gates.

    Logic level 1: ``o1 = NOR(a) = NOT a`` and ``o2 = NOR(b) = NOT b``;
    logic level 2: ``o3 = out = NOR(o1, o2) = a AND b``.
    """
    builder = CircuitBuilder(Netlist(name="fig6-and"))
    a = builder.input_bit("a")
    b = builder.input_bit("b")
    o1 = builder.nor(a)
    o2 = builder.nor(b)
    o3 = builder.nor(o1, o2)
    builder.mark_output_bit(o3, "out")
    return builder.netlist


def enumerate_fault_sites(
    backend: ExecutionBackend,
    input_values: Dict[int, int],
) -> List[FaultSite]:
    """Enumerate every injectable gate-output site of one execution.

    The scalar backend dry-runs the execution and walks its trace; the tape
    backends walk the compiled tape.  Either way, one :class:`FaultSite`
    per output cell of every gate firing, in execution order.
    """
    return backend.enumerate_sites(input_values)


def exhaustive_single_fault_injection(
    backend: ExecutionBackend,
    input_values: Dict[int, int],
    sites: Optional[Sequence[FaultSite]] = None,
) -> SepAnalysis:
    """Inject one fault per trial, at every enumerated site, and collect
    outcomes.

    The sweep runs as a single backend batch with fault site as the batch
    dimension: row *i* executes ``input_values`` under a deterministic
    single-bit flip at ``sites[i]``.
    """
    if sites is None:
        sites = backend.enumerate_sites(input_values)
    analysis = SepAnalysis()
    if not sites:
        return analysis
    site_ops, site_positions, _ = _site_index_arrays(sites)
    outcomes = backend.run_trials(
        input_values,
        n_trials=len(sites),
        fault_plan=FaultPlanArrays.from_site_matrix(
            np.arange(len(sites), dtype=np.int64)[:, None], site_ops, site_positions
        ),
    )
    for trial, site in enumerate(sites):
        if outcomes.faults_injected[trial] == 0:
            # The site was never reached (should not happen for a
            # deterministic schedule); fail loudly so the discrepancy is
            # visible rather than silently ignored.
            raise ProtectionError(
                f"fault site {site} was not exercised during re-execution"
            )
        analysis.outcomes.append(
            FaultOutcome(
                site=site,
                final_outputs_correct=bool(outcomes.outputs_correct[trial]),
                error_detected=bool(outcomes.detected[trial]),
                corrections=int(outcomes.corrections[trial]),
                uncorrectable_levels=int(outcomes.uncorrectable_levels[trial]),
            )
        )
    return analysis


@dataclass(frozen=True)
class MultiFaultOutcome:
    """Result of injecting k simultaneous faults at one site combination."""

    sites: Tuple[FaultSite, ...]
    final_outputs_correct: bool
    error_detected: bool
    corrections: int
    uncorrectable_levels: int

    @property
    def k(self) -> int:
        return len(self.sites)

    @property
    def classification(self) -> str:
        """``corrected`` / ``detected`` / ``silent`` — the sweep's verdict."""
        return classify_outcome(self.final_outputs_correct, self.error_detected)

    @property
    def faults_per_level(self) -> Dict[int, int]:
        """Injected fault count per logic level (checked region)."""
        return dict(Counter(site.logic_level for site in self.sites))

    @property
    def max_faults_per_level(self) -> int:
        """The worst simultaneous load on any one checked region — the
        quantity the per-level correction budget is measured against."""
        if not self.sites:
            return 0
        return max(self.faults_per_level.values())

    def within_budget(self, budget: int = 1) -> bool:
        """True when no checked region receives more faults than the code
        corrects — the region where the (generalised) SEP guarantee applies."""
        return self.max_faults_per_level <= budget


@dataclass
class MultiFaultAnalysis:
    """Aggregate result of an exhaustive k-simultaneous-fault sweep.

    Counters are always maintained (the sweep streams combination shards
    through the backend, so combination counts can far exceed what a stored
    outcome list should hold); the per-combination ``outcomes`` list is kept
    only when the sweep ran with ``keep_outcomes=True``.

    ``correction_budget`` is the per-checked-region correction capability
    ``t`` of the scheme under test (1 for Hamming-protected ECiM and TRiM,
    ``t`` for BCH-t ECiM): combinations whose worst per-level fault load
    stays within it are *guaranteed* corrected — the k-fault generalisation
    of the SEP statement — and the four-way coverage split below measures
    exactly where that budget breaks and what the code recovers beyond it.
    """

    k: int
    correction_budget: int = 1
    outcomes: List[MultiFaultOutcome] = field(default_factory=list)
    total_combinations: int = 0
    corrected_combinations: int = 0
    detected_combinations: int = 0
    silent_combinations: int = 0
    sep_guaranteed_combinations: int = 0
    code_corrected_combinations: int = 0
    budget_violations: int = 0

    def record(self, outcome: MultiFaultOutcome, keep_outcome: bool = True) -> None:
        """Fold one combination's outcome into the aggregate counters."""
        self.total_combinations += 1
        within = outcome.within_budget(self.correction_budget)
        if outcome.final_outputs_correct:
            self.corrected_combinations += 1
            if within:
                self.sep_guaranteed_combinations += 1
            else:
                self.code_corrected_combinations += 1
        else:
            if within:
                # A within-budget combination that still corrupted the
                # outputs falsifies the claimed guarantee; count it so tests
                # can assert the guarantee computationally.
                self.budget_violations += 1
            if outcome.error_detected:
                self.detected_combinations += 1
            else:
                self.silent_combinations += 1
        if keep_outcome:
            self.outcomes.append(outcome)

    @property
    def coverage(self) -> float:
        if not self.total_combinations:
            return 0.0
        return self.corrected_combinations / self.total_combinations

    @property
    def sep_guaranteed(self) -> bool:
        """True when every combination left the final outputs correct."""
        return bool(self.total_combinations) and (
            self.corrected_combinations == self.total_combinations
        )

    def coverage_row(self) -> Dict[str, object]:
        """One row of the per-k coverage table (the Fig. 8 budget-vs-t
        artefact): the four-way split of all (sites choose k) combinations."""
        return {
            "k": self.k,
            "combinations": self.total_combinations,
            "sep_guaranteed": self.sep_guaranteed_combinations,
            "code_corrected": self.code_corrected_combinations,
            "detected": self.detected_combinations,
            "silent": self.silent_combinations,
            "coverage": self.coverage,
            "budget_violations": self.budget_violations,
        }


def _combination_fault_plan(sites: Sequence[FaultSite]) -> Dict[int, Tuple[int, ...]]:
    """Merge one site combination into a backend fault-plan entry.

    Sites sharing a gate operation fold into one multi-position entry, which
    is what lets k faults land inside a single firing.  The vectorized sweep
    no longer builds per-combination dicts — this survives as the reference
    implementation the dict-vs-array differential tests and the
    ``benchmarks/test_bench_multifault_sweep.py`` speedup floor compare
    against.
    """
    plan: Dict[int, List[int]] = {}
    for site in sites:
        plan.setdefault(site.operation_index, []).append(site.output_position)
    return {op: tuple(positions) for op, positions in plan.items()}


def _chunked(iterator: Iterator, size: int) -> Iterator[list]:
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


def _site_index_arrays(
    sites: Sequence[FaultSite],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's parallel per-site arrays: operation index, output
    position and logic level (the plan and budget vocabularies)."""
    count = len(sites)
    ops = np.fromiter((site.operation_index for site in sites), np.int64, count)
    positions = np.fromiter((site.output_position for site in sites), np.int64, count)
    levels = np.fromiter((site.logic_level for site in sites), np.int64, count)
    return ops, positions, levels


def _within_budget(levels: np.ndarray, budget: int, rows_sorted: bool = False) -> np.ndarray:
    """Per-trial ``max_faults_per_level <= budget`` of a ``(B, k)`` level
    matrix — the vectorized :meth:`MultiFaultOutcome.within_budget`.  A
    sorted row puts more than ``budget`` faults on one level exactly when
    some column ``j`` equals column ``j + budget`` (k - budget numpy
    passes); rows are sorted first unless ``rows_sorted`` says they are."""
    if not rows_sorted:
        levels = np.sort(levels, axis=1)
    budget = max(budget, 0)
    within = np.ones(levels.shape[0], dtype=bool)
    for column in range(levels.shape[1] - budget):
        within &= levels[:, column] != levels[:, column + budget]
    return within


#: Counter attributes of :class:`MultiFaultAnalysis` a sweep shard folds in,
#: in declaration order — shard results are plain integer tuples so the
#: multiprocess path ships no outcome objects.
_SHARD_COUNTERS = (
    "total_combinations",
    "corrected_combinations",
    "detected_combinations",
    "silent_combinations",
    "sep_guaranteed_combinations",
    "code_corrected_combinations",
    "budget_violations",
)


class _Sweep(NamedTuple):
    """What every shard of one exhaustive sweep shares; a pool task
    pickles it once for its whole run of shards."""

    backend: ExecutionBackend
    input_values: Dict[int, int]
    k: int
    site_ops: np.ndarray
    site_positions: np.ndarray
    site_levels: np.ndarray
    #: True when ``site_levels`` is nondecreasing (``enumerate_sites``
    #: lists sites in level order): every combination row lists its sites
    #: in increasing order, so its levels come sorted and the budget check
    #: need not sort them.
    levels_sorted: bool
    correction_budget: int
    keep_outcomes: bool

    @classmethod
    def over(
        cls,
        backend: ExecutionBackend,
        input_values: Dict[int, int],
        sites: Sequence[FaultSite],
        k: int,
        correction_budget: int,
        keep_outcomes: bool,
    ) -> "_Sweep":
        """The k-fault sweep of ``sites``, with the site list's level order
        checked once."""
        site_ops, site_positions, site_levels = _site_index_arrays(sites)
        return cls(
            backend, input_values, k, site_ops, site_positions, site_levels,
            bool(np.all(site_levels[1:] >= site_levels[:-1])),
            correction_budget, keep_outcomes,
        )


def _sweep_shard(sweep: _Sweep, start: int, count: int):
    """Run combination ranks ``[start, start + count)`` of one exhaustive
    sweep and reduce them to counter sums (plus raw per-trial vectors under
    ``keep_outcomes``).

    Unranking makes the shard self-addressing — no enumeration of preceding
    combinations — so this function is the unit of ``jobs`` parallelism, and
    the counters it returns are independent of how ranks were partitioned.
    """
    k = sweep.k
    ranks = np.arange(start, start + count, dtype=np.int64)
    matrix = unrank_combinations(sweep.site_levels.shape[0], k, ranks)
    plan = FaultPlanArrays.from_site_matrix(matrix, sweep.site_ops, sweep.site_positions)
    outcomes = sweep.backend.run_trials(sweep.input_values, n_trials=count, fault_plan=plan)
    injected = np.asarray(outcomes.faults_injected)
    if np.any(injected != k):
        # Every site of a deterministic schedule is reached exactly once;
        # fail loudly on any discrepancy rather than folding a partially
        # injected combination into the coverage counters.
        bad = int(np.flatnonzero(injected != k)[0])
        raise ProtectionError(
            f"combination rank {start + bad} (sites {matrix[bad].tolist()}) "
            f"injected {int(injected[bad])} of {k} faults"
        )
    correct = outcomes.outputs_correct.astype(bool, copy=False)
    detected = outcomes.detected.astype(bool, copy=False)
    within = _within_budget(
        sweep.site_levels[matrix], sweep.correction_budget, sweep.levels_sorted
    )
    counters = (
        count,
        int(correct.sum()),
        int((~correct & detected).sum()),
        int((~correct & ~detected).sum()),
        int((correct & within).sum()),
        int((correct & ~within).sum()),
        int((~correct & within).sum()),
    )
    vectors = None
    if sweep.keep_outcomes:
        vectors = (
            matrix,
            correct,
            detected,
            np.asarray(outcomes.corrections),
            np.asarray(outcomes.uncorrectable_levels),
        )
    return start, counters, vectors


def _sweep_shards(sweep: _Sweep, shards: Sequence[Tuple[int, int]]) -> list:
    """:func:`_sweep_shard` over a run of ``(start, count)`` shards — one
    pool task, so a worker unpickles the backend (and lowers its tape) once
    per run, not once per shard."""
    return [_sweep_shard(sweep, start, count) for start, count in shards]


def _default_jobs() -> int:
    """Mirror the campaign runner's worker default: all cores but one."""
    return max(1, (os.cpu_count() or 2) - 1)


def exhaustive_multi_fault_injection(
    backend: ExecutionBackend,
    input_values: Dict[int, int],
    k: int = 2,
    sites: Optional[Sequence[FaultSite]] = None,
    chunk_size: int = 4096,
    correction_budget: int = 1,
    keep_outcomes: bool = True,
    jobs: int = 1,
) -> MultiFaultAnalysis:
    """Inject every (sites choose k) combination of simultaneous faults.

    The generalisation of :func:`exhaustive_single_fault_injection` to k
    flips per trial, array-native end to end: each shard of ``chunk_size``
    combination ranks is unranked into a ``(chunk, k)`` site-index matrix
    (combinatorial number system, exactly ``itertools.combinations`` order),
    lowered to one :class:`~repro.core.faultplan.FaultPlanArrays` batch, run
    as one tape interpretation, and reduced to counters with boolean numpy
    passes — no per-combination Python objects unless ``keep_outcomes``
    retains them.

    ``correction_budget`` is the scheme's per-level correction capability
    ``t``.  ``jobs`` distributes shards over a process pool, as about two
    contiguous runs of shards per worker (each run's task pickles the
    backend once); shard boundaries depend only on ``chunk_size`` and
    counters are integer sums, so results are identical for any job count
    — the campaign runner's worker-count-invariance discipline.  A negative
    ``jobs`` uses all cores but one.
    """
    if k < 1:
        raise ProtectionError(f"k must be >= 1, got {k}")
    if chunk_size < 1:
        raise ProtectionError(f"chunk_size must be >= 1, got {chunk_size}")
    if sites is None:
        sites = backend.enumerate_sites(input_values)
    if k > len(sites):
        # An empty sweep must not masquerade as one: a coverage of 0/0 reads
        # as "0% covered" (and a budget verdict of "holds") from no evidence.
        raise ProtectionError(
            f"cannot choose {k} simultaneous faults from {len(sites)} sites"
        )
    sweep = _Sweep.over(backend, input_values, sites, k, correction_budget, keep_outcomes)
    total = combination_count(len(sites), k)
    shards = [
        (start, min(chunk_size, total - start))
        for start in range(0, total, chunk_size)
    ]
    if jobs < 0:
        jobs = _default_jobs()
    if jobs <= 1 or len(shards) <= 1:
        results = _sweep_shards(sweep, shards)
    else:
        workers = min(jobs, len(shards))
        # About two contiguous runs of shards per worker: each task pickles
        # the backend, whose tape the worker must lower again.
        runs = min(len(shards), 2 * workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _sweep_shards,
                    sweep,
                    shards[run * len(shards) // runs:(run + 1) * len(shards) // runs],
                )
                for run in range(runs)
            ]
            results = [result for future in futures for result in future.result()]
    analysis = MultiFaultAnalysis(k=k, correction_budget=correction_budget)
    for start, counters, vectors in sorted(results, key=lambda item: item[0]):
        for name, value in zip(_SHARD_COUNTERS, counters):
            setattr(analysis, name, getattr(analysis, name) + value)
        if vectors is not None:
            matrix, correct, detected, corrections, uncorrectable = vectors
            for row in range(matrix.shape[0]):
                analysis.outcomes.append(
                    MultiFaultOutcome(
                        sites=tuple(sites[index] for index in matrix[row]),
                        final_outputs_correct=bool(correct[row]),
                        error_detected=bool(detected[row]),
                        corrections=int(corrections[row]),
                        uncorrectable_levels=int(uncorrectable[row]),
                    )
                )
    return analysis


def multi_fault_coverage_table(
    backend: ExecutionBackend,
    input_values: Dict[int, int],
    max_faults: int = 2,
    correction_budget: int = 1,
    sites: Optional[Sequence[FaultSite]] = None,
    chunk_size: int = 4096,
    keep_outcomes: bool = False,
    jobs: int = 1,
) -> List[MultiFaultAnalysis]:
    """Run the exhaustive k-fault sweep for every k in 1..``max_faults``.

    Returns one :class:`MultiFaultAnalysis` per k (its
    :meth:`~MultiFaultAnalysis.coverage_row` rows form the per-k coverage
    table); the k=1 analysis reproduces the single-fault sweep exactly.
    ``jobs`` shards each k's rank range over a process pool with
    job-count-invariant results.
    """
    if max_faults < 1:
        raise ProtectionError(f"max_faults must be >= 1, got {max_faults}")
    if sites is None:
        sites = backend.enumerate_sites(input_values)
    return [
        exhaustive_multi_fault_injection(
            backend,
            input_values,
            k=k,
            sites=sites,
            chunk_size=chunk_size,
            correction_budget=correction_budget,
            keep_outcomes=keep_outcomes,
            jobs=jobs,
        )
        for k in range(1, max_faults + 1)
    ]


def fig6_case_table(
    backend: ExecutionBackend,
    input_values: Optional[Dict[int, int]] = None,
) -> List[Dict[str, object]]:
    """Reproduce the case analysis of Fig. 6 on the AND example.

    Returns one row per fault-site category with the paper's columns:
    ``error_site``, ``errors_in_level_output`` (worst case over the category),
    ``final_outcome`` and ``protected`` (whether the final output stayed
    correct for every site in the category).
    """
    netlist = and_gate_example_netlist()
    if input_values is None:
        input_values = {netlist.inputs[0]: 1, netlist.inputs[1]: 1}
    sites = backend.enumerate_sites(input_values)
    analysis = exhaustive_single_fault_injection(backend, input_values, sites)

    def category(site: FaultSite) -> str:
        if not site.is_metadata and site.output_position == 0:
            return "o1 or o2 (level-1 data output)" if site.logic_level == 1 else "o3 (final output)"
        if not site.is_metadata and site.output_position > 0:
            return "r_ij (redundant copy for parity)"
        return "parity update (XOR / parity cell)"

    rows: Dict[str, Dict[str, object]] = {}
    for outcome in analysis.outcomes:
        name = category(outcome.site)
        row = rows.setdefault(
            name,
            {
                "error_site": name,
                "sites": 0,
                "errors_in_level_output": 0,
                "final_outcome": "",
                "protected": True,
            },
        )
        row["sites"] = int(row["sites"]) + 1
        data_error = 1 if (not outcome.site.is_metadata and outcome.site.output_position == 0) else 0
        row["errors_in_level_output"] = max(int(row["errors_in_level_output"]), data_error)
        row["protected"] = bool(row["protected"]) and outcome.final_outputs_correct
    for row in rows.values():
        if row["protected"]:
            row["final_outcome"] = "corrected before propagation (SEP holds)"
        else:
            row["final_outcome"] = "error escaped to the final output"
    return list(rows.values())


def circuit_granularity_counterexample(
    backend: ExecutionBackend,
    input_values: Optional[Dict[int, int]] = None,
) -> bool:
    """Show that deferring checks to circuit granularity loses SEP.

    Runs the Fig. 6 AND example *without* per-level correction (``backend``
    runs the unprotected scheme) and injects a single fault in a level-1
    output; returns True when the final output is
    wrong — i.e. the single early error propagated, so a single check at the
    end (even with a distance-3 code over the final outputs) could not have
    pinpointed it.  Used by tests and the granularity ablation bench.
    """
    netlist = and_gate_example_netlist()
    if input_values is None:
        input_values = {netlist.inputs[0]: 1, netlist.inputs[1]: 1}
    outcomes = backend.run_trials([input_values], fault_plan=[{0: 0}])
    return not bool(outcomes.outputs_correct[0])
