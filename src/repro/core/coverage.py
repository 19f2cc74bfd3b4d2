"""Error-coverage analysis beyond the single-error guarantee.

ECiM and TRiM *guarantee* correction of one error per logic level.  The
paper's extension discussion (Fig. 8, Section VI "Extension to
Higher-Coverage Codes") asks what happens beyond that: when the gate error
rate is high enough that two or more errors can land in the same logic level
before the check fires, stronger (BCH) codes buy additional coverage at a
parity-bit cost.

This module quantifies that trade-off two ways:

* **Analytically** — the number of errors per logic level is binomial in the
  number of protected sites, so the probability that a level exceeds the
  code's correction capability ``t`` is a closed-form tail sum
  (:func:`level_failure_probability`), and a whole run survives when every
  level stays within budget (:func:`run_survival_probability`).
* **Empirically** — Monte-Carlo fault injection through any
  :class:`~repro.core.backend.ExecutionBackend` (:func:`monte_carlo_coverage`
  runs the scalar object model or the batched tape interpreter behind the
  same protocol), which also captures effects the analytic model ignores
  (metadata errors, logical masking, miscorrection).

:func:`coverage_table` sweeps gate error rates and correction strengths into
the kind of coverage-vs-rate table a designer would use to pick between
Hamming(255,247) and the BCH-255 family.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.backend import as_backend
from repro.core.rng import TrialStream, derive_seed
from repro.errors import EvaluationError
from repro.pim.faults import FaultModel, FaultModelSpec

__all__ = [
    "binomial_tail",
    "level_failure_probability",
    "run_survival_probability",
    "expected_uncorrectable_levels",
    "MonteCarloCoverage",
    "monte_carlo_coverage",
    "coverage_table",
]


def binomial_tail(n: int, p: float, k: int) -> float:
    """P[X > k] for X ~ Binomial(n, p), computed stably for small p.

    Used as "probability that more than k errors land among n protected
    sites".  For n·p ≪ 1 the dominant term is the (k+1)-error one.
    """
    if n < 0 or k < 0:
        raise EvaluationError("n and k must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise EvaluationError("p must be a probability")
    if k >= n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    # Sum P[X = i] for i in 0..k, subtract from 1; use log terms for stability.
    total = 0.0
    for i in range(k + 1):
        log_term = (
            math.lgamma(n + 1)
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + (i * math.log(p) if p > 0 else (0.0 if i == 0 else -math.inf))
            + (n - i) * math.log1p(-p)
        )
        total += math.exp(log_term) if log_term != -math.inf else 0.0
    return max(0.0, 1.0 - total)


def level_failure_probability(
    sites_per_level: int, gate_error_rate: float, correctable_errors: int = 1
) -> float:
    """Probability that one logic level accumulates more errors than the code corrects."""
    return binomial_tail(sites_per_level, gate_error_rate, correctable_errors)


def run_survival_probability(
    sites_per_level: Sequence[int], gate_error_rate: float, correctable_errors: int = 1
) -> float:
    """Probability that *every* logic level of a run stays within the correction budget."""
    survival = 1.0
    for sites in sites_per_level:
        survival *= 1.0 - level_failure_probability(sites, gate_error_rate, correctable_errors)
    return survival


def expected_uncorrectable_levels(
    sites_per_level: Sequence[int], gate_error_rate: float, correctable_errors: int = 1
) -> float:
    """Expected number of levels whose error count exceeds the code's capability."""
    return sum(
        level_failure_probability(sites, gate_error_rate, correctable_errors)
        for sites in sites_per_level
    )


@dataclass
class MonteCarloCoverage:
    """Aggregate outcome of a Monte-Carlo coverage campaign."""

    trials: int = 0
    correct_runs: int = 0
    runs_with_detections: int = 0
    total_faults_injected: int = 0
    total_corrections: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of runs whose final outputs were correct."""
        if self.trials == 0:
            return 0.0
        return self.correct_runs / self.trials

    @property
    def average_faults_per_run(self) -> float:
        if self.trials == 0:
            return 0.0
        return self.total_faults_injected / self.trials


def monte_carlo_coverage(
    target: object,
    make_inputs: Callable[[random.Random], Dict[int, int]],
    gate_error_rate: float,
    trials: int = 50,
    seed: int = 0,
    model: Optional[FaultModel] = None,
    fault_model: Optional[FaultModelSpec] = None,
) -> MonteCarloCoverage:
    """Monte-Carlo fault injection over whole executions.

    ``target`` is an :class:`~repro.core.backend.ExecutionBackend` (scalar or
    batched) or a legacy ``make_executor(fault_injector)`` factory;
    ``make_inputs(rng)`` draws one input assignment from a private generator
    seeded per trial from ``(seed, "coverage", trial, "inputs")``; faults
    come from the counter-based stream keyed by ``(seed, "coverage")``
    (:class:`~repro.core.rng.TrialStream`), so a coverage run is
    reproducible from the single ``seed`` and byte-identical across
    backends, and trial *i*'s randomness never depends on how much entropy
    earlier trials consumed.  ``model`` sets the stochastic rates (defaults
    to gate errors only, at ``gate_error_rate``); ``fault_model`` instead
    runs any declarative fault model
    (:class:`~repro.pim.faults.FaultModelSpec`: stochastic / burst /
    stuck-at, with an unset gate rate inheriting ``gate_error_rate``).
    """
    if trials <= 0:
        raise EvaluationError("trials must be positive")
    if model is not None and fault_model is not None:
        raise EvaluationError("pass either model or fault_model, not both")
    backend = as_backend(target)
    input_rows = [
        make_inputs(random.Random(derive_seed(seed, "coverage", trial, "inputs")))
        for trial in range(trials)
    ]
    if model is not None:
        fault_model = FaultModelSpec.stochastic(
            gate_error_rate=model.gate_error_rate,
            memory_error_rate=model.memory_error_rate,
            preset_error_rate=model.preset_error_rate,
            metadata_error_rate=model.metadata_error_rate,
        )
    fault_model = (fault_model or FaultModelSpec.stochastic()).resolved(
        gate_error_rate=gate_error_rate
    )
    stream = TrialStream.keyed((seed, "coverage"), range(trials))
    outcomes = backend.run_trials(
        input_rows,
        fault_model=fault_model,
        stream=stream if fault_model.needs_stream else None,
    )
    return MonteCarloCoverage(
        trials=outcomes.n_trials,
        correct_runs=int(outcomes.outputs_correct.sum()),
        runs_with_detections=int(outcomes.detected.sum()),
        total_faults_injected=int(outcomes.faults_injected.sum()),
        total_corrections=int(outcomes.corrections.sum()),
    )


def coverage_table(
    sites_per_level: Sequence[int],
    gate_error_rates: Sequence[float],
    correction_strengths: Sequence[int] = (1, 2, 3),
) -> List[Dict[str, float]]:
    """Analytic coverage sweep: survival probability per (rate, t) pair.

    One row per gate error rate with a ``survival_t{t}`` column per
    correction strength — the quantitative version of "we can always use
    stronger codes to protect against multi-bit errors" (Section IV-E).
    """
    rows: List[Dict[str, float]] = []
    for rate in gate_error_rates:
        row: Dict[str, float] = {"gate_error_rate": float(rate)}
        for t in correction_strengths:
            row[f"survival_t{t}"] = run_survival_probability(sites_per_level, rate, t)
            row[f"expected_bad_levels_t{t}"] = expected_uncorrectable_levels(
                sites_per_level, rate, t
            )
        rows.append(row)
    return rows
