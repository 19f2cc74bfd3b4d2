"""Analytic error-coverage model beyond the single-error guarantee.

ECiM and TRiM *guarantee* correction of one error per logic level.  The
paper's extension discussion (Fig. 8, Section VI "Extension to
Higher-Coverage Codes") asks what happens beyond that: when the gate error
rate is high enough that two or more errors can land in the same logic level
before the check fires, stronger (BCH) codes buy additional coverage at a
parity-bit cost.

This module quantifies that trade-off analytically: the number of errors per
logic level is binomial in the number of protected sites, so the probability
that a level exceeds the code's correction capability ``t`` is a
closed-form tail sum (:func:`level_failure_probability`), and a whole run
survives when every level stays within budget
(:func:`run_survival_probability`).  :func:`coverage_table` sweeps gate
error rates and correction strengths into the kind of coverage-vs-rate table
a designer would use to pick between Hamming(255,247) and the BCH-255
family.

The empirical complement — bit-exact Monte-Carlo fault injection, which also
captures what the model ignores (metadata errors, logical masking,
miscorrection) — is a campaign (:func:`repro.campaign.run_campaign`); the
``coverage`` experiment runs one next to this table when given a backend.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.errors import EvaluationError

__all__ = [
    "binomial_tail",
    "level_failure_probability",
    "run_survival_probability",
    "expected_uncorrectable_levels",
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
