"""Importance sampling with error-rate tilting: exact likelihood reweighting.

Under the default stochastic fault model with ``memory_error_rate == 0``,
every enumerated fault site is one independent Bernoulli trial, so the
injected-fault pattern of a trial has probability
``rate**f * (1 - rate)**(n_sites - f)`` where ``f = faults_injected`` — on
every backend, which all consume one shared fault schedule (metadata sites
inherit the gate rate).  Running trials at an inflated *proposal* rate ``q`` and
reweighting each by the exact likelihood ratio

    w = (p/q)**f * ((1-p)/(1-q))**(n-f)

therefore yields unbiased Horvitz-Thompson estimates of every outcome rate
at the *target* rate ``p`` — while actually exercising the fault paths often
enough to observe rare events.  The weight depends only on ``f``, which the
engines already report per trial, so no injector changes are needed and the
counter-based trial stream (placement- and worker-count-invariance) is
untouched.

Weights and weighted sums are computed in trial order with vectorised numpy
reductions, so per-shard sums are deterministic floats; cell-level merging
adds shard sums in ``(cell, shard index)`` order for the same reason.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import EvaluationError

__all__ = ["WEIGHT_KEYS", "likelihood_ratios", "weighted_outcome_sums"]

#: Float sums a weighted shard reports (merge by addition, in shard order).
#: ``weight_sum`` / ``weight_sq_sum`` feed the effective-sample-size
#: diagnostic; each ``w_<metric>`` / ``w_<metric>_sq`` pair feeds the
#: Horvitz-Thompson mean and variance of that outcome rate.
WEIGHT_KEYS = (
    "weight_sum",
    "weight_sq_sum",
    "w_correct",
    "w_correct_sq",
    "w_detected",
    "w_detected_sq",
    "w_detected_corruption",
    "w_detected_corruption_sq",
    "w_silent_corruption",
    "w_silent_corruption_sq",
)


def likelihood_ratios(
    fault_counts: np.ndarray, n_sites: int, target_rate: float, proposal_rate: float
) -> np.ndarray:
    """Per-trial weights ``P_target(pattern) / P_proposal(pattern)``.

    Computed in log space — at paper-scale site counts (dot2 + ECiM
    enumerates 1702 sites) the direct powers underflow long before the
    weighted sums do.  ``target_rate == proposal_rate`` returns exactly 1.0
    for every trial, so a non-tilted importance run degenerates to the
    uniform estimator bit-for-bit.
    """
    if not 0.0 < proposal_rate < 1.0:
        raise EvaluationError(f"proposal rate must lie in (0, 1), got {proposal_rate}")
    if not 0.0 <= target_rate < 1.0:
        raise EvaluationError(f"target rate must lie in [0, 1), got {target_rate}")
    if n_sites < 0:
        raise EvaluationError(f"n_sites must be >= 0, got {n_sites}")
    f = np.asarray(fault_counts, dtype=np.float64)
    if np.any(f < 0) or np.any(f > n_sites):
        raise EvaluationError(f"fault counts must lie in [0, {n_sites}]")
    if target_rate == proposal_rate:
        return np.ones_like(f)
    if target_rate == 0.0:
        # Only the fault-free pattern has target-measure mass.
        return np.where(f == 0, np.exp(-n_sites * np.log1p(-proposal_rate)), 0.0)
    log_w = f * (np.log(target_rate) - np.log(proposal_rate)) + (n_sites - f) * (
        np.log1p(-target_rate) - np.log1p(-proposal_rate)
    )
    return np.exp(log_w)


def weighted_outcome_sums(weights: np.ndarray, outcomes) -> Dict[str, float]:
    """Per-shard weighted sums of every estimator metric, in trial order.

    ``outcomes`` is a :class:`~repro.core.backend.TrialOutcomes` batch; the
    indicator of each metric is multiplied by the per-trial weight and summed
    (and squared-then-summed — ``indicator**2 == indicator``, so the squared
    sum doubles as ``sum(x_i^2)`` for the variance estimate).
    """
    weights = np.asarray(weights, dtype=np.float64)
    correct = outcomes.outputs_correct
    detected = outcomes.detected
    masks = {
        "correct": correct,
        "detected": detected,
        "detected_corruption": ~correct & detected,
        "silent_corruption": ~correct & ~detected,
    }
    sums: Dict[str, float] = {
        "weight_sum": float(np.sum(weights)),
        "weight_sq_sum": float(np.sum(weights * weights)),
    }
    squared = weights * weights
    for name, mask in masks.items():
        sums[f"w_{name}"] = float(np.sum(weights[mask]))
        sums[f"w_{name}_sq"] = float(np.sum(squared[mask]))
    return sums
