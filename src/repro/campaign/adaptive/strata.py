"""Stratified sampling over injected-fault count: strata, allocation, plans.

The stochastic fault model makes the per-trial fault count ``f`` a
``Binomial(n_sites, rate)`` variable, and *conditional on* ``f = k`` the
injected pattern is uniform over the ``C(n_sites, k)`` k-subsets of the
enumerated fault sites — exactly the population the exhaustive multi-fault
sweeps enumerate.  That turns fault count into a perfect stratification
variable:

* strata are ``f = 0, 1, .., k_max`` exactly, plus one ``f > k_max`` tail;
* each stratum's population probability ``pi_k`` is the exact binomial pmf
  (log-gamma arithmetic, no scipy);
* sampling *within* a fixed-``k`` stratum draws a uniform k-subset of the
  sites from the trial's plan stream
  (:meth:`repro.core.rng.TrialStream.subsets`); tail trials first draw
  ``f`` from the conditional binomial with their fault-count draw;
* per-stratum outcome counters combine into the unbiased stratified mean
  ``sum(pi_k * p_k)`` with variance ``sum(pi_k^2 p_k (1 - p_k) / n_k)``
  (:func:`repro.stats.stratified_mean_interval`).

Because stratified trials execute as deterministic
:class:`~repro.core.faultplan.FaultPlanArrays` plans (no stochastic injector
involved), their counters are byte-identical across the scalar, batched and
bitpacked backends.

Trial allocation across strata is either **proportional** (``n_k`` tracks
``pi_k`` — data-independent) or **Neyman** (``n_k`` tracks
``pi_k * sigma_k`` with ``sigma_k`` estimated from the counters accumulated
so far — the variance-optimal split, computed from previous rounds only so
the allocation stays deterministic for any worker count).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.faultplan import FaultPlanArrays
from repro.core.rng import TrialStream
from repro.errors import EvaluationError

__all__ = [
    "stratum_labels",
    "stratum_probabilities",
    "conditional_tail_distribution",
    "allocate_trials",
    "neyman_sigmas",
    "stratified_plan",
    "per_stratum_counts",
]

#: Conditional tail mass beyond this is truncated from the inverse-CDF table.
_TAIL_CUTOFF = 1e-15

#: Per-stratum outcome counters (the estimator metrics plus bookkeeping).
STRATUM_COUNT_KEYS = (
    "trials",
    "correct",
    "detected",
    "detected_corruption",
    "silent_corruption",
    "faults_injected",
)


def stratum_labels(k_max: int) -> Tuple[str, ...]:
    """Stable stratum names: ``k=0 .. k=k_max`` plus the ``k>k_max`` tail."""
    if k_max < 1:
        raise EvaluationError(f"k_max must be >= 1, got {k_max}")
    return tuple(f"k={k}" for k in range(k_max + 1)) + (f"k>{k_max}",)


def _log_binomial_pmf(n: int, k: int, rate: float) -> float:
    log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    return log_comb + k * math.log(rate) + (n - k) * math.log1p(-rate)


def stratum_probabilities(n_sites: int, rate: float, k_max: int) -> np.ndarray:
    """Exact population probability of every stratum (length ``k_max + 2``).

    Entry ``k <= k_max`` is the binomial pmf ``P(f = k)``; the last entry is
    the tail mass ``P(f > k_max)`` computed by complement.  Strata beyond the
    site count have probability exactly 0.
    """
    if n_sites < 0:
        raise EvaluationError(f"n_sites must be >= 0, got {n_sites}")
    if not 0.0 <= rate < 1.0:
        raise EvaluationError(f"stratified sampling needs a rate in [0, 1), got {rate}")
    labels = stratum_labels(k_max)
    probs = np.zeros(len(labels), dtype=np.float64)
    if rate == 0.0:
        probs[0] = 1.0
        return probs
    for k in range(min(k_max, n_sites) + 1):
        probs[k] = math.exp(_log_binomial_pmf(n_sites, k, rate))
    if n_sites > k_max:
        probs[-1] = max(0.0, 1.0 - float(probs[:-1].sum()))
    return probs


def conditional_tail_distribution(
    n_sites: int, rate: float, k_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF table for ``f`` conditional on ``f > k_max``.

    Returns ``(counts, cdf)``: candidate fault counts in increasing order and
    the normalised cumulative distribution over them, truncated where the
    remaining conditional mass drops below ``1e-15`` (drawing those ``f``
    values has no observable probability).  Empty arrays when the tail has no
    mass at all.
    """
    probs = stratum_probabilities(n_sites, rate, k_max)
    tail_mass = float(probs[-1])
    if tail_mass <= 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    counts: List[int] = []
    masses: List[float] = []
    accumulated = 0.0
    for k in range(k_max + 1, n_sites + 1):
        mass = math.exp(_log_binomial_pmf(n_sites, k, rate))
        counts.append(k)
        masses.append(mass)
        accumulated += mass
        if tail_mass - accumulated < _TAIL_CUTOFF * tail_mass:
            break
    cdf = np.cumsum(np.asarray(masses, dtype=np.float64))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return np.asarray(counts, dtype=np.int64), cdf


def allocate_trials(
    probabilities: Sequence[float],
    n_trials: int,
    sigmas: Optional[Sequence[float]] = None,
) -> Tuple[int, ...]:
    """Split ``n_trials`` across strata (largest-remainder apportionment).

    Allocation weight is ``pi_k`` (proportional) or ``pi_k * sigma_k``
    (Neyman) — when every Neyman weight is zero (a pilot that observed no
    variance anywhere) the split falls back to proportional, and when every
    *proportional* weight is degenerate it falls back to an equal split over
    the strata with positive probability.  Every positive-probability
    stratum receives at least one trial (an unsampled stratum would bias the
    combined estimate by its full ``pi_k``); zero-probability strata receive
    none.  Fully deterministic: remainders tie-break by stratum index.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    if n_trials < 1:
        raise EvaluationError(f"cannot allocate {n_trials} trials")
    active = probs > 0.0
    n_active = int(active.sum())
    if n_active == 0:
        raise EvaluationError("no stratum has positive probability")
    if n_trials < n_active:
        raise EvaluationError(
            f"{n_trials} trials cannot cover {n_active} strata with >= 1 trial each"
        )
    weights = probs.copy()
    if sigmas is not None:
        weights = weights * np.asarray(sigmas, dtype=np.float64)
    weights[~active] = 0.0
    if float(weights.sum()) <= 0.0:
        weights = active.astype(np.float64)
    shares = n_trials * weights / float(weights.sum())
    base = np.floor(shares).astype(np.int64)
    remainder = n_trials - int(base.sum())
    fractions = shares - base
    for index in np.lexsort((np.arange(len(probs)), -fractions))[:remainder]:
        base[index] += 1
    # Min-1 repair: move trials from the largest allocations into any active
    # stratum the apportionment starved.
    for index in np.flatnonzero(active & (base == 0)):
        donor = int(np.argmax(base))
        if base[donor] <= 1:
            raise EvaluationError("not enough trials to cover every stratum")
        base[donor] -= 1
        base[index] += 1
    return tuple(int(v) for v in base)


def neyman_sigmas(
    strata_counts: Dict[str, Dict[str, float]], labels: Sequence[str], metric: str
) -> Optional[List[float]]:
    """Per-stratum ``sqrt(p (1 - p))`` estimates from accumulated counters.

    Returns ``None`` when no stratum has been sampled yet (round 0 — the
    caller falls back to its pilot allocation).  Unsampled strata get the
    conservative maximum sigma 0.5 so Neyman never starves a stratum it has
    not yet observed.
    """
    if not strata_counts:
        return None
    sigmas: List[float] = []
    seen = False
    for label in labels:
        counters = strata_counts.get(label)
        trials = int(counters["trials"]) if counters else 0
        if trials <= 0:
            sigmas.append(0.5)
            continue
        seen = True
        p = counters[metric] / trials
        sigmas.append(math.sqrt(p * (1.0 - p)))
    return sigmas if seen else None


def stratified_plan(
    n_sites: int,
    rate: float,
    k_max: int,
    allocation: Sequence[int],
    offsets: Sequence[int],
    stream: TrialStream,
    site_ops: np.ndarray,
    site_positions: np.ndarray,
) -> Tuple[FaultPlanArrays, np.ndarray, np.ndarray]:
    """Deterministic fault plans for one batch of a stratified block's trials.

    ``allocation`` splits the enclosing block's trials across strata;
    ``offsets`` are the batch's trial positions *within* the block, mapped
    onto strata by cumulative allocation (so any shard boundary sees the same
    stratum per trial).  Each trial's randomness comes solely from its row
    of ``stream``: tail trials draw ``f`` by inverse CDF from their
    fault-count draw, then every trial with ``k >= 1`` draws a uniform
    k-subset of the sites.

    Returns ``(plans, stratum_of, fault_counts)``.
    """
    allocation = np.asarray(allocation, dtype=np.int64)
    labels = stratum_labels(k_max)
    if allocation.shape != (len(labels),):
        raise EvaluationError(
            f"allocation must have {len(labels)} strata entries, got {allocation.shape}"
        )
    offsets = np.asarray(offsets, dtype=np.int64)
    if len(offsets) != len(stream):
        raise EvaluationError("offsets and the trial stream must pair one-to-one")
    cumulative = np.cumsum(allocation)
    block_trials = int(cumulative[-1])
    if offsets.size and (int(offsets.min()) < 0 or int(offsets.max()) >= block_trials):
        raise EvaluationError(
            f"trial offsets must lie in [0, {block_trials}) of the stratified block"
        )
    stratum_of = np.searchsorted(cumulative, offsets, side="right").astype(np.int64)
    tail_stratum = len(labels) - 1
    fault_counts = stratum_of.copy()
    in_tail = stratum_of == tail_stratum
    if in_tail.any():
        tail_counts, tail_cdf = conditional_tail_distribution(n_sites, rate, k_max)
        if tail_counts.size == 0:
            raise EvaluationError(
                "trials allocated to the tail stratum, but it has no probability mass"
            )
        draws = stream.count_draws()[in_tail]
        fault_counts[in_tail] = tail_counts[np.searchsorted(tail_cdf, draws, side="left")]
    if fault_counts.size and int(fault_counts.max()) > n_sites:
        raise EvaluationError(
            f"stratum needs {int(fault_counts.max())} faults but only {n_sites} sites exist"
        )
    chosen = stream.subsets(n_sites, fault_counts)
    trial_ptr = np.zeros(len(offsets) + 1, dtype=np.intp)
    np.cumsum(fault_counts, out=trial_ptr[1:])
    flat = chosen[chosen < n_sites]
    plans = FaultPlanArrays(
        trial_ptr=trial_ptr,
        op_index=np.asarray(site_ops, dtype=np.int64)[flat],
        position=np.asarray(site_positions, dtype=np.int64)[flat],
    )
    return plans, stratum_of, fault_counts


def per_stratum_counts(
    stratum_of: np.ndarray,
    outcomes,
    probabilities: Sequence[float],
    k_max: int,
) -> Dict[str, Dict[str, float]]:
    """Per-stratum outcome counters of one shard, keyed by stratum label.

    Each entry carries the stratum's exact population probability ``pi``
    (a float, identical across shards) plus integer counters for every
    estimator metric — the inputs of the pooled stratified estimate and the
    Neyman sigma update.  Strata this shard never touched are omitted.
    """
    labels = stratum_labels(k_max)
    correct = outcomes.outputs_correct
    detected = outcomes.detected
    faults = outcomes.faults_injected
    result: Dict[str, Dict[str, float]] = {}
    for stratum in np.unique(stratum_of):
        mask = stratum_of == stratum
        label = labels[int(stratum)]
        result[label] = {
            "pi": float(probabilities[int(stratum)]),
            "trials": int(mask.sum()),
            "correct": int(correct[mask].sum()),
            "detected": int(detected[mask].sum()),
            "detected_corruption": int((~correct & detected)[mask].sum()),
            "silent_corruption": int((~correct & ~detected)[mask].sum()),
            "faults_injected": int(faults[mask].sum()),
        }
    return result
