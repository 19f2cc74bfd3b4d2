"""Estimator grammar: ``kind[:key=value,...]`` strings for rare-event modes.

A campaign's ``estimator`` field selects how trials are *drawn* and how the
per-cell rates are *estimated*:

* ``uniform`` — the plain estimator: trials at the cell's own rates,
  plain proportions with Wilson intervals.  Only useful explicitly when
  combined with sequential stopping.
* ``importance:rate=Q`` — importance sampling with error-rate tilting:
  trials run at the inflated proposal rate ``Q`` and every outcome is
  reweighted by the exact per-trial Bernoulli likelihood ratio computed
  from ``faults_injected`` (unbiased Horvitz-Thompson estimate of the
  rate at the cell's *target* gate error rate).
* ``stratified[:k_max=K,allocation=A,pilot=P]`` — stratified sampling over
  the injected-fault count: exact strata ``k = 0 .. K`` plus a ``k > K``
  tail, trials per stratum allocated proportionally (``A=proportional``)
  or by Neyman allocation from pilot variances (``A=neyman``), combined
  into an unbiased estimate with stratified variance.

Every kind takes ``metric=M`` naming the outcome whose rate the estimator
targets (sequential stopping and Neyman allocation optimise this metric);
the default is ``silent_corruption``.

The grammar mirrors :func:`repro.pim.faults.parse_fault_model`: parsing is
strict (unknown kinds/keys, duplicate keys and malformed values all raise
:class:`~repro.errors.EvaluationError`), and :meth:`EstimatorSpec.to_string`
renders a canonical form so equivalent spellings land in the same spec hash
and checkpoint namespace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.errors import EvaluationError

__all__ = [
    "ESTIMATOR_KINDS",
    "ESTIMATOR_METRICS",
    "ALLOCATION_MODES",
    "EstimatorSpec",
    "parse_estimator",
]

#: Estimator kinds the grammar accepts.
ESTIMATOR_KINDS = ("uniform", "importance", "stratified")

#: Outcome counters an estimator can target (a subset of
#: ``repro.campaign.aggregate.COUNT_KEYS`` with a per-trial 0/1 meaning).
ESTIMATOR_METRICS = ("correct", "detected", "detected_corruption", "silent_corruption")

#: Trial-allocation modes for the stratified estimator.
ALLOCATION_MODES = ("proportional", "neyman")

#: Default number of exact fault-count strata (``k = 0 .. k_max`` plus tail).
DEFAULT_K_MAX = 3

#: Grammar keys accepted per kind (every kind takes ``metric``).
_KIND_PARAMS: Dict[str, Tuple[str, ...]] = {
    "uniform": ("metric",),
    "importance": ("rate", "metric"),
    "stratified": ("k_max", "allocation", "pilot", "metric"),
}


@dataclass(frozen=True)
class EstimatorSpec:
    """Parsed, validated form of one estimator grammar string."""

    kind: str
    rate: Optional[float] = None
    k_max: int = DEFAULT_K_MAX
    allocation: str = "proportional"
    pilot: Optional[int] = None
    metric: str = "silent_corruption"

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise EvaluationError(
                f"unknown estimator kind {self.kind!r}; expected one of {ESTIMATOR_KINDS}"
            )
        if self.metric not in ESTIMATOR_METRICS:
            raise EvaluationError(
                f"unknown estimator metric {self.metric!r}; expected one of {ESTIMATOR_METRICS}"
            )
        if self.kind == "importance":
            if self.rate is None:
                raise EvaluationError("importance estimator needs rate=<proposal error rate>")
            if not 0.0 < self.rate < 1.0:
                raise EvaluationError(
                    f"importance proposal rate must lie in (0, 1), got {self.rate}"
                )
        elif self.rate is not None:
            raise EvaluationError(f"estimator kind {self.kind!r} takes no rate parameter")
        if self.kind == "stratified":
            if self.k_max < 1:
                raise EvaluationError(f"stratified k_max must be >= 1, got {self.k_max}")
            if self.allocation not in ALLOCATION_MODES:
                raise EvaluationError(
                    f"unknown allocation {self.allocation!r}; expected one of {ALLOCATION_MODES}"
                )
            if self.pilot is not None and self.pilot < 1:
                raise EvaluationError(f"stratified pilot must be >= 1, got {self.pilot}")
        elif self.pilot is not None:
            raise EvaluationError(f"estimator kind {self.kind!r} takes no pilot parameter")

    def to_string(self) -> str:
        """Canonical grammar form: parameters in fixed order, defaults omitted
        (``rate`` always rendered — it has no default)."""
        params = []
        if self.kind == "importance":
            params.append(f"rate={self.rate!r}")
        if self.kind == "stratified":
            if self.k_max != DEFAULT_K_MAX:
                params.append(f"k_max={self.k_max}")
            if self.allocation != "proportional":
                params.append(f"allocation={self.allocation}")
            if self.pilot is not None:
                params.append(f"pilot={self.pilot}")
        if self.metric != "silent_corruption":
            params.append(f"metric={self.metric}")
        if not params:
            return self.kind
        return f"{self.kind}:{','.join(params)}"


def _parse_params(kind: str, text: str) -> Dict[str, str]:
    raw: Dict[str, str] = {}
    allowed = _KIND_PARAMS[kind]
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise EvaluationError(f"empty parameter in estimator string for {kind!r}")
        if "=" not in item:
            raise EvaluationError(f"estimator parameter {item!r} must look like key=value")
        key, _, value = item.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in allowed:
            raise EvaluationError(
                f"estimator kind {kind!r} takes no parameter {key!r}; allowed: {allowed}"
            )
        if key in raw:
            raise EvaluationError(f"duplicate estimator parameter {key!r}")
        if not value:
            raise EvaluationError(f"estimator parameter {key!r} needs a value")
        raw[key] = value
    return raw


def parse_estimator(text: str) -> EstimatorSpec:
    """Parse one ``kind[:key=value,...]`` estimator string.

    ``parse_estimator(spec.to_string())`` is the identity, and
    ``parse_estimator(text).to_string()`` is idempotent — the canonical form
    every spec stores and hashes.
    """
    if not isinstance(text, str) or not text.strip():
        raise EvaluationError("estimator must be a non-empty grammar string")
    head, _, tail = text.strip().partition(":")
    kind = head.strip().lower().replace("-", "_")
    if kind not in ESTIMATOR_KINDS:
        raise EvaluationError(
            f"unknown estimator kind {kind!r}; expected one of {ESTIMATOR_KINDS}"
        )
    spec = EstimatorSpec(kind=kind, rate=1e-3 if kind == "importance" else None)
    if not tail.strip():
        if ":" in text:
            raise EvaluationError(f"estimator string {text!r} has a trailing ':'")
        if kind == "importance":
            raise EvaluationError("importance estimator needs rate=<proposal error rate>")
        return spec
    raw = _parse_params(kind, tail)
    updates: Dict[str, object] = {}
    try:
        if "rate" in raw:
            updates["rate"] = float(raw["rate"])
        if "k_max" in raw:
            updates["k_max"] = int(raw["k_max"])
        if "pilot" in raw:
            updates["pilot"] = int(raw["pilot"])
    except ValueError as error:
        raise EvaluationError(f"malformed estimator parameter: {error}") from None
    if "allocation" in raw:
        updates["allocation"] = raw["allocation"].lower()
    if "metric" in raw:
        updates["metric"] = raw["metric"].lower()
    if kind == "importance" and "rate" not in raw:
        raise EvaluationError("importance estimator needs rate=<proposal error rate>")
    return replace(spec, **updates)
