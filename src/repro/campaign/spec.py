"""Campaign specifications: the grid a campaign sweeps and how it shards.

A :class:`CampaignSpec` is a declarative description of a Monte-Carlo
fault-injection campaign: the cross product of

    workloads x protection schemes x technologies x gate error rates,

with ``trials`` independent trials per grid cell.  Expansion is deterministic:
:meth:`CampaignSpec.cells` enumerates :class:`CampaignCell` objects in a fixed
order, and :meth:`CampaignSpec.shards` splits each cell's trial range into
fixed-size :class:`ShardTask` chunks — the unit of work the runner hands to
worker processes (a serial run batches a cell's consecutive shards) and the
unit of resume the checkpoint store records.

Reproducibility is anchored in :func:`trial_seed`: every trial's randomness
(input sampling and fault injection, as separate counter-based streams)
derives from ``(campaign seed, cell key)`` through one SHA-256 and the
trial's own index (the RNG contract of :mod:`repro.core.rng`), never from
worker identity, shard boundaries or Python's per-process hash
randomisation.  The same spec + seed therefore produces bit-identical
aggregate results whether it runs serially, across N processes, or resumed
across restarts, on any backend.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.core.backend import BACKEND_NAMES, DEFAULT_BACKEND
from repro.core.rng import RNG_CONTRACT, stream_key
from repro.errors import EvaluationError, PimError
from repro.pim.faults import parse_fault_model

__all__ = [
    "CAMPAIGN_SCHEMES",
    "CampaignCell",
    "ShardTask",
    "CampaignSpec",
    "trial_seed",
]

#: Protection schemes a campaign can exercise (executor per scheme).
CAMPAIGN_SCHEMES = ("unprotected", "ecim", "trim")


def _resolve_backend(backend: Optional[str]) -> str:
    """``DEFAULT_BACKEND`` when unset, else a validated backend name."""
    backend = DEFAULT_BACKEND if backend is None else str(backend).strip().lower()
    if backend not in BACKEND_NAMES:
        raise EvaluationError(f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}")
    return backend


def trial_seed(campaign_seed: int, cell_key: str) -> int:
    """The Philox key every trial of one campaign cell draws from.

    One SHA-256 per (campaign seed, cell key) — stable across processes,
    platforms and ``PYTHONHASHSEED``; trial ``t``'s streams are then
    addressed by its index through the counter (see :mod:`repro.core.rng`).
    """
    return stream_key(campaign_seed, cell_key)


def _canonical_estimator(value: Optional[str], owner: str) -> Optional[str]:
    """Validate and canonicalise an ``estimator`` grammar string.

    Canonical form (``EstimatorSpec.to_string()``) is what gets stored and
    hashed, so ``importance:rate=1e-2`` and ``importance:rate=0.01`` share a
    checkpoint namespace.  Imported lazily — the adaptive subpackage sits
    above this module in the import graph.
    """
    if value is None:
        return None
    from repro.campaign.adaptive.grammar import parse_estimator

    try:
        return parse_estimator(value).to_string()
    except EvaluationError as error:
        raise EvaluationError(f"invalid {owner}.estimator: {error}") from None


def _canonical_fault_model(value: Optional[str], owner: str) -> Optional[str]:
    """Validate and canonicalise a ``fault_model`` grammar string.

    The canonical form (``FaultModelSpec.to_string()``) is what gets stored,
    keyed and hashed, so equivalent spellings (``stuckat:cells=7+3`` vs
    ``stuck-at:cells=3+7,value=0``) land in the same checkpoint namespace.
    """
    if value is None:
        return None
    try:
        return parse_fault_model(value).to_string()
    except PimError as error:
        raise EvaluationError(f"invalid {owner}.fault_model: {error}") from None


@dataclass(frozen=True)
class CampaignCell:
    """One grid cell: a (workload, scheme, technology, error-rate) combination."""

    workload: str
    scheme: str
    technology: str
    gate_error_rate: float
    memory_error_rate: float = 0.0
    multi_output: bool = True
    faults_per_trial: Optional[int] = None
    fault_model: Optional[str] = None
    #: Score this cell's trials against the workload's integer oracle
    #: (:mod:`repro.campaign.application`).  Deliberately *excluded* from
    #: :attr:`key` — the metrics are derived from the very same seeded
    #: trials, so an application cell's base counters stay byte-identical
    #: to its plain twin's.
    application: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in CAMPAIGN_SCHEMES:
            raise EvaluationError(
                f"unknown scheme {self.scheme!r}; expected one of {CAMPAIGN_SCHEMES}"
            )
        for name in ("gate_error_rate", "memory_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise EvaluationError(f"{name} must be a probability, got {rate}")
        if self.faults_per_trial is not None:
            object.__setattr__(self, "faults_per_trial", int(self.faults_per_trial))
            if self.faults_per_trial < 1:
                raise EvaluationError("faults_per_trial must be >= 1 when set")
        object.__setattr__(
            self, "fault_model", _canonical_fault_model(self.fault_model, "CampaignCell")
        )
        if self.fault_model is not None and self.faults_per_trial is not None:
            raise EvaluationError(
                "a cell takes one fault source: fault_model and "
                "faults_per_trial are exclusive"
            )
        object.__setattr__(self, "application", bool(self.application))
        if self.application:
            # Fail at expansion, not mid-campaign in a worker: the workload
            # must carry an oracle adapter.  Imported lazily — the
            # application module sits above this one in the import graph.
            from repro.campaign.application import get_application_workload

            get_application_workload(self.workload)

    @property
    def key(self) -> str:
        """Stable identifier used for seeding, checkpointing and merging.

        The ``faults_per_trial`` / ``fault_model`` suffixes appear only when
        the fields are set, so every pre-existing checkpoint keeps its
        historical cell keys.
        """
        style = "mo" if self.multi_output else "so"
        key = (
            f"{self.workload}|{self.scheme}|{self.technology}"
            f"|g{self.gate_error_rate:.9e}|m{self.memory_error_rate:.9e}|{style}"
        )
        if self.faults_per_trial is not None:
            key += f"|f{self.faults_per_trial}"
        if self.fault_model is not None:
            key += f"|fm={self.fault_model}"
        return key


@dataclass(frozen=True)
class ShardTask:
    """A contiguous chunk of one cell's trials — the unit of work and resume."""

    cell: CampaignCell
    shard_index: int
    start_trial: int
    n_trials: int
    campaign_seed: int
    backend: Optional[str] = None  # resolves to DEFAULT_BACKEND when unset
    #: Estimator grammar string (canonical form) governing how this shard's
    #: trials are drawn and weighted; unset means the uniform path.
    estimator: Optional[str] = None
    #: Stratified runs only: trials-per-stratum split of the enclosing block.
    allocation: Optional[Tuple[int, ...]] = None
    #: Stratified runs only: absolute trial index where the block holding
    #: this shard starts — ``start_trial - block_start`` maps each trial onto
    #: its stratum via the cumulative allocation, independent of shard size.
    block_start: int = 0

    def __post_init__(self) -> None:
        if self.n_trials <= 0:
            raise EvaluationError("a shard must contain at least one trial")
        if self.start_trial < 0 or self.shard_index < 0:
            raise EvaluationError("shard indices must be non-negative")
        object.__setattr__(self, "backend", _resolve_backend(self.backend))
        object.__setattr__(
            self, "estimator", _canonical_estimator(self.estimator, "ShardTask")
        )
        if self.allocation is not None:
            allocation = tuple(int(v) for v in self.allocation)
            if any(v < 0 for v in allocation):
                raise EvaluationError("stratum allocations must be non-negative")
            object.__setattr__(self, "allocation", allocation)
        if self.block_start < 0:
            raise EvaluationError("block_start must be non-negative")

    @property
    def trial_indices(self) -> range:
        return range(self.start_trial, self.start_trial + self.n_trials)


def _lowered(values: Union[str, Iterable[str]]) -> Tuple[str, ...]:
    if isinstance(values, str):
        values = (values,)
    # Order-preserving dedup: duplicate grid entries would produce cells with
    # identical keys, double-counting the very same seeded trials.
    return tuple(dict.fromkeys(v.strip().lower() for v in values))


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one fault-injection campaign."""

    workloads: Tuple[str, ...]
    schemes: Tuple[str, ...] = CAMPAIGN_SCHEMES
    technologies: Tuple[str, ...] = ("stt",)
    gate_error_rates: Tuple[float, ...] = (1e-4, 1e-3, 1e-2)
    memory_error_rate: float = 0.0
    trials: int = 1000
    seed: int = 0
    shard_size: int = 250
    multi_output: bool = True
    #: How the trials run, not what they are: every backend gives
    #: byte-identical results, so the backend stays out of
    #: :meth:`spec_hash`.  Resolves to ``DEFAULT_BACKEND`` when unset.
    backend: Optional[str] = None
    name: str = "campaign"
    #: When set, every trial injects exactly this many simultaneous flips at
    #: uniformly drawn fault sites (deterministic k-flip plans drawn from
    #: the trial's plan stream) instead of the stochastic rate model; the
    #: gate/memory error rates then only label the grid cell.
    faults_per_trial: Optional[int] = None
    #: Declarative fault model (``kind[:key=value,...]`` grammar, see
    #: :func:`repro.pim.faults.parse_fault_model`): ``burst:length=3`` /
    #: ``stuck-at:cells=4+17,value=1`` / ``stochastic:preset=1e-4`` ...
    #: Rates the string leaves unset inherit each grid cell's swept
    #: gate/memory rates.  Unset means the stochastic model at the cell's
    #: rates — and, like ``faults_per_trial``, the field is omitted from the
    #: canonical dict when unset.  Every fault source is byte-identical
    #: across backends.
    fault_model: Optional[str] = None
    #: Rare-event estimator (``kind[:key=value,...]`` grammar, see
    #: :func:`repro.campaign.adaptive.parse_estimator`): ``uniform`` /
    #: ``importance:rate=1e-3`` / ``stratified:k_max=3,allocation=neyman``.
    #: Unset means the uniform Monte-Carlo estimator — and the field is
    #: omitted from the canonical dict when unset.
    estimator: Optional[str] = None
    #: Application-level scoring (:mod:`repro.campaign.application`): when
    #: truthy, every workload must carry an integer-oracle adapter (mlp16 /
    #: fft4) and each shard additionally reports argmax-flip and output
    #: bit-error counters.  Normalised to ``True``/``None`` and — like
    #: ``fault_model`` / ``estimator`` — omitted from the canonical dict
    #: when unset.
    application: Optional[bool] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", _lowered(self.workloads))
        object.__setattr__(self, "schemes", _lowered(self.schemes))
        object.__setattr__(self, "technologies", _lowered(self.technologies))
        object.__setattr__(self, "backend", _resolve_backend(self.backend))
        # Coerce numeric fields (a JSON spec file may carry "100" for 100);
        # coercion also keeps spec_hash() canonical, so an int-seed spec and
        # its string-seed twin resume each other's checkpoints.
        try:
            object.__setattr__(
                self,
                "gate_error_rates",
                tuple(dict.fromkeys(float(r) for r in self.gate_error_rates)),
            )
            object.__setattr__(self, "memory_error_rate", float(self.memory_error_rate))
            for field_name in ("trials", "seed", "shard_size"):
                object.__setattr__(self, field_name, int(getattr(self, field_name)))
            if self.faults_per_trial is not None:
                object.__setattr__(self, "faults_per_trial", int(self.faults_per_trial))
        except (TypeError, ValueError) as error:
            raise EvaluationError(f"malformed campaign spec value: {error}") from None
        if self.faults_per_trial is not None and self.faults_per_trial < 1:
            raise EvaluationError("faults_per_trial must be >= 1 when set")
        object.__setattr__(
            self, "fault_model", _canonical_fault_model(self.fault_model, "CampaignSpec")
        )
        if self.fault_model is not None and self.faults_per_trial is not None:
            raise EvaluationError(
                "a campaign takes one fault source: fault_model and "
                "faults_per_trial are exclusive"
            )
        object.__setattr__(
            self, "estimator", _canonical_estimator(self.estimator, "CampaignSpec")
        )
        object.__setattr__(self, "application", True if self.application else None)
        if self.application and self.estimator is not None:
            # Estimator shards reweight/stratify the base counters; the
            # application counters carry no likelihood ratios, so a weighted
            # campaign would silently mix estimands.
            raise EvaluationError(
                "application metrics and rare-event estimators are exclusive: "
                "application counters are plain per-trial sums and carry no "
                "importance weights"
            )
        if self.estimator is not None and not self.estimator.startswith("uniform"):
            # Tilting and stratification reweight the stochastic gate-rate
            # model: exactly one Bernoulli draw per enumerated site
            # per trial.  Alternative fault sources and memory-cell draws
            # would break the likelihood-ratio / strata arithmetic.
            if self.fault_model is not None or self.faults_per_trial is not None:
                raise EvaluationError(
                    "importance/stratified estimators require the stochastic "
                    "gate-rate fault source (no fault_model / faults_per_trial)"
                )
            if self.memory_error_rate != 0.0:
                raise EvaluationError(
                    "importance/stratified estimators require memory_error_rate == 0"
                )
        if not self.workloads:
            raise EvaluationError("a campaign needs at least one workload")
        if self.application:
            from repro.campaign.application import get_application_workload

            for workload in self.workloads:
                get_application_workload(workload)
        if not self.schemes or not self.technologies or not self.gate_error_rates:
            raise EvaluationError("schemes, technologies and gate_error_rates must be non-empty")
        for scheme in self.schemes:
            if scheme not in CAMPAIGN_SCHEMES:
                raise EvaluationError(
                    f"unknown scheme {scheme!r}; expected a subset of {CAMPAIGN_SCHEMES}"
                )
        for rate in self.gate_error_rates:
            if not 0.0 <= rate <= 1.0:
                raise EvaluationError(f"gate error rates must be probabilities, got {rate}")
        if not 0.0 <= self.memory_error_rate <= 1.0:
            raise EvaluationError("memory_error_rate must be a probability")
        if self.trials <= 0:
            raise EvaluationError("trials must be positive")
        if self.shard_size <= 0:
            raise EvaluationError("shard_size must be positive")

    # ------------------------------------------------------------------ #
    # Grid expansion
    # ------------------------------------------------------------------ #
    def cells(self) -> List[CampaignCell]:
        """Expand the grid in deterministic (workload, scheme, tech, rate) order."""
        return [
            CampaignCell(
                workload=workload,
                scheme=scheme,
                technology=technology,
                gate_error_rate=rate,
                memory_error_rate=self.memory_error_rate,
                multi_output=self.multi_output,
                faults_per_trial=self.faults_per_trial,
                fault_model=self.fault_model,
                application=bool(self.application),
            )
            for workload in self.workloads
            for scheme in self.schemes
            for technology in self.technologies
            for rate in self.gate_error_rates
        ]

    def shards_per_cell(self) -> int:
        return -(-self.trials // self.shard_size)

    def shards(self) -> List[ShardTask]:
        """Every cell's trial range cut into ``shard_size`` chunks.

        The partitioning depends only on the spec — never on worker count —
        so a checkpoint written by an 8-worker run resumes cleanly under 1.
        """
        tasks: List[ShardTask] = []
        for cell in self.cells():
            for shard_index in range(self.shards_per_cell()):
                start = shard_index * self.shard_size
                tasks.append(
                    ShardTask(
                        cell=cell,
                        shard_index=shard_index,
                        start_trial=start,
                        n_trials=min(self.shard_size, self.trials - start),
                        campaign_seed=self.seed,
                        backend=self.backend,
                        estimator=self.estimator,
                    )
                )
        return tasks

    @property
    def total_trials(self) -> int:
        return self.trials * len(self.cells())

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        data = self._fields_dict()
        # The RNG contract version is part of every spec's identity (and
        # hence its hash): results under another contract never resume.
        data["rng_contract"] = RNG_CONTRACT
        return data

    def _fields_dict(self) -> Dict[str, object]:
        data = asdict(self)
        for key in ("workloads", "schemes", "technologies", "gate_error_rates"):
            data[key] = list(data[key])
        # Optional fields serialise only when set, which also keeps the
        # contract-1 hashes (spec_hashes_v1) reproducible.
        if data.get("faults_per_trial") is None:
            data.pop("faults_per_trial", None)
        if data.get("fault_model") is None:
            data.pop("fault_model", None)
        if data.get("estimator") is None:
            data.pop("estimator", None)
        if data.get("application") is None:
            data.pop("application", None)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignSpec":
        data = dict(data)
        contract = data.pop("rng_contract", RNG_CONTRACT)
        if contract != RNG_CONTRACT:
            raise EvaluationError(
                f"campaign spec uses RNG contract {contract!r}; this version only "
                f"runs contract {RNG_CONTRACT}. Results recorded under an older "
                "contract stay queryable: load their checkpoint with "
                "`repro store ingest` and read them with `repro query`"
            )
        known = {f for f in cls.__dataclass_fields__}  # noqa: C401 - tiny
        unknown = set(data) - known
        if unknown:
            raise EvaluationError(f"unknown campaign spec fields: {sorted(unknown)}")
        if "workloads" not in data:
            raise EvaluationError("campaign spec must name at least one workload")
        return cls(**{k: (tuple(v) if isinstance(v, list) else v) for k, v in data.items()})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    def spec_hash(self) -> str:
        """Digest of the semantic content — the resume-compatibility key.

        Checkpoint records tagged with a different hash are ignored on load:
        changing any field that affects trial outcomes or shard boundaries
        (including the seed and the RNG contract version) makes old shard
        results unusable, and the hash is how the store knows.  The
        cosmetic ``name`` is excluded, and so is the ``backend``: every
        backend runs the same trials, so a checkpoint resumes on any of
        them and the store counts each trial once.
        """
        return _hash(self.to_dict())

    def resume_hashes(self) -> Tuple[str, ...]:
        """Every hash this campaign's records are filed under: ``spec_hash()``
        first, then the hashes a ``batched`` and a ``bitpacked`` run filed
        them under before the backend left the hash.  Their results are
        byte-identical, so resume and ``store ingest --spec`` take all
        three."""
        return _backend_hashes(self.to_dict())

    def spec_hashes_v1(self) -> Tuple[str, ...]:
        """The hashes this spec had under RNG contract 1 (no contract field),
        one per backend: what a checkpoint written before the v2 break files
        its records under, so a resume can recognise and refuse them."""
        return _backend_hashes(self._fields_dict())


def _hash(data: Dict[str, object]) -> str:
    data = {key: value for key, value in data.items() if key not in ("name", "backend")}
    canonical = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _backend_hashes(data: Dict[str, object]) -> Tuple[str, ...]:
    """The hashes ``data`` had per backend while the backend was part of a
    spec's identity: a non-scalar spec hashed it under an ``engine`` key, a
    scalar one left it out.  The names are frozen here rather than read from
    ``BACKEND_NAMES``, so a checkpoint outlives its backend's registration."""
    return tuple(
        _hash(data if backend == "scalar" else {**data, "engine": backend})
        for backend in ("scalar", "batched", "bitpacked")
    )
