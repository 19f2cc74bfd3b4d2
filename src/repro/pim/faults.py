"""Fault models and injectors for nonvolatile PiM.

The paper distinguishes (Section II-C):

* **memory errors** — the conventional storage errors PiM inherits from the
  underlying NVM substrate (retention failures, read disturb, resistance
  drift...).  They manifest as single bit flips of idle cells.
* **logic errors** — errors induced by the in-array computation itself: the
  output cell of a gate fails to switch when it should, or switches when it
  should not.  They also manifest as single bit flips, but on *freshly
  produced* gate outputs, and can propagate through subsequent gates before a
  periodic memory-ECC scrub would ever notice them.

Following the paper's error model ("errors in Boolean gate operations are
uniformly distributed in each PiM array throughout row-parallel
computation"), the stochastic injector flips each gate output independently
with probability ``gate_error_rate`` and each idle cell per read/scrub window
with probability ``memory_error_rate``.  A deterministic injector targets a
specific operation index / cell for the exhaustive SEP case analysis of
Fig. 6, and a correlation-aware injector models the spatially / temporally
correlated bursts discussed in Section IV-E.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import PimError

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultModel",
    "FaultModelSpec",
    "FAULT_MODEL_KINDS",
    "parse_fault_model",
    "FaultInjector",
    "NoFaultInjector",
    "StochasticFaultInjector",
    "DeterministicFaultInjector",
    "BurstFaultInjector",
    "StuckAtFaultInjector",
    "FaultLog",
    "ScheduledFaultInjector",
    "SeedLike",
    "normalize_flip_positions",
    "resolve_rng",
]

#: Anything the stochastic injectors accept as their randomness source: a
#: plain seed, a pre-built generator (shared streams / campaign shards), or
#: ``None`` for OS entropy.
SeedLike = Union[int, random.Random, None]


def resolve_rng(seed: SeedLike) -> random.Random:
    """Turn a seed-or-generator into a private :class:`random.Random`.

    Stochastic injectors never touch the module-global ``random`` state:
    every injector owns (or is handed) an explicit generator, which is what
    makes campaign trials reproducible and shard-independent.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is not None and not isinstance(seed, int):
        raise PimError(f"seed must be an int, random.Random or None, got {seed!r}")
    return random.Random(seed)


def normalize_flip_positions(positions: object) -> frozenset:
    """Canonicalise one fault-plan entry value to a set of output positions.

    A deterministic fault plan maps a gate-operation index to either a single
    zero-based output position (the historical single-fault form) or an
    iterable of positions (the k-flip form).  Both the scalar injector and
    the batched interpreter normalise through here, so a duplicate position
    means one flip — never an XOR-twice no-op — on every backend.
    """
    if isinstance(positions, int):
        return frozenset((positions,))
    try:
        return frozenset(int(p) for p in positions)
    except TypeError:
        # Anything non-iterable that also is not an int (numpy integers land
        # in the int() branch below).
        return frozenset((int(positions),))


class FaultKind:
    """Categories of injected faults."""

    LOGIC = "logic"          # direct error on a gate output
    MEMORY = "memory"        # idle-cell storage error
    PRESET = "preset"        # erroneous preset before a gate fires
    METADATA = "metadata"    # error landing on a parity / redundant-copy cell
    STUCK_AT = "stuck-at"    # permanent (hard) fault

    ALL = (LOGIC, MEMORY, PRESET, METADATA, STUCK_AT)


@dataclass(frozen=True)
class FaultEvent:
    """Record of one injected fault.

    ``site`` identifies the victim cell as ``(array, row, column)``;
    ``operation_index`` is the global index of the gate operation during
    which the fault was injected (``None`` for pure memory errors);
    ``original`` / ``flipped`` give the before/after bit values.
    """

    kind: str
    site: Tuple[int, int, int]
    operation_index: Optional[int]
    original: int
    flipped: int

    def __post_init__(self) -> None:
        if self.kind not in FaultKind.ALL:
            raise PimError(f"unknown fault kind: {self.kind!r}")


@dataclass
class FaultLog:
    """Accumulates every :class:`FaultEvent` injected during a run."""

    events: List[FaultEvent] = field(default_factory=list)

    def record(self, event: FaultEvent) -> None:
        self.events.append(event)

    def count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self.events)
        return sum(1 for e in self.events if e.kind == kind)

    def sites(self) -> List[Tuple[int, int, int]]:
        return [e.site for e in self.events]

    def clear(self) -> None:
        self.events.clear()


@dataclass(frozen=True)
class FaultModel:
    """Error-rate configuration shared by the stochastic injectors.

    Rates are per-event probabilities: ``gate_error_rate`` applies once per
    gate output produced, ``memory_error_rate`` once per idle cell per
    scrub/read window, ``preset_error_rate`` once per preset operation.
    ``metadata_error_rate`` defaults to the gate error rate because metadata
    is produced by the very same in-array gates.
    """

    gate_error_rate: float = 0.0
    memory_error_rate: float = 0.0
    preset_error_rate: float = 0.0
    metadata_error_rate: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("gate_error_rate", "memory_error_rate", "preset_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise PimError(f"{name} must be a probability, got {rate}")
        if self.metadata_error_rate is not None and not 0.0 <= self.metadata_error_rate <= 1.0:
            raise PimError("metadata_error_rate must be a probability")

    @property
    def effective_metadata_error_rate(self) -> float:
        if self.metadata_error_rate is None:
            return self.gate_error_rate
        return self.metadata_error_rate

    @property
    def is_error_free(self) -> bool:
        return (
            self.gate_error_rate == 0.0
            and self.memory_error_rate == 0.0
            and self.preset_error_rate == 0.0
            and (self.metadata_error_rate in (None, 0.0))
        )


#: Declarative fault-model kinds the unified fault-model layer names.  The
#: fourth model of the differential test matrix — the deterministic per-trial
#: ``fault_plan`` — is per-trial *data* rather than a model, and travels
#: through the backends' ``fault_plan`` argument instead.
FAULT_MODEL_KINDS = ("stochastic", "burst", "stuck-at")

#: Accepted spellings per canonical kind (CLI / spec-file convenience).
_KIND_ALIASES = {
    "stochastic": "stochastic",
    "burst": "burst",
    "stuck-at": "stuck-at",
    "stuckat": "stuck-at",
    "stuck_at": "stuck-at",
}


def _validate_optional_rate(name: str, rate: Optional[float]) -> Optional[float]:
    if rate is None:
        return None
    rate = float(rate)
    if not 0.0 <= rate <= 1.0:
        raise PimError(f"{name} must be a probability, got {rate}")
    return rate


@dataclass(frozen=True)
class FaultModelSpec:
    """Declarative description of one fault model, shared by both backends.

    Where :class:`FaultModel` is the rate configuration of the *stochastic*
    injector alone, a spec names the model **kind** and carries every knob the
    corresponding scalar injector class takes — it is the serialisable form
    the campaign grid, the CLI (``--fault-model``) and the differential test
    harness all speak:

    * ``stochastic`` — independent Bernoulli flips
      (:class:`StochasticFaultInjector`): ``gate_error_rate``,
      ``memory_error_rate``, ``preset_error_rate``, ``metadata_error_rate``.
    * ``burst`` — spatially/temporally correlated bursts
      (:class:`BurstFaultInjector`): ``gate_error_rate`` (the burst trigger),
      ``memory_error_rate``, ``burst_length``, ``correlation_window``.
      Presets are never corrupted and metadata outputs share the gate rate,
      exactly like the scalar injector.
    * ``stuck-at`` — permanent (hard) faults (:class:`StuckAtFaultInjector`):
      ``stuck_columns`` (cell columns of the execution row) all stuck at
      ``stuck_polarity``.  Purely deterministic — no rates, no stream.

    Rates left as ``None`` mean "inherit from the surrounding grid cell":
    :meth:`resolved` fills them in from a campaign cell's swept rates.  A
    spec that reaches a backend with still-``None`` rates reads them as
    ``0.0`` (:meth:`rate_model`) — with the one :class:`FaultModel`
    exception that a ``None`` *metadata* rate inherits the gate rate, on
    both backends alike.  Passing a trial stream alongside such an
    error-free spec is rejected, so an unresolved model can never
    masquerade as 100% coverage.

    Equivalence contract: every backend draws a batch's stochastic and
    burst faults from one precomputed schedule
    (:func:`repro.core.rng.fault_schedule`), so trial outcomes are
    **byte-identical** across backends — the property
    ``tests/differential`` enforces for every kind.
    """

    kind: str = "stochastic"
    gate_error_rate: Optional[float] = None
    memory_error_rate: Optional[float] = None
    preset_error_rate: Optional[float] = None
    metadata_error_rate: Optional[float] = None
    burst_length: int = 2
    correlation_window: int = 4
    stuck_polarity: int = 0
    stuck_columns: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        kind = _KIND_ALIASES.get(str(self.kind).strip().lower())
        if kind is None:
            raise PimError(
                f"unknown fault-model kind {self.kind!r}; "
                f"expected one of {FAULT_MODEL_KINDS}"
            )
        object.__setattr__(self, "kind", kind)
        for name in (
            "gate_error_rate",
            "memory_error_rate",
            "preset_error_rate",
            "metadata_error_rate",
        ):
            object.__setattr__(self, name, _validate_optional_rate(name, getattr(self, name)))
        object.__setattr__(self, "burst_length", int(self.burst_length))
        object.__setattr__(self, "correlation_window", int(self.correlation_window))
        if self.burst_length < 1:
            raise PimError("burst_length must be >= 1")
        if self.correlation_window < 1:
            raise PimError("correlation_window must be >= 1")
        if self.stuck_polarity not in (0, 1):
            raise PimError(f"stuck_polarity must be a bit, got {self.stuck_polarity!r}")
        columns = tuple(sorted({int(c) for c in self.stuck_columns}))
        if any(c < 0 for c in columns):
            raise PimError("stuck_columns must be non-negative column indices")
        object.__setattr__(self, "stuck_columns", columns)
        if self.kind == "stuck-at":
            if not columns:
                raise PimError("a stuck-at model needs at least one stuck column")
            if any(
                rate not in (None, 0.0)
                for rate in (
                    self.gate_error_rate,
                    self.memory_error_rate,
                    self.preset_error_rate,
                    self.metadata_error_rate,
                )
            ):
                raise PimError(
                    "stuck-at models are purely deterministic; error rates "
                    "belong to the stochastic and burst kinds"
                )
        else:
            if columns:
                raise PimError("stuck_columns only apply to the stuck-at kind")
        if self.kind == "burst" and any(
            rate not in (None, 0.0)
            for rate in (self.preset_error_rate, self.metadata_error_rate)
        ):
            raise PimError(
                "the burst injector never corrupts presets and folds metadata "
                "into the gate rate; preset/metadata rates only apply to the "
                "stochastic kind"
            )
        if self.kind != "burst" and (self.burst_length, self.correlation_window) != (2, 4):
            # Reject rather than silently drop: a typo'd kind must not turn a
            # burst configuration into independent flips.
            raise PimError("burst_length/correlation_window only apply to the burst kind")
        if self.kind != "stuck-at" and self.stuck_polarity != 0:
            raise PimError("stuck_polarity only applies to the stuck-at kind")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def stochastic(
        cls,
        gate_error_rate: Optional[float] = None,
        memory_error_rate: Optional[float] = None,
        preset_error_rate: Optional[float] = None,
        metadata_error_rate: Optional[float] = None,
    ) -> "FaultModelSpec":
        return cls(
            kind="stochastic",
            gate_error_rate=gate_error_rate,
            memory_error_rate=memory_error_rate,
            preset_error_rate=preset_error_rate,
            metadata_error_rate=metadata_error_rate,
        )

    @classmethod
    def burst(
        cls,
        burst_length: int = 2,
        correlation_window: int = 4,
        gate_error_rate: Optional[float] = None,
        memory_error_rate: Optional[float] = None,
    ) -> "FaultModelSpec":
        return cls(
            kind="burst",
            burst_length=burst_length,
            correlation_window=correlation_window,
            gate_error_rate=gate_error_rate,
            memory_error_rate=memory_error_rate,
        )

    @classmethod
    def stuck_at(cls, stuck_columns: Iterable[int], stuck_polarity: int = 0) -> "FaultModelSpec":
        return cls(
            kind="stuck-at",
            stuck_columns=tuple(stuck_columns),
            stuck_polarity=stuck_polarity,
        )

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @property
    def needs_stream(self) -> bool:
        """Whether trials under this model draw from a trial stream."""
        return self.kind in ("stochastic", "burst") and not self.is_error_free

    @property
    def is_error_free(self) -> bool:
        if self.kind == "stuck-at":
            return not self.stuck_columns
        return all(
            rate in (None, 0.0)
            for rate in (
                self.gate_error_rate,
                self.memory_error_rate,
                self.preset_error_rate,
                self.metadata_error_rate,
            )
        )

    def resolved(self, gate_error_rate: float = 0.0, memory_error_rate: float = 0.0) -> "FaultModelSpec":
        """Fill unset (inherited) rates from the surrounding grid cell."""
        if self.kind == "stuck-at":
            return self
        updates = {}
        if self.gate_error_rate is None:
            updates["gate_error_rate"] = float(gate_error_rate)
        if self.memory_error_rate is None:
            updates["memory_error_rate"] = float(memory_error_rate)
        return replace(self, **updates) if updates else self

    def rate_model(self) -> FaultModel:
        """The spec's Bernoulli rates as a plain :class:`FaultModel` — the
        batched interpreter's draw schedule.  ``None`` gate/memory/preset
        rates read as 0.0; a ``None`` metadata rate is passed through, where
        :class:`FaultModel` makes it inherit the gate rate (the scalar
        injector's semantics, which batched must mirror byte-for-byte)."""
        return FaultModel(
            gate_error_rate=self.gate_error_rate or 0.0,
            memory_error_rate=self.memory_error_rate or 0.0,
            preset_error_rate=self.preset_error_rate or 0.0,
            metadata_error_rate=self.metadata_error_rate,
        )

    def stuck_cells(self, array_id: int = 0, row: int = 0) -> Dict[Tuple[int, int, int], int]:
        """The stuck column set as the scalar injector's site→value map."""
        return {(array_id, row, column): self.stuck_polarity for column in self.stuck_columns}

    def validate_columns(self, n_cols: int, layout: str = "execution") -> None:
        """Reject stuck columns outside the ``n_cols``-wide row layout.

        Both backends funnel through here (the scalar backend against its
        executor's array width, the batched interpreter against the plan
        width), so a fault model naming a cell the execution never touches
        fails fast identically everywhere instead of silently injecting
        nothing — which would masquerade as fault-free coverage.
        """
        if self.stuck_columns and self.stuck_columns[-1] >= n_cols:
            raise PimError(
                f"stuck column {self.stuck_columns[-1]} outside the "
                f"{layout}'s {n_cols} columns"
            )

    # ------------------------------------------------------------------ #
    # Serialisation (campaign spec field / CLI flag)
    # ------------------------------------------------------------------ #
    def to_string(self) -> str:
        """Canonical ``kind:key=value,...`` form (parse → to_string is a
        fixed point, so equivalent spellings hash identically in campaign
        specs)."""
        params: List[str] = []
        if self.kind in ("stochastic", "burst"):
            for key, rate in (
                ("gate", self.gate_error_rate),
                ("memory", self.memory_error_rate),
                ("preset", self.preset_error_rate),
                ("metadata", self.metadata_error_rate),
            ):
                if rate is not None:
                    # repr() is the shortest round-trip float form: the
                    # canonical string re-parses to the exact same rate (%g
                    # would silently round to 6 significant digits).
                    params.append(f"{key}={rate!r}")
        if self.kind == "burst":
            params.append(f"length={self.burst_length}")
            params.append(f"window={self.correlation_window}")
        if self.kind == "stuck-at":
            params.append("cells=" + "+".join(str(c) for c in self.stuck_columns))
            params.append(f"value={self.stuck_polarity}")
        return self.kind if not params else f"{self.kind}:{','.join(params)}"

    @classmethod
    def from_string(cls, text: str) -> "FaultModelSpec":
        return parse_fault_model(text)


#: ``parse_fault_model`` key → FaultModelSpec field, per kind.
_PARAM_FIELDS = {
    "gate": "gate_error_rate",
    "rate": "gate_error_rate",  # burst-trigger alias: burst:rate=1e-3
    "memory": "memory_error_rate",
    "preset": "preset_error_rate",
    "metadata": "metadata_error_rate",
    "length": "burst_length",
    "window": "correlation_window",
    "value": "stuck_polarity",
    "polarity": "stuck_polarity",
    "cells": "stuck_columns",
}

#: Keys each kind accepts.  A key outside its kind is rejected rather than
#: silently dropped — a typo'd kind must not quietly change the model (e.g.
#: ``stochastic:length=5`` running independent flips where the user meant a
#: burst).
_KIND_PARAMS = {
    "stochastic": frozenset({"gate", "rate", "memory", "preset", "metadata"}),
    "burst": frozenset({"gate", "rate", "memory", "length", "window"}),
    "stuck-at": frozenset({"cells", "value", "polarity"}),
}


def parse_fault_model(text: str) -> FaultModelSpec:
    """Parse the CLI / spec-file grammar ``kind[:key=value,...]``.

    Examples: ``stochastic``, ``stochastic:gate=1e-3,memory=1e-4``,
    ``burst:length=3,window=6,rate=1e-3``, ``stuck-at:cells=4+17,value=1``.
    Stuck columns are ``+``-separated.  Unknown kinds and keys fail fast.
    """
    if isinstance(text, FaultModelSpec):
        return text
    text = str(text).strip()
    if not text:
        raise PimError("empty fault-model description")
    kind, _, params_text = text.partition(":")
    canonical_kind = _KIND_ALIASES.get(kind.strip().lower())
    if canonical_kind is None:
        raise PimError(
            f"unknown fault-model kind {kind!r}; expected one of {FAULT_MODEL_KINDS}"
        )
    allowed = _KIND_PARAMS[canonical_kind]
    fields: Dict[str, object] = {"kind": canonical_kind}
    if params_text.strip():
        for item in params_text.split(","):
            key, separator, value = item.partition("=")
            key = key.strip().lower()
            if not separator or key not in _PARAM_FIELDS:
                raise PimError(
                    f"malformed fault-model parameter {item!r}; "
                    f"expected key=value with key in {sorted(set(_PARAM_FIELDS))}"
                )
            if key not in allowed:
                raise PimError(
                    f"fault-model parameter {key!r} does not apply to the "
                    f"{canonical_kind!r} kind (accepted: {sorted(allowed)})"
                )
            field_name = _PARAM_FIELDS[key]
            if field_name in fields:
                # Reject rather than last-wins: duplicates and colliding
                # aliases (rate/gate, value/polarity) must not silently
                # discard one of the user's values.
                raise PimError(
                    f"fault-model parameter {key!r} assigns {field_name} twice"
                )
            value = value.strip()
            try:
                if field_name == "stuck_columns":
                    fields[field_name] = tuple(int(c) for c in value.split("+") if c)
                elif field_name in ("burst_length", "correlation_window", "stuck_polarity"):
                    fields[field_name] = int(value)
                else:
                    fields[field_name] = float(value)
            except ValueError:
                raise PimError(f"malformed fault-model value {item!r}") from None
    try:
        return FaultModelSpec(**fields)
    except TypeError as error:  # pragma: no cover - defensive
        raise PimError(f"malformed fault-model {text!r}: {error}") from None


class FaultInjector:
    """Interface every injector implements.

    The behavioural array calls :meth:`corrupt_gate_output` right after it
    evaluates a gate (once per produced output bit) and
    :meth:`corrupt_stored_bit` when modelling idle-cell decay between
    logic levels.  Both return the possibly-flipped bit value and log a
    :class:`FaultEvent` when they flip.
    """

    def __init__(self, log: Optional[FaultLog] = None) -> None:
        self.log = log if log is not None else FaultLog()

    def corrupt_gate_output(
        self,
        value: int,
        site: Tuple[int, int, int],
        operation_index: int,
        is_metadata: bool = False,
    ) -> int:
        raise NotImplementedError

    def corrupt_stored_bit(self, value: int, site: Tuple[int, int, int]) -> int:
        raise NotImplementedError

    def corrupt_preset(
        self, value: int, site: Tuple[int, int, int], operation_index: int
    ) -> int:
        """Default: presets are not corrupted; subclasses may override."""
        return value

    def _flip(
        self,
        kind: str,
        value: int,
        site: Tuple[int, int, int],
        operation_index: Optional[int],
    ) -> int:
        flipped = value ^ 1
        self.log.record(
            FaultEvent(
                kind=kind,
                site=site,
                operation_index=operation_index,
                original=value,
                flipped=flipped,
            )
        )
        return flipped


class NoFaultInjector(FaultInjector):
    """Error-free execution (the functional-validation configuration)."""

    def corrupt_gate_output(self, value, site, operation_index, is_metadata=False):
        return value

    def corrupt_stored_bit(self, value, site):
        return value


class StochasticFaultInjector(FaultInjector):
    """Uniformly distributed, independent bit flips per the paper's model."""

    def __init__(
        self,
        model: FaultModel,
        seed: SeedLike = None,
        log: Optional[FaultLog] = None,
    ) -> None:
        super().__init__(log)
        self.model = model
        self._rng = resolve_rng(seed)

    def corrupt_gate_output(self, value, site, operation_index, is_metadata=False):
        rate = (
            self.model.effective_metadata_error_rate
            if is_metadata
            else self.model.gate_error_rate
        )
        if rate > 0.0 and self._rng.random() < rate:
            kind = FaultKind.METADATA if is_metadata else FaultKind.LOGIC
            return self._flip(kind, value, site, operation_index)
        return value

    def corrupt_stored_bit(self, value, site):
        if self.model.memory_error_rate > 0.0 and self._rng.random() < self.model.memory_error_rate:
            return self._flip(FaultKind.MEMORY, value, site, None)
        return value

    def corrupt_preset(self, value, site, operation_index):
        if self.model.preset_error_rate > 0.0 and self._rng.random() < self.model.preset_error_rate:
            return self._flip(FaultKind.PRESET, value, site, operation_index)
        return value


class ScheduledFaultInjector(FaultInjector):
    """Flips at precomputed per-class ordinals: the scalar consumer of a
    :class:`~repro.core.rng.FaultSchedule`.

    ``hits`` maps a fault class to the zero-based ordinals of the calls it
    flips, counted per class in execution order: ``gate`` and ``metadata``
    gate outputs, ``output`` (every gate output — the burst model's
    sites), ``preset`` (every preset, gate outputs' included) and
    ``memory`` (every checker read).  The injector draws nothing itself,
    so it flips exactly what the tape engines flip from the same schedule.
    """

    def __init__(self, hits: Dict[str, Iterable[int]], log: Optional[FaultLog] = None) -> None:
        super().__init__(log)
        ordinals = {name: frozenset(int(o) for o in values) for name, values in hits.items()}
        empty: frozenset = frozenset()
        self._gate_hits = ordinals.get("gate", empty)
        self._metadata_hits = ordinals.get("metadata", empty)
        self._output_hits = ordinals.get("output", empty)
        self._preset_hits = ordinals.get("preset", empty)
        self._memory_hits = ordinals.get("memory", empty)
        self._gates = self._metadata = self._outputs = self._presets = self._reads = 0

    def corrupt_gate_output(self, value, site, operation_index, is_metadata=False):
        output = self._outputs
        self._outputs = output + 1
        if is_metadata:
            ordinal = self._metadata
            self._metadata = ordinal + 1
            hit = ordinal in self._metadata_hits
        else:
            ordinal = self._gates
            self._gates = ordinal + 1
            hit = ordinal in self._gate_hits
        if hit or output in self._output_hits:
            kind = FaultKind.METADATA if is_metadata else FaultKind.LOGIC
            return self._flip(kind, value, site, operation_index)
        return value

    def corrupt_stored_bit(self, value, site):
        ordinal = self._reads
        self._reads = ordinal + 1
        if ordinal in self._memory_hits:
            return self._flip(FaultKind.MEMORY, value, site, None)
        return value

    def corrupt_preset(self, value, site, operation_index):
        ordinal = self._presets
        self._presets = ordinal + 1
        if ordinal in self._preset_hits:
            return self._flip(FaultKind.PRESET, value, site, operation_index)
        return value


class DeterministicFaultInjector(FaultInjector):
    """Flip exactly the requested fault sites — used by the Fig. 6 analysis.

    ``target_operations`` maps a global gate-operation index to the number of
    output bits of that operation to flip (normally 1, flipping the first
    output).  ``target_output_positions`` instead maps an operation index to
    the zero-based *position(s)* of the output cells to flip — a single int
    (the historical single-fault form) or an iterable of positions (the
    multi-fault form the exhaustive k-flip sweeps use; duplicates collapse to
    one flip).  This lets a sweep target, e.g., the redundant ``r_ij`` copy
    of a multi-output gate rather than its data output, or several output
    cells of the same firing at once.  ``target_cells`` is a collection of
    ``(array, row, column)`` sites whose stored value is flipped on the next
    touch (modelling a memory error at a known location).
    """

    def __init__(
        self,
        target_operations: Optional[Dict[int, int]] = None,
        target_cells: Optional[Iterable[Tuple[int, int, int]]] = None,
        target_output_positions: Optional[Dict[int, object]] = None,
        log: Optional[FaultLog] = None,
    ) -> None:
        super().__init__(log)
        self._targets = dict(target_operations or {})
        self._remaining = dict(self._targets)
        self._cells = set(target_cells or ())
        self._positions: Dict[int, frozenset] = {
            op: normalize_flip_positions(positions)
            for op, positions in (target_output_positions or {}).items()
        }
        self._seen_outputs: Dict[int, int] = {}

    def corrupt_gate_output(self, value, site, operation_index, is_metadata=False):
        kind = FaultKind.METADATA if is_metadata else FaultKind.LOGIC
        if operation_index in self._positions:
            position = self._seen_outputs.get(operation_index, 0)
            self._seen_outputs[operation_index] = position + 1
            if position in self._positions[operation_index]:
                return self._flip(kind, value, site, operation_index)
            return value
        remaining = self._remaining.get(operation_index, 0)
        if remaining > 0:
            self._remaining[operation_index] = remaining - 1
            return self._flip(kind, value, site, operation_index)
        return value

    def corrupt_stored_bit(self, value, site):
        if site in self._cells:
            self._cells.discard(site)
            return self._flip(FaultKind.MEMORY, value, site, None)
        return value

    @property
    def exhausted(self) -> bool:
        """True once every requested fault has been injected."""
        return not self._cells and all(v == 0 for v in self._remaining.values())


class BurstFaultInjector(FaultInjector):
    """Spatially / temporally correlated error bursts (Section IV-E).

    When the base stochastic draw fires, the injector flips not just the
    victim bit but also up to ``burst_length − 1`` of the next gate outputs
    produced within ``correlation_window`` operations — modelling, e.g., a
    shared-parameter disturbance affecting several back-to-back operations.
    """

    def __init__(
        self,
        model: FaultModel,
        burst_length: int = 2,
        correlation_window: int = 4,
        seed: SeedLike = None,
        log: Optional[FaultLog] = None,
    ) -> None:
        super().__init__(log)
        if burst_length < 1:
            raise PimError("burst_length must be >= 1")
        if correlation_window < 1:
            raise PimError("correlation_window must be >= 1")
        self.model = model
        self.burst_length = burst_length
        self.correlation_window = correlation_window
        self._rng = resolve_rng(seed)
        self._burst_remaining = 0
        self._burst_expires_at = -1

    def corrupt_gate_output(self, value, site, operation_index, is_metadata=False):
        if self._burst_remaining > 0 and operation_index <= self._burst_expires_at:
            self._burst_remaining -= 1
            kind = FaultKind.METADATA if is_metadata else FaultKind.LOGIC
            return self._flip(kind, value, site, operation_index)
        rate = self.model.gate_error_rate
        if rate > 0.0 and self._rng.random() < rate:
            self._burst_remaining = self.burst_length - 1
            self._burst_expires_at = operation_index + self.correlation_window
            kind = FaultKind.METADATA if is_metadata else FaultKind.LOGIC
            return self._flip(kind, value, site, operation_index)
        return value

    def corrupt_stored_bit(self, value, site):
        if self.model.memory_error_rate > 0.0 and self._rng.random() < self.model.memory_error_rate:
            return self._flip(FaultKind.MEMORY, value, site, None)
        return value


class StuckAtFaultInjector(FaultInjector):
    """Permanent (hard) faults: listed cells always read as the stuck value."""

    def __init__(
        self,
        stuck_cells: Dict[Tuple[int, int, int], int],
        log: Optional[FaultLog] = None,
    ) -> None:
        super().__init__(log)
        for site, value in stuck_cells.items():
            if value not in (0, 1):
                raise PimError(f"stuck-at value must be a bit, got {value} at {site}")
        self._stuck = dict(stuck_cells)

    def _apply(self, value: int, site: Tuple[int, int, int], op: Optional[int]) -> int:
        stuck = self._stuck.get(site)
        if stuck is not None and stuck != value:
            return self._flip(FaultKind.STUCK_AT, value, site, op)
        if stuck is not None:
            return stuck
        return value

    def corrupt_gate_output(self, value, site, operation_index, is_metadata=False):
        return self._apply(value, site, operation_index)

    def corrupt_stored_bit(self, value, site):
        return self._apply(value, site, None)
