"""Unified execution backends: one protocol over the scalar object model and
the batched tape interpreter.

Before this module, every consumer of netlist execution picked its engine by
construction: the exhaustive SEP sweep (:mod:`repro.core.sep`) and the
Monte-Carlo coverage loop (:mod:`repro.core.coverage`) built scalar
executors one trial at a time, while the ~200x batched tape interpreter
(:mod:`repro.core.batched`) was reachable only from the campaign worker.
:class:`ExecutionBackend` is the common substrate: a backend is bound to one
(netlist, scheme, gate style) configuration and runs *batches of trials* —
fault free, under deterministic per-trial fault plans, or under the
stochastic fault model — returning per-trial outcome vectors
(:class:`TrialOutcomes`) with the campaign's counter schema.

Three implementations:

* :class:`ScalarBackend` — wraps the executor object model
  (:class:`~repro.core.executor.EcimExecutor` and friends).  One executor is
  built per backend and reused across trials through the ``reset()`` fast
  path.
* :class:`BatchedBackend` — wraps the compiled instruction tape of
  :func:`~repro.core.batched.compile_plan` / ``run_batch``.  A whole trial
  batch is one numpy pass; deterministic fault plans map each batch row to a
  single ``{operation index: output position}`` flip, which is what lets the
  exhaustive single-fault sweep run with *fault site as the batch dimension*.
* :class:`BitpackedBackend` — the same tape lowered to structure-of-arrays
  form (:func:`~repro.core.soa.lower_plan`) and interpreted bit-sliced
  (:func:`~repro.core.bitpacked.run_packed`): each column's state is one
  Python ``int`` holding every trial of the batch, so each gate firing is a
  few big-int boolean ops over the whole batch.

Equivalence contract (enforced by ``tests/core/test_sep.py``,
``tests/core/test_backend.py`` and ``tests/differential/``): fault-free,
deterministic fault-plan and declarative ``fault_model`` executions —
stochastic and burst included — are exactly equal between all backends,
per trial and per site.  Stochastic faults come from one
:class:`~repro.core.rng.FaultSchedule` per batch, drawn from the batch's
:class:`~repro.core.rng.TrialStream` over the backend's
:class:`~repro.core.rng.FaultSites`, which every backend enumerates
identically.
"""

from __future__ import annotations

import abc
from collections import OrderedDict
from collections.abc import Mapping as AbstractMapping
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.batched import ExecutionPlan, GateStep, compile_plan, run_batch
from repro.core.bitpacked import run_packed
from repro.core.faultplan import FaultPlanArrays
from repro.core.executor import EXECUTORS_BY_SCHEME, ExecutionReport
from repro.core.rng import FaultSites, TrialStream, derive_seed, fault_schedule
from repro.core.soa import SoaPlan, lower_plan
from repro.errors import PimError, ProtectionError
from repro.pim.faults import (
    DeterministicFaultInjector,
    FaultModelSpec,
    NoFaultInjector,
    ScheduledFaultInjector,
    StuckAtFaultInjector,
)
from repro.pim.operations import NullTrace, OperationKind, OperationTrace
from repro.pim.technology import TechnologyParameters, get_technology

__all__ = [
    "BACKEND_NAMES",
    "FaultSite",
    "classify_outcome",
    "TrialOutcomes",
    "ExecutionBackend",
    "ScalarBackend",
    "BatchedBackend",
    "BitpackedBackend",
    "backend_class",
    "make_backend",
    "as_backend",
    "derive_seed",
]

#: A batch's input assignments: a ``(B, n_inputs)`` bit matrix (the tape
#: vocabulary), one ``{signal: bit}`` mapping per trial (the executor
#: vocabulary), or — the broadcast fast path — a *single* mapping shared by
#: every trial, with the batch size passed as ``run_trials(...,
#: n_trials=B)``.  Backends accept all three and convert; the broadcast
#: form never replicates the assignment per trial (the sweeps' hot path:
#: one exhaustive fault sweep reuses one input vector across every site
#: combination).
TrialInputs = Union[np.ndarray, Sequence[Mapping[int, int]], Mapping[int, int]]

#: One trial's deterministic fault plan: global gate-operation index to the
#: zero-based output position(s) to flip — a single int (the historical
#: single-fault form) or an iterable of positions (the k-flip form used by
#: the exhaustive multi-fault sweeps).  Both backends normalise through
#: :func:`repro.pim.faults.normalize_flip_positions`.  A whole batch of
#: plans may equivalently be passed as one CSR
#: :class:`~repro.core.faultplan.FaultPlanArrays` (the array-native form
#: the vectorized sweeps build), which every backend consumes without
#: per-trial Python work.
FaultPlanEntry = Mapping[int, object]

#: A batch's deterministic fault plans: one entry per trial, or the CSR
#: array form.
FaultPlans = Union[Sequence[FaultPlanEntry], FaultPlanArrays]


def classify_outcome(outputs_correct: bool, detected: bool) -> str:
    """The sweeps' three-way per-trial verdict, defined once for every
    consumer: ``corrected`` (final outputs correct), ``detected`` (wrong but
    some logic-level check fired) or ``silent`` (wrong and no check fired).
    """
    if outputs_correct:
        return "corrected"
    return "detected" if detected else "silent"


@dataclass(frozen=True)
class FaultSite:
    """One injectable fault site: a specific output cell of a gate firing.

    ``operation_index`` is the global in-array gate-operation index (shared
    verbatim between the scalar array and the compiled tape), and
    ``output_position`` the zero-based output cell within that firing — the
    pair both :class:`~repro.pim.faults.DeterministicFaultInjector` and the
    batched ``fault_plan`` target.
    """

    operation_index: int
    output_position: int
    gate: str
    is_metadata: bool
    logic_level: int
    column: int


@dataclass(eq=False, frozen=True)
class TrialOutcomes:
    """Per-trial outcome vectors of one backend batch (the protocol result).

    The scalar backend derives these from per-trial
    :class:`~repro.core.executor.ExecutionReport` objects; the batched
    backend from a :class:`~repro.core.batched.BatchResult`.  Either way the
    classification taxonomy is the campaign's four-way split.
    """

    outputs_correct: np.ndarray      # (B,) bool
    detected: np.ndarray             # (B,) bool — any logic-level check fired
    corrections: np.ndarray          # (B,) int64 — checker write-back count
    uncorrectable_levels: np.ndarray  # (B,) int64
    faults_injected: np.ndarray      # (B,) int64
    #: (B, n_outputs) uint8 final (possibly faulty) output bits in
    #: ``netlist.outputs`` order — populated only when the batch ran with
    #: ``capture_outputs=True`` (the application-metric layer's hook), None
    #: otherwise so counter-only consumers pay nothing.
    outputs: Optional[np.ndarray] = None

    @property
    def n_trials(self) -> int:
        return int(self.outputs_correct.shape[0])

    def __getitem__(self, rows) -> "TrialOutcomes":
        """The same outcomes over a subset of this batch's trials."""
        return TrialOutcomes(
            outputs_correct=self.outputs_correct[rows],
            detected=self.detected[rows],
            corrections=self.corrections[rows],
            uncorrectable_levels=self.uncorrectable_levels[rows],
            faults_injected=self.faults_injected[rows],
            outputs=None if self.outputs is None else self.outputs[rows],
        )

    def classification(self, trial: int) -> str:
        """The SEP sweep's three-way per-trial verdict (see
        :func:`classify_outcome`)."""
        return classify_outcome(
            bool(self.outputs_correct[trial]), bool(self.detected[trial])
        )

    def classifications(self) -> List[str]:
        return [self.classification(trial) for trial in range(self.n_trials)]

    def counts(self) -> Dict[str, int]:
        """Summed outcome counters, schema-identical to
        ``repro.campaign.aggregate.COUNT_KEYS`` (kept import-free to preserve
        the core -> campaign layering)."""
        correct = self.outputs_correct
        detected = self.detected
        return {
            "trials": self.n_trials,
            "correct": int(correct.sum()),
            "clean": int((correct & ~detected).sum()),
            "recovered": int((correct & detected).sum()),
            "detected": int(detected.sum()),
            "detected_corruption": int((~correct & detected).sum()),
            "silent_corruption": int((~correct & ~detected).sum()),
            "corrections": int(self.corrections.sum()),
            "uncorrectable_levels": int(self.uncorrectable_levels.sum()),
            "faults_injected": int(self.faults_injected.sum()),
            "faulty_trials": int((self.faults_injected > 0).sum()),
        }


class ExecutionBackend(abc.ABC):
    """Protocol every execution engine implements.

    A backend is bound to one (netlist, scheme, gate-style) configuration at
    construction; :meth:`run_trials` then executes whole batches of trials
    against it.  At most one fault source is active per batch:

    * a deterministic ``fault_plan`` (one ``{op index: output position(s)}``
      mapping per trial — single-int values for the classic single-fault
      sweep, position lists for k simultaneous flips);
    * a declarative ``fault_model``
      (:class:`~repro.pim.faults.FaultModelSpec`: stochastic, burst or
      stuck-at), with a :class:`~repro.core.rng.TrialStream` over the
      batch's trials whenever the model draws (``spec.needs_stream``).

    Neither means fault-free execution.
    """

    name: ClassVar[str]

    #: Most trials a serial campaign hands this backend in one call: it
    #: batches a cell's consecutive pending shards up to this many trials,
    #: and a shard alone always runs whole.
    max_batch_trials: ClassVar[int]

    netlist: Netlist
    scheme: str
    multi_output: bool

    @abc.abstractmethod
    def run_trials(
        self,
        inputs: TrialInputs,
        *,
        n_trials: Optional[int] = None,
        fault_plan: Optional[FaultPlans] = None,
        fault_model: Optional[FaultModelSpec] = None,
        stream: Optional[TrialStream] = None,
        capture_outputs: bool = False,
    ) -> TrialOutcomes:
        """Execute one trial per input row and return per-trial outcomes.

        ``n_trials`` is required exactly when ``inputs`` is a single shared
        mapping (the broadcast fast path) and otherwise must match the
        supplied row count.  ``capture_outputs`` additionally returns each
        trial's final output bit matrix (identical across backends for
        identical fault sources — the same equivalence contract the outcome
        vectors obey).
        """

    @abc.abstractmethod
    def enumerate_sites(
        self, input_values: Optional[Mapping[int, int]] = None
    ) -> List[FaultSite]:
        """Every injectable gate-output site of one execution, in firing
        order (the exhaustive SEP sweep's site list)."""

    # ------------------------------------------------------------------ #
    # Shared input plumbing
    # ------------------------------------------------------------------ #
    def _validate_fault_args(
        self,
        n_trials: int,
        fault_plan: Optional[FaultPlans],
        fault_model: Optional[FaultModelSpec],
        stream: Optional[TrialStream],
    ) -> None:
        if fault_model is not None and fault_plan is not None:
            raise ProtectionError(
                "a batch takes one fault source: a declarative fault_model or "
                "a deterministic fault_plan, not both"
            )
        if fault_plan is not None and len(fault_plan) != n_trials:
            raise ProtectionError(
                "fault_plan must supply one entry per trial "
                f"(got {len(fault_plan)} for {n_trials} trials)"
            )
        if stream is not None and (fault_model is None or not fault_model.needs_stream):
            # A stream only drives a model that draws; accepting it alone
            # would silently run fault-free (a forgotten or unresolved
            # fault_model must not masquerade as 100% coverage).
            model = "no fault_model" if fault_model is None else repr(fault_model.to_string())
            raise ProtectionError(
                f"a trial stream has no effect without a fault model that draws ({model}); "
                "resolve its inherited rates or drop the stream"
            )
        if fault_model is not None and fault_model.needs_stream and (
            stream is None or len(stream) != n_trials
        ):
            raise ProtectionError(
                f"{fault_model.kind} fault injection needs a TrialStream over the "
                f"batch's trials (got {None if stream is None else len(stream)} "
                f"for {n_trials} trials)"
            )

    def _check_broadcast(
        self, inputs: TrialInputs, n_trials: Optional[int]
    ) -> Optional[int]:
        """Validate the ``n_trials`` broadcast argument against the shape of
        ``inputs``; returns the broadcast count when ``inputs`` is a single
        shared mapping, else None."""
        if isinstance(inputs, AbstractMapping):
            if n_trials is None:
                raise ProtectionError(
                    "a single input mapping needs an explicit trial count: "
                    "pass run_trials(inputs, n_trials=B)"
                )
            if n_trials < 1:
                raise ProtectionError(f"n_trials must be >= 1, got {n_trials}")
            return int(n_trials)
        if n_trials is not None and n_trials != len(inputs):
            raise ProtectionError(
                f"n_trials={n_trials} contradicts the {len(inputs)} supplied "
                "input rows; pass one or the other"
            )
        return None

    def _input_rows(
        self, inputs: TrialInputs, n_trials: Optional[int] = None
    ) -> List[Dict[int, int]]:
        """Normalise ``inputs`` to one ``{signal: bit}`` dict per trial."""
        broadcast = self._check_broadcast(inputs, n_trials)
        if broadcast is not None:
            return [dict(inputs)] * broadcast
        if isinstance(inputs, np.ndarray):
            if inputs.ndim != 2 or inputs.shape[1] != len(self.netlist.inputs):
                raise ProtectionError(
                    f"input matrix must be (B, {len(self.netlist.inputs)}), "
                    f"got shape {inputs.shape}"
                )
            return [
                dict(zip(self.netlist.inputs, (int(bit) for bit in row)))
                for row in inputs
            ]
        return [dict(row) for row in inputs]

    def _input_matrix(
        self, inputs: TrialInputs, n_trials: Optional[int] = None
    ) -> np.ndarray:
        """Normalise ``inputs`` to a ``(B, n_inputs)`` bit matrix.

        The broadcast form returns a read-only ``np.broadcast_to`` view of
        one row — O(n_inputs) memory however large the batch."""
        broadcast = self._check_broadcast(inputs, n_trials)
        signals = self.netlist.inputs
        if broadcast is not None:
            row = np.empty((1, len(signals)), dtype=np.uint8)
            for position, signal in enumerate(signals):
                if signal not in inputs:
                    raise ProtectionError(f"missing value for input signal {signal}")
                row[0, position] = int(inputs[signal])
            return np.broadcast_to(row, (broadcast, len(signals)))
        if isinstance(inputs, np.ndarray):
            return inputs
        matrix = np.empty((len(inputs), len(signals)), dtype=np.uint8)
        for row, values in enumerate(inputs):
            for position, signal in enumerate(signals):
                if signal not in values:
                    raise ProtectionError(f"missing value for input signal {signal}")
                matrix[row, position] = int(values[signal])
        return matrix


class _SiteCounter(NoFaultInjector):
    """Counts every call a stochastic injector would draw for, per class."""

    def __init__(self) -> None:
        super().__init__()
        self.output_ops: List[int] = []
        self.metadata = 0
        self.preset = 0
        self.memory = 0

    def corrupt_gate_output(self, value, site, operation_index, is_metadata=False):
        self.output_ops.append(operation_index)
        self.metadata += bool(is_metadata)
        return value

    def corrupt_stored_bit(self, value, site):
        self.memory += 1
        return value

    def corrupt_preset(self, value, site, operation_index):
        self.preset += 1
        return value


class ScalarBackend(ExecutionBackend):
    """The executor object model behind the backend protocol (one
    behavioural-array run per trial, executor reuse through ``reset()``;
    stochastic faults flip at the batch schedule's ordinals through
    :class:`~repro.pim.faults.ScheduledFaultInjector`)."""

    name = "scalar"
    #: Trials run one by one here, so batching shards would only delay
    #: their recording: every shard runs alone.
    max_batch_trials = 1

    def __init__(
        self,
        netlist: Netlist,
        scheme: str,
        multi_output: bool = True,
        technology: Union[TechnologyParameters, str, None] = None,
        make_executor: Optional[Callable[[Optional[object]], object]] = None,
        null_trace: bool = False,
        code_factory: Optional[Callable[[int], object]] = None,
    ) -> None:
        """``make_executor(fault_injector)`` overrides default executor
        construction — the escape hatch for configurations the protocol
        vocabulary does not name (custom ``n_copies``, pre-built arrays).
        ``code_factory`` (ECiM only) overrides the per-level code — e.g.
        :func:`repro.ecc.bch.bch_code_factory` for BCH-t protection.
        ``null_trace`` swaps in a
        :class:`~repro.pim.operations.NullTrace` for trial throughput
        (campaigns consume counters, not traces)."""
        scheme = scheme.strip().lower()
        if make_executor is None and scheme not in EXECUTORS_BY_SCHEME:
            raise ProtectionError(f"unknown protection scheme {scheme!r}")
        if code_factory is not None and scheme != "ecim":
            raise ProtectionError("code_factory only applies to the ecim scheme")
        self.netlist = netlist
        self.scheme = scheme
        self.multi_output = multi_output
        self._technology = (
            get_technology(technology) if isinstance(technology, str) else technology
        )
        self._make_executor = make_executor
        self._null_trace = null_trace
        self._code_factory = code_factory
        self._executor: Optional[object] = None
        self._fault_sites: Optional[FaultSites] = None

    # -------------------------------------------------------------- #
    # Executor lifecycle
    # -------------------------------------------------------------- #
    def _build_executor(self, injector) -> object:
        if self._make_executor is not None:
            return self._make_executor(injector)
        cls = EXECUTORS_BY_SCHEME[self.scheme]
        kwargs = {"fault_injector": injector}
        if self._technology is not None:
            kwargs["technology"] = self._technology
        if self.scheme != "unprotected":
            kwargs["multi_output"] = self.multi_output
        if self._code_factory is not None:
            kwargs["code_factory"] = self._code_factory
        return cls(self.netlist, **kwargs)

    @property
    def executor(self) -> object:
        """The backend's (lazily built, reused) executor."""
        if self._executor is None:
            self._executor = self._build_executor(NoFaultInjector())
            if self._make_executor is not None:
                self.netlist = self._executor.netlist
            if self._null_trace:
                self._executor.array.trace = NullTrace()
        return self._executor

    # -------------------------------------------------------------- #
    # Protocol
    # -------------------------------------------------------------- #
    def run_trials(
        self,
        inputs: TrialInputs,
        *,
        n_trials: Optional[int] = None,
        fault_plan: Optional[FaultPlans] = None,
        fault_model: Optional[FaultModelSpec] = None,
        stream: Optional[TrialStream] = None,
        capture_outputs: bool = False,
    ) -> TrialOutcomes:
        executor = self.executor  # before input handling: resolves the
        # netlist when this backend wraps a legacy factory
        rows = self._input_rows(inputs, n_trials)
        if not rows:
            raise ProtectionError("a batch needs at least one trial")
        self._validate_fault_args(len(rows), fault_plan, fault_model, stream)
        if fault_model is not None and fault_model.is_error_free:
            fault_model = None
        if fault_model is not None:
            # One shared bounds rule with the batched interpreter: a stuck
            # cell the execution never touches must fail fast, not
            # masquerade as fault-free coverage.
            try:
                fault_model.validate_columns(executor.array.cols, layout="executor row")
            except PimError as error:
                raise ProtectionError(str(error)) from None
        schedule = fault_schedule(fault_model, stream, self.fault_sites, len(rows))
        trial_hits = schedule.by_trial() if schedule is not None else None
        outputs_correct = np.zeros(len(rows), dtype=bool)
        detected = np.zeros(len(rows), dtype=bool)
        corrections = np.zeros(len(rows), dtype=np.int64)
        uncorrectable = np.zeros(len(rows), dtype=np.int64)
        faults = np.zeros(len(rows), dtype=np.int64)
        output_bits = (
            np.zeros((len(rows), len(self.netlist.outputs)), dtype=np.uint8)
            if capture_outputs
            else None
        )
        for trial, input_values in enumerate(rows):
            if fault_plan is not None:
                injector = DeterministicFaultInjector(
                    target_output_positions=dict(fault_plan[trial] or {})
                )
            elif trial_hits is not None:
                injector = ScheduledFaultInjector(trial_hits[trial])
            elif fault_model is not None:
                injector = StuckAtFaultInjector(fault_model.stuck_cells())
            else:
                injector = NoFaultInjector()
            executor.reset(fault_injector=injector)
            report: ExecutionReport = executor.run(dict(input_values))
            outputs_correct[trial] = report.outputs_correct
            detected[trial] = report.detected
            corrections[trial] = report.corrections
            uncorrectable[trial] = report.uncorrectable_levels
            faults[trial] = injector.log.count()
            if output_bits is not None:
                for position, signal in enumerate(self.netlist.outputs):
                    output_bits[trial, position] = report.outputs[signal]
        return TrialOutcomes(
            outputs_correct=outputs_correct,
            detected=detected,
            corrections=corrections,
            uncorrectable_levels=uncorrectable,
            faults_injected=faults,
            outputs=output_bits,
        )

    @property
    def fault_sites(self) -> FaultSites:
        """The stochastic fault sites of one execution, counted by a
        fault-free dry run (control flow is input-independent) and cached."""
        if self._fault_sites is None:
            counter = _SiteCounter()
            executor = self.executor
            executor.reset(fault_injector=counter)
            executor.run({signal: 0 for signal in self.netlist.inputs})
            ops = np.asarray(counter.output_ops, dtype=np.int64)
            self._fault_sites = FaultSites(
                gate=ops.shape[0] - counter.metadata,
                metadata=counter.metadata,
                preset=counter.preset,
                memory=counter.memory,
                output_ops=ops,
            )
        return self._fault_sites

    def enumerate_sites(
        self, input_values: Optional[Mapping[int, int]] = None
    ) -> List[FaultSite]:
        """Dry-run one fault-free execution and walk its operation trace."""
        executor = self.executor
        if input_values is None:
            input_values = {signal: 0 for signal in self.netlist.inputs}
        saved_trace = executor.array.trace
        executor.array.trace = OperationTrace()
        try:
            executor.reset(fault_injector=NoFaultInjector())
            executor.run(dict(input_values))
            sites: List[FaultSite] = []
            op_index = 0
            for record in executor.array.trace:
                if record.kind != OperationKind.GATE:
                    continue
                for position, column in enumerate(record.outputs):
                    sites.append(
                        FaultSite(
                            operation_index=op_index,
                            output_position=position,
                            gate=record.gate,
                            is_metadata=record.is_metadata,
                            logic_level=record.logic_level,
                            column=column,
                        )
                    )
                op_index += 1
            return sites
        finally:
            executor.array.trace = saved_trace


class BatchedBackend(ExecutionBackend):
    """The compiled instruction tape behind the backend protocol (numpy
    bit-matrix interpretation)."""

    name = "batched"
    #: A tape step's fixed cost outweighs its per-trial cost at shard sizes,
    #: so shards batch up to the exhaustive sweeps' 4,096-row chunk.
    max_batch_trials = 4096

    def __init__(
        self,
        netlist: Netlist,
        scheme: str,
        multi_output: bool = True,
        plan: Optional[ExecutionPlan] = None,
        code_factory: Optional[Callable[[int], object]] = None,
    ) -> None:
        scheme = scheme.strip().lower()
        if scheme not in EXECUTORS_BY_SCHEME:
            # Same vocabulary as compile_plan, checked eagerly so a typo'd
            # scheme fails at backend construction on either backend.
            raise ProtectionError(f"unknown protection scheme {scheme!r}")
        if code_factory is not None and scheme != "ecim":
            raise ProtectionError("code_factory only applies to the ecim scheme")
        self.netlist = netlist
        self.scheme = scheme
        self.multi_output = multi_output
        self._plan = plan
        self._code_factory = code_factory

    @property
    def plan(self) -> ExecutionPlan:
        """The backend's (lazily compiled, reused) instruction tape."""
        if self._plan is None:
            kwargs = {}
            if self._code_factory is not None:
                kwargs["code_factory"] = self._code_factory
            self._plan = compile_plan(
                self.netlist, self.scheme, multi_output=self.multi_output, **kwargs
            )
        return self._plan

    def run_trials(
        self,
        inputs: TrialInputs,
        *,
        n_trials: Optional[int] = None,
        fault_plan: Optional[FaultPlans] = None,
        fault_model: Optional[FaultModelSpec] = None,
        stream: Optional[TrialStream] = None,
        capture_outputs: bool = False,
    ) -> TrialOutcomes:
        matrix = self._input_matrix(inputs, n_trials)
        self._validate_fault_args(matrix.shape[0], fault_plan, fault_model, stream)
        result = run_batch(
            self.plan, matrix, fault_plan=fault_plan, fault_model=fault_model, stream=stream
        )
        return TrialOutcomes(
            outputs_correct=result.outputs_correct,
            detected=result.detected,
            corrections=result.corrections,
            uncorrectable_levels=result.uncorrectable_levels,
            faults_injected=result.faults_injected,
            outputs=result.outputs if capture_outputs else None,
        )

    def enumerate_sites(
        self, input_values: Optional[Mapping[int, int]] = None
    ) -> List[FaultSite]:
        """Walk the compiled tape — the schedule is input-independent, so no
        execution is needed (``input_values`` is accepted for protocol
        symmetry and ignored)."""
        sites: List[FaultSite] = []
        for step in self.plan.steps:
            if not isinstance(step, GateStep):
                continue
            for position in range(step.output_cols.shape[0]):
                sites.append(
                    FaultSite(
                        operation_index=step.op_index,
                        output_position=position,
                        gate=step.gate,
                        is_metadata=step.is_metadata,
                        logic_level=step.logic_level,
                        column=int(step.output_cols[position]),
                    )
                )
        return sites


class BitpackedBackend(BatchedBackend):
    """The structure-of-arrays tape interpreted bit-sliced
    (:mod:`repro.core.bitpacked`): one Python ``int`` per column holds every
    trial, gates are closed-form boolean ops on those ints, and every fault
    source is lowered to one XOR int per (tape step, column).

    Shares the batched backend's construction surface and compiled
    :class:`ExecutionPlan` (the SoA form is lowered lazily from it), so site
    enumeration and spec vocabulary are identical by construction.
    """

    name = "bitpacked"

    def __init__(
        self,
        netlist: Netlist,
        scheme: str,
        multi_output: bool = True,
        plan: Optional[ExecutionPlan] = None,
        code_factory: Optional[Callable[[int], object]] = None,
    ) -> None:
        super().__init__(
            netlist, scheme, multi_output=multi_output, plan=plan,
            code_factory=code_factory,
        )
        self._soa: Optional[SoaPlan] = None

    @property
    def soa(self) -> SoaPlan:
        """The backend's (lazily lowered, reused) structure-of-arrays tape."""
        if self._soa is None:
            self._soa = lower_plan(self.plan)
        return self._soa

    def run_trials(
        self,
        inputs: TrialInputs,
        *,
        n_trials: Optional[int] = None,
        fault_plan: Optional[FaultPlans] = None,
        fault_model: Optional[FaultModelSpec] = None,
        stream: Optional[TrialStream] = None,
        capture_outputs: bool = False,
    ) -> TrialOutcomes:
        matrix = self._input_matrix(inputs, n_trials)
        self._validate_fault_args(matrix.shape[0], fault_plan, fault_model, stream)
        result = run_packed(
            self.soa, matrix, fault_plan=fault_plan, fault_model=fault_model, stream=stream
        )
        return TrialOutcomes(
            outputs_correct=result.outputs_correct,
            detected=result.detected,
            corrections=result.corrections,
            uncorrectable_levels=result.uncorrectable_levels,
            faults_injected=result.faults_injected,
            outputs=result.outputs if capture_outputs else None,
        )


#: Registered execution backends, in default-first order.  ``scalar`` is the
#: object-model reference and stays the default everywhere; adding a backend
#: here is the one-line registration that wires it into ``make_backend``,
#: every ``--backend`` CLI choice and the differential/golden harnesses.
_BACKENDS = {
    cls.name: cls for cls in (ScalarBackend, BatchedBackend, BitpackedBackend)
}

BACKEND_NAMES = tuple(_BACKENDS)


def backend_class(name: str) -> type:
    """The registered backend class called ``name`` — the single
    engine-dispatch point.

    An unknown name fails fast with the list of valid choices (the CLI and
    the campaign spec both funnel through here).
    """
    key = str(name).strip().lower()
    if key not in _BACKENDS:
        choices = ", ".join(repr(known) for known in _BACKENDS)
        raise ProtectionError(
            f"unknown execution backend {name!r}; registered backends: {choices}"
        )
    return _BACKENDS[key]


def make_backend(
    name: str,
    netlist: Netlist,
    scheme: str,
    multi_output: bool = True,
    **kwargs,
) -> ExecutionBackend:
    """Construct a backend by name (see :func:`backend_class`)."""
    return backend_class(name)(netlist, scheme, multi_output=multi_output, **kwargs)


def as_backend(target: object) -> ExecutionBackend:
    """Adapt ``target`` to the backend protocol.

    Accepts an :class:`ExecutionBackend` (returned as-is) or a legacy
    ``make_executor(fault_injector)`` scalar factory, which is wrapped in a
    :class:`ScalarBackend` — the bridge that lets pre-protocol call sites
    (and executor configurations the protocol vocabulary does not name) keep
    working unchanged.
    """
    if isinstance(target, ExecutionBackend):
        return target
    if callable(target):
        # The netlist is resolved from the factory's executor on first use.
        return ScalarBackend(None, "custom", make_executor=target)
    raise ProtectionError(
        f"cannot interpret {target!r} as an execution backend: expected an "
        "ExecutionBackend or a make_executor(fault_injector) callable"
    )


class BoundedCache(OrderedDict):
    """A tiny LRU map: at most ``limit`` entries, least-recently-used first
    out.  Shared by the campaign worker's per-process backend caches."""

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def lookup(self, key, build):
        entry = self.get(key)
        if entry is None:
            entry = build()
            self[key] = entry
            while len(self) > self.limit:
                self.popitem(last=False)
        else:
            self.move_to_end(key)
        return entry
