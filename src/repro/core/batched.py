"""Batched trial engine: compile netlist executions to instruction tapes and
run thousands of Monte-Carlo trials as numpy bit-matrices.

Architecture note
-----------------
The scalar executors (:mod:`repro.core.executor`) walk the full Python object
model per trial — a cell dict per bit, a method call per gate output — which
caps fault-injection campaigns at tens of trials per second.  The key
observation is that their *control flow is data-independent*: for a fixed
(netlist, scheme, gate style) the exact sequence of presets, gate firings,
checker reads and check decisions is the same for every trial; only the cell
values and injected faults differ.  This module exploits that in two stages:

1. **Plan compiler** — :func:`compile_plan` instantiates the corresponding
   scalar executor purely for its column layout and lowers its ``run()``
   schedule into a flat tape of steps with precomputed site indices:

   * :class:`GateStep` — one in-array gate firing (truth-table lookup via
     :mod:`repro.pim.vector`), carrying the same global operation index the
     scalar array would assign, so deterministic single-fault plans target
     identical sites;
   * :class:`PresetStep` / :class:`ReadStep` — architectural presets and
     checker-transfer reads (the points where preset and idle-cell memory
     errors strike);
   * :class:`EcimCheckStep` — a batched GF(2) syndrome matvec
     (``S = data @ A[: , :d]^T ⊕ parity``) plus a dense syndrome→position
     lookup table derived from the code's parity-check matrix
     (:mod:`repro.ecc`), applying single-bit corrections per trial;
   * :class:`TrimCheckStep` — a popcount majority vote across the redundant
     copies with per-trial correction write-back.

2. **Interpreter** — :func:`run_batch` executes the tape once for B trials on
   a ``(B, n_cols)`` uint8 state matrix.  Stochastic and burst faults come
   from the batch's precomputed :class:`~repro.core.rng.FaultSchedule` —
   per fault class, the hit sites of every trial, mapped onto tape steps
   through :attr:`ExecutionPlan.site_map` — so each trial's outcome
   depends only on its own counter-based stream, never on batch
   composition.

Determinism contract: fault-free, deterministic fault-plan and every
declarative ``fault_model`` execution (stochastic, burst, stuck-at) is
**byte-identical** to the scalar and bitpacked backends, because all three
consume the same schedule (see :mod:`repro.core.rng` and
``tests/differential``).  Input sampling is one
:func:`sample_input_matrix` call per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.executor import EcimExecutor, TrimExecutor, UnprotectedExecutor
from repro.core.faultplan import FaultPlanArrays
from repro.core.rng import FaultSchedule, FaultSites, TrialStream, fault_schedule
from repro.errors import PimError, ProtectionError
from repro.pim.faults import FaultModelSpec, normalize_flip_positions
from repro.pim.gates import GateType
from repro.pim.vector import apply_deterministic_flips, vector_gate_output

__all__ = [
    "GateStep",
    "PresetStep",
    "ReadStep",
    "EcimCheckStep",
    "TrimCheckStep",
    "ExecutionPlan",
    "FaultSiteMap",
    "BatchResult",
    "compile_plan",
    "run_batch",
    "sample_input_matrix",
    "batched_golden_outputs",
]


def _cols(columns: Sequence[int]) -> np.ndarray:
    return np.asarray(list(columns), dtype=np.intp)


@dataclass(eq=False, frozen=True)
class GateStep:
    """One in-array gate firing: evaluate, inject, commit."""

    op_index: int
    gate: str
    input_cols: np.ndarray
    output_cols: np.ndarray
    threshold: Optional[int]
    is_metadata: bool
    logic_level: int = 0


@dataclass(eq=False, frozen=True)
class PresetStep:
    """Architectural preset of explicit cells (ECiM parity-bank reset)."""

    columns: np.ndarray
    value: int


@dataclass(eq=False, frozen=True)
class ReadStep:
    """Checker-transfer read: the point where memory errors strike stored
    bits (corruption is committed back to the state, as in
    :meth:`PimArray.read_row`)."""

    columns: np.ndarray


@dataclass(eq=False, frozen=True)
class EcimCheckStep:
    """Batched syndrome decode for one logic level.

    ``a_t`` is ``A[:, :d]^T`` so the syndrome of the zero-padded shortened
    codeword reduces to ``(data @ a_t + parity) mod 2``.  ``lut`` is the
    dense decode table: row ``s`` lists the codeword positions the decoder
    flips for packed syndrome ``s``, padded with ``-1`` — one column for a
    single-error code (Hamming), ``t`` columns for a t-error-correcting code
    (BCH-t), whose rows hold full error *patterns*.  An all ``-1`` row for a
    non-zero syndrome means detected-but-uncorrectable, exactly the
    semantics of the scalar decoders in :mod:`repro.ecc`."""

    data_cols: np.ndarray
    parity_cols: np.ndarray
    a_t: np.ndarray
    weights: np.ndarray
    lut: np.ndarray


@dataclass(eq=False, frozen=True)
class TrimCheckStep:
    """Batched majority vote for one logic level."""

    data_cols: np.ndarray
    copy_col_groups: Tuple[np.ndarray, ...]
    n_copies: int


PlanStep = object  # GateStep | PresetStep | ReadStep | EcimCheckStep | TrimCheckStep


@dataclass(eq=False, frozen=True)
class FaultSiteMap:
    """Where the stochastic fault classes (:mod:`repro.core.rng`) sit on
    the tape.

    Every cell a fault can strike — gate outputs in firing order, then
    preset-step cells, then checker-read cells — is one *entry*: its tape
    step in ``steps`` and its state column in ``columns``.  ``classes``
    maps a class to the entry of each of its ordinals: ``gate`` /
    ``metadata`` gate outputs, ``preset`` (gate-output presets and
    preset-step cells in (step, lane) order; -1 for a gate output's preset,
    which the firing overwrites, so a fault there only counts) and
    ``memory``.  The burst model's ``output`` class (every gate output) is
    entries ``0 ..`` themselves.  int32 throughout: mlp16 + ECiM alone has
    ~73k gate outputs.
    """

    steps: np.ndarray
    columns: np.ndarray
    classes: Dict[str, np.ndarray]

    def held_hits(self, schedule: FaultSchedule) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, entries)`` of a schedule's hits on cells that hold
        state; count-only preset hits are already in ``schedule.faults``."""
        rows, entries = [], []
        for name, (hit_rows, ordinals) in schedule.hits.items():
            entry = ordinals if name == "output" else self.classes[name][ordinals]
            held = entry >= 0
            rows.append(hit_rows[held])
            entries.append(entry[held])
        if not rows:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int32)
        return np.concatenate(rows), np.concatenate(entries)


@dataclass(eq=False, frozen=True)
class ExecutionPlan:
    """A compiled, scheme-specific instruction tape for one netlist."""

    scheme: str
    multi_output: bool
    n_cols: int
    netlist: Netlist
    input_cols: np.ndarray
    output_cols: np.ndarray
    const1_col: int
    steps: Tuple[PlanStep, ...]
    n_gate_ops: int

    @property
    def n_inputs(self) -> int:
        return int(self.input_cols.shape[0])

    @property
    def n_outputs(self) -> int:
        return int(self.output_cols.shape[0])

    @cached_property
    def site_map(self) -> FaultSiteMap:
        """The tape positions of every stochastic fault class's sites."""
        indices = {GateStep: [], PresetStep: [], ReadStep: []}
        for index, step in enumerate(self.steps):
            if type(step) in indices:
                indices[type(step)].append(index)
        gates, presets, reads = indices.values()
        chunks = [self.steps[i].output_cols for i in gates]
        chunks += [self.steps[i].columns for i in presets + reads]
        widths = np.fromiter((chunk.shape[0] for chunk in chunks), np.int32, len(chunks))
        n_outputs = int(widths[:len(gates)].sum())
        n_preset_cells = int(widths[len(gates):len(gates) + len(presets)].sum())
        steps = np.repeat(np.asarray(gates + presets + reads, dtype=np.int32), widths)
        metadata = np.repeat(
            np.fromiter((self.steps[i].is_metadata for i in gates), bool, len(gates)),
            widths[:len(gates)],
        )
        # Gate outputs and preset-step cells are each in (step, lane) order
        # and never share a step, so a stable sort by step merges them.
        preset = np.argsort(steps[:n_outputs + n_preset_cells], kind="stable")
        preset[preset < n_outputs] = -1
        return FaultSiteMap(
            steps=steps,
            columns=(np.concatenate(chunks) if chunks else np.zeros(0)).astype(np.int32),
            classes={
                "gate": np.flatnonzero(~metadata).astype(np.int32),
                "metadata": np.flatnonzero(metadata).astype(np.int32),
                "preset": preset.astype(np.int32),
                "memory": np.arange(n_outputs + n_preset_cells, steps.shape[0], dtype=np.int32),
            },
        )

    @cached_property
    def fault_sites(self) -> FaultSites:
        """The class sizes and gate-output operation indices a
        :class:`~repro.core.rng.FaultSchedule` is drawn over."""
        classes = self.site_map.classes
        op_of_step = np.full(len(self.steps), -1, dtype=np.int32)
        for index, step in enumerate(self.steps):
            if isinstance(step, GateStep):
                op_of_step[index] = step.op_index
        n_outputs = classes["gate"].shape[0] + classes["metadata"].shape[0]
        return FaultSites(
            gate=int(classes["gate"].shape[0]),
            metadata=int(classes["metadata"].shape[0]),
            preset=int(classes["preset"].shape[0]),
            memory=int(classes["memory"].shape[0]),
            output_ops=op_of_step[self.site_map.steps[:n_outputs]],
        )

    def gate_fault_sites(self) -> List[Tuple[int, int]]:
        """Every (operation index, output position) a single logic fault can
        strike — the site enumeration exhaustive SEP sweeps iterate."""
        sites = []
        for step in self.steps:
            if isinstance(step, GateStep):
                for position in range(step.output_cols.shape[0]):
                    sites.append((step.op_index, position))
        return sites


# ---------------------------------------------------------------------- #
# Plan compilation
# ---------------------------------------------------------------------- #
def _base_plan_fields(executor) -> Dict[str, object]:
    netlist = executor.netlist
    return dict(
        n_cols=executor.array.cols,
        netlist=netlist,
        input_cols=_cols(executor.column_of[s] for s in netlist.inputs),
        output_cols=_cols(executor.column_of[s] for s in netlist.outputs),
        const1_col=executor.const1_col,
    )


def _compile_unprotected(executor: UnprotectedExecutor) -> Tuple[Tuple[PlanStep, ...], int]:
    steps: List[PlanStep] = []
    op = 0
    for level, gate_indices in enumerate(executor._levels, start=1):
        for gate_index in gate_indices:
            node = executor.netlist.gates[gate_index]
            steps.append(
                GateStep(
                    op_index=op,
                    gate=node.gate,
                    input_cols=_cols(executor.column_of[s] for s in node.inputs),
                    output_cols=_cols([executor.column_of[node.output]]),
                    threshold=node.threshold,
                    is_metadata=False,
                    logic_level=level,
                )
            )
            op += 1
    return tuple(steps), op


def _code_correction_capability(code) -> int:
    """Correctable errors per codeword: ``t`` for BCH-style codes, 1 for
    plain single-error-correcting linear codes."""
    capability = getattr(code, "correctable_errors", None)
    return int(capability()) if callable(capability) else 1


def _multi_error_decode_lut(code, t: int) -> np.ndarray:
    """Dense syndrome → error-pattern table for all patterns of weight <= t.

    Row ``s`` holds the codeword positions flipped for packed binary
    syndrome ``s`` (padded with -1).  Because a t-error-correcting code has
    designed distance >= 2t + 1, every weight-<=t pattern has a distinct
    syndrome, so this lookup is exactly bounded-distance decoding — the same
    correction the algebraic :meth:`~repro.ecc.bch.BchCode.decode` performs.
    Colliding syndromes (a code weaker than advertised) are dropped back to
    -1, inheriting the collision semantics of
    :class:`~repro.ecc.linear.SystematicLinearCode`.
    """
    from itertools import combinations

    r = code.n_parity
    n = code.k + r
    # Column syndromes of H = [A | I_r], packed as integers.
    a = code.a_matrix.astype(np.int64)
    column_syndromes = [
        int(sum(int(a[i, p]) << i for i in range(r))) if p < code.k else 1 << (p - code.k)
        for p in range(n)
    ]
    lut = np.full((1 << r, t), -1, dtype=np.int64)
    collided = set()
    for weight in range(1, t + 1):
        for pattern in combinations(range(n), weight):
            packed = 0
            for position in pattern:
                packed ^= column_syndromes[position]
            if packed == 0 or packed in collided:
                continue
            if lut[packed, 0] >= 0:
                lut[packed] = -1
                collided.add(packed)
                continue
            lut[packed, :weight] = pattern
    return lut


def _ecim_check_step(code, data_cols: Sequence[int], parity_cols: Sequence[int]) -> EcimCheckStep:
    d = len(data_cols)
    r = code.n_parity
    t = _code_correction_capability(code)
    a_t = code.a_matrix[:, :d].T.astype(np.int64)
    weights = (1 << np.arange(r, dtype=np.int64))
    # Dense form of the code's own decode table: absent syndromes stay -1
    # (detected but uncorrectable), so batched decoding inherits the scalar
    # checker's semantics from the single implementation in repro.ecc.
    if t == 1 and hasattr(code, "single_error_syndrome_table"):
        lut = np.full((1 << r, 1), -1, dtype=np.int64)
        for syndrome, position in code.single_error_syndrome_table().items():
            packed = sum(bit << j for j, bit in enumerate(syndrome))
            lut[packed, 0] = position
    else:
        lut = _multi_error_decode_lut(code, t)
    return EcimCheckStep(
        data_cols=_cols(data_cols),
        parity_cols=_cols(parity_cols),
        a_t=a_t,
        weights=weights,
        lut=lut,
    )


def _compile_ecim(executor: EcimExecutor) -> Tuple[Tuple[PlanStep, ...], int]:
    netlist = executor.netlist
    multi_output = executor.multi_output
    steps: List[PlanStep] = []
    op = 0
    scratch1, scratch2 = executor._xor_scratch_cols()
    for level, gate_indices in enumerate(executor._levels, start=1):
        nodes = [netlist.gates[i] for i in gate_indices]
        code = executor._code_factory(max(1, len(nodes)))
        r = code.n_parity
        parity_bank = [0] * r
        for i in range(r):
            steps.append(
                PresetStep(
                    columns=_cols([executor._parity_col(0, i), executor._parity_col(1, i)]),
                    value=0,
                )
            )
        for data_bit, node in enumerate(nodes):
            covered = code.parity_bits_affected_by(data_bit)
            input_cols = [executor.column_of[s] for s in node.inputs]
            data_col = executor.column_of[node.output]
            if multi_output:
                outputs = [data_col] + [executor._staging_col(i) for i in covered]
                steps.append(
                    GateStep(op, node.gate, _cols(input_cols), _cols(outputs),
                             node.threshold, False, level)
                )
                op += 1
            else:
                steps.append(
                    GateStep(op, node.gate, _cols(input_cols), _cols([data_col]),
                             node.threshold, False, level)
                )
                op += 1
                for i in covered:
                    steps.append(
                        GateStep(
                            op, node.gate, _cols(input_cols),
                            _cols([executor._staging_col(i)]), node.threshold, True, level,
                        )
                    )
                    op += 1
            for i in covered:
                source_bank = parity_bank[i]
                target_bank = 1 - source_bank
                r_col = executor._staging_col(i)
                parity_col = executor._parity_col(source_bank, i)
                target_col = executor._parity_col(target_bank, i)
                if multi_output:
                    steps.append(
                        GateStep(op, GateType.NOR, _cols([r_col, parity_col]),
                                 _cols([scratch1, scratch2]), None, True, level)
                    )
                    op += 1
                else:
                    steps.append(
                        GateStep(op, GateType.NOR, _cols([r_col, parity_col]),
                                 _cols([scratch1]), None, True, level)
                    )
                    op += 1
                    steps.append(
                        GateStep(op, GateType.COPY, _cols([scratch1]), _cols([scratch2]),
                                 None, True, level)
                    )
                    op += 1
                steps.append(
                    GateStep(op, GateType.THR, _cols([r_col, parity_col, scratch1, scratch2]),
                             _cols([target_col]), None, True, level)
                )
                op += 1
                parity_bank[i] = target_bank
        data_cols = [executor.column_of[node.output] for node in nodes]
        parity_cols = [executor._parity_col(parity_bank[i], i) for i in range(r)]
        steps.append(ReadStep(_cols(data_cols)))
        steps.append(ReadStep(_cols(parity_cols)))
        steps.append(_ecim_check_step(code, data_cols, parity_cols))
    return tuple(steps), op


def _compile_trim(executor: TrimExecutor) -> Tuple[Tuple[PlanStep, ...], int]:
    netlist = executor.netlist
    multi_output = executor.multi_output
    n_copies = executor.n_copies
    steps: List[PlanStep] = []
    op = 0
    for level, gate_indices in enumerate(executor._levels, start=1):
        nodes = [netlist.gates[i] for i in gate_indices]
        for position, node in enumerate(nodes):
            input_cols = [executor.column_of[s] for s in node.inputs]
            data_col = executor.column_of[node.output]
            copy_cols = [executor._copy_col(c, position) for c in range(n_copies - 1)]
            if multi_output:
                steps.append(
                    GateStep(op, node.gate, _cols(input_cols),
                             _cols([data_col] + copy_cols), node.threshold, False, level)
                )
                op += 1
            else:
                steps.append(
                    GateStep(op, node.gate, _cols(input_cols), _cols([data_col]),
                             node.threshold, False, level)
                )
                op += 1
                for col in copy_cols:
                    steps.append(
                        GateStep(op, node.gate, _cols(input_cols), _cols([col]),
                                 node.threshold, True, level)
                    )
                    op += 1
        data_cols = [executor.column_of[node.output] for node in nodes]
        steps.append(ReadStep(_cols(data_cols)))
        copy_groups = []
        for c in range(n_copies - 1):
            cols = [executor._copy_col(c, position) for position in range(len(nodes))]
            steps.append(ReadStep(_cols(cols)))
            copy_groups.append(_cols(cols))
        steps.append(TrimCheckStep(_cols(data_cols), tuple(copy_groups), n_copies))
    return tuple(steps), op


def compile_plan(
    netlist: Netlist,
    scheme: str,
    multi_output: bool = True,
    code_factory=None,
    n_copies: int = 3,
) -> ExecutionPlan:
    """Lower one (netlist, scheme, gate style) into an instruction tape.

    The scalar executor is instantiated once to reuse its column layout and
    level schedule verbatim; nothing is ever executed on its array.
    """
    scheme = scheme.strip().lower()
    if scheme == "unprotected":
        executor = UnprotectedExecutor(netlist)
        steps, n_ops = _compile_unprotected(executor)
    elif scheme == "ecim":
        kwargs = {} if code_factory is None else {"code_factory": code_factory}
        executor = EcimExecutor(netlist, multi_output=multi_output, **kwargs)
        steps, n_ops = _compile_ecim(executor)
    elif scheme == "trim":
        executor = TrimExecutor(netlist, multi_output=multi_output, n_copies=n_copies)
        steps, n_ops = _compile_trim(executor)
    else:
        raise ProtectionError(f"unknown protection scheme {scheme!r}")
    return ExecutionPlan(
        scheme=scheme,
        multi_output=multi_output,
        steps=steps,
        n_gate_ops=n_ops,
        **_base_plan_fields(executor),
    )


# ---------------------------------------------------------------------- #
# Batched golden model
# ---------------------------------------------------------------------- #
def batched_golden_outputs(netlist: Netlist, input_matrix: np.ndarray) -> np.ndarray:
    """Fault-free netlist outputs for all B trials: the batched counterpart
    of :meth:`Netlist.evaluate_outputs`."""
    batch = input_matrix.shape[0]
    values: Dict[int, np.ndarray] = {
        Netlist.CONST_ZERO: np.zeros(batch, dtype=np.uint8),
        Netlist.CONST_ONE: np.ones(batch, dtype=np.uint8),
    }
    for position, signal in enumerate(netlist.inputs):
        values[signal] = np.ascontiguousarray(input_matrix[:, position], dtype=np.uint8)
    for node in netlist.gates:
        operands = np.stack([values[s] for s in node.inputs], axis=1)
        values[node.output] = vector_gate_output(node.gate, operands, node.threshold)
    return np.stack([values[s] for s in netlist.outputs], axis=1)


# ---------------------------------------------------------------------- #
# Input sampling
# ---------------------------------------------------------------------- #
def sample_input_matrix(netlist: Netlist, stream: TrialStream) -> np.ndarray:
    """Every trial's uniform input assignment, in one call: bit ``j`` of a
    trial's inputs stream drives ``netlist.inputs[j]``."""
    return stream.input_bits(len(netlist.inputs))


# ---------------------------------------------------------------------- #
# Batch interpretation
# ---------------------------------------------------------------------- #
@dataclass(eq=False, frozen=True)
class BatchResult:
    """Per-trial outcome vectors of one interpreted batch."""

    outputs: np.ndarray              # (B, n_outputs) uint8
    golden: np.ndarray               # (B, n_outputs) uint8
    detected: np.ndarray             # (B,) bool — any check fired
    corrections: np.ndarray          # (B,) int64 — checker write-back count
    uncorrectable_levels: np.ndarray  # (B,) int64
    faults_injected: np.ndarray      # (B,) int64

    @property
    def n_trials(self) -> int:
        return int(self.outputs.shape[0])

    @property
    def outputs_correct(self) -> np.ndarray:
        return (self.outputs == self.golden).all(axis=1)


class _StuckCells:
    """Vectorised :class:`~repro.pim.faults.StuckAtFaultInjector` semantics.

    The stuck value re-applies at exactly the scalar injector's touch
    points: after every gate-output commit to an afflicted cell and at every
    checker-transfer read (which writes the stuck value back, like
    :meth:`PimArray.read_row`).  Architectural presets and checker
    correction write-backs bypass the injector on both backends.
    """

    def __init__(self, spec: FaultModelSpec, n_cols: int) -> None:
        try:
            # The one shared bounds rule with the scalar backend.
            spec.validate_columns(n_cols, layout="plan")
        except PimError as error:
            raise ProtectionError(str(error)) from None
        columns = np.asarray(spec.stuck_columns, dtype=np.intp)
        self.value = int(spec.stuck_polarity)
        self.is_stuck = np.zeros(n_cols, dtype=bool)
        self.is_stuck[columns] = True

    def apply(self, state: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Force afflicted cells among ``columns`` to the stuck value;
        returns per-trial counts of cells that actually changed (the scalar
        injector logs a fault event only when the stored bit disagrees)."""
        hit = self.is_stuck[columns]
        if not hit.any():
            return np.zeros(state.shape[0], dtype=np.int64)
        stuck_cols = columns[hit]
        flips = (state[:, stuck_cols] != self.value).sum(axis=1, dtype=np.int64)
        state[:, stuck_cols] = self.value
        return flips


def _deterministic_targets(
    fault_plan: Union[Sequence[Mapping[int, object]], FaultPlanArrays],
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Regroup a batch of deterministic plans by operation.

    :class:`~repro.core.faultplan.FaultPlanArrays` batches group with one
    stable argsort (no per-trial Python work); per-trial dict plans take
    the historical loop, de-duplicating positions per (trial, operation)
    through :func:`~repro.pim.faults.normalize_flip_positions` to match
    the scalar injector's one-flip-per-site semantics.
    """
    if isinstance(fault_plan, FaultPlanArrays):
        return fault_plan.targets_by_op()
    by_op: Dict[int, Tuple[List[int], List[int]]] = {}
    for trial, targets in enumerate(fault_plan):
        for op_index, entry in (targets or {}).items():
            rows, positions = by_op.setdefault(int(op_index), ([], []))
            for position in sorted(normalize_flip_positions(entry)):
                rows.append(trial)
                positions.append(position)
    return {
        op: (np.asarray(rows, dtype=np.intp), np.asarray(positions, dtype=np.intp))
        for op, (rows, positions) in by_op.items()
    }


def _scheduled_flips(
    plan: ExecutionPlan, schedule: FaultSchedule
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Each tape step's scheduled flips as ``step -> (rows, columns)``.

    No (trial, cell) repeats within a step: the classes touching one step
    are disjoint."""
    site_map = plan.site_map
    rows, entries = site_map.held_hits(schedule)
    steps = site_map.steps[entries]
    order = np.argsort(steps, kind="stable")
    steps, rows, columns = steps[order], rows[order], site_map.columns[entries[order]]
    unique, starts = np.unique(steps, return_index=True)
    bounds = np.append(starts, steps.shape[0])
    return {
        int(step): (rows[a:b], columns[a:b])
        for step, a, b in zip(unique.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
    }


def run_batch(
    plan: ExecutionPlan,
    input_matrix: np.ndarray,
    fault_plan: Union[Sequence[Mapping[int, int]], FaultPlanArrays, None] = None,
    fault_model: Optional[FaultModelSpec] = None,
    stream: Optional[TrialStream] = None,
) -> BatchResult:
    """Interpret the tape for all B trials at once.

    ``input_matrix`` is a ``(B, n_inputs)`` bit matrix in ``netlist.inputs``
    order.  ``fault_plan`` optionally injects deterministic faults — per
    trial a mapping of global gate-operation index to the zero-based output
    position(s) to flip (a single int or an iterable of positions, the
    k-flip form), matching
    :class:`~repro.pim.faults.DeterministicFaultInjector` semantics.

    ``fault_model`` instead names a declarative
    :class:`~repro.pim.faults.FaultModelSpec` (stochastic / burst /
    stuck-at) and is exclusive with ``fault_plan``.  Stochastic and burst
    models draw from ``stream`` (one :class:`~repro.core.rng.TrialStream`
    row per trial) through the shared :func:`~repro.core.rng.fault_schedule`;
    stuck-at re-applies the stuck value after every gate write to an
    afflicted cell and at every checker-transfer read.
    """
    stuck: Optional[_StuckCells] = None
    matrix = np.asarray(input_matrix, dtype=np.uint8)
    if matrix.ndim != 2 or matrix.shape[1] != plan.n_inputs:
        raise ProtectionError(
            f"input matrix must be (B, {plan.n_inputs}), got shape {matrix.shape}"
        )
    batch = matrix.shape[0]
    if batch == 0:
        raise ProtectionError("a batch needs at least one trial")
    if fault_model is not None and fault_plan is not None:
        raise ProtectionError(
            "a batch takes one fault source: fault_model is exclusive with fault_plan"
        )
    if fault_model is not None and fault_model.kind == "stuck-at":
        stuck = _StuckCells(fault_model, plan.n_cols)
    schedule = fault_schedule(fault_model, stream, plan.fault_sites, batch)
    scheduled = _scheduled_flips(plan, schedule) if schedule is not None else {}
    targets = _deterministic_targets(fault_plan) if fault_plan is not None else {}
    if fault_plan is not None and len(fault_plan) != batch:
        raise ProtectionError("fault_plan must supply one entry per trial")

    state = np.zeros((batch, plan.n_cols), dtype=np.uint8)
    state[:, plan.const1_col] = 1
    state[:, plan.input_cols] = matrix

    detected = np.zeros(batch, dtype=bool)
    corrections = np.zeros(batch, dtype=np.int64)
    uncorrectable = np.zeros(batch, dtype=np.int64)
    faults = schedule.faults.copy() if schedule is not None else np.zeros(batch, dtype=np.int64)

    for index, step in enumerate(plan.steps):
        flips = scheduled.get(index)
        if isinstance(step, GateStep):
            ideal = vector_gate_output(step.gate, state[:, step.input_cols], step.threshold)
            if stuck is not None:
                state[:, step.output_cols] = ideal[:, None]
                faults += stuck.apply(state, step.output_cols)
                continue
            det = targets.get(step.op_index)
            if det is None:
                state[:, step.output_cols] = ideal[:, None]
            else:
                out = np.repeat(ideal[:, None], step.output_cols.shape[0], axis=1)
                rows, positions = det
                flipped = apply_deterministic_flips(out, rows, positions)
                # A k-flip plan can strike one trial several times within the
                # same operation; buffered fancy indexing would count those
                # once, so accumulate unbuffered.
                np.add.at(faults, flipped, 1)
                state[:, step.output_cols] = out
            if flips is not None:
                state[flips] ^= 1
        elif isinstance(step, PresetStep):
            state[:, step.columns] = step.value
            if flips is not None:
                state[flips] ^= 1
        elif isinstance(step, ReadStep):
            if stuck is not None:
                faults += stuck.apply(state, step.columns)
            elif flips is not None:
                state[flips] ^= 1
        elif isinstance(step, EcimCheckStep):
            data = state[:, step.data_cols].astype(np.int64)
            parity = state[:, step.parity_cols].astype(np.int64)
            syndrome = (data @ step.a_t + parity) & 1
            packed = syndrome @ step.weights
            fired = packed != 0
            detected |= fired
            patterns = step.lut[packed]  # (B, t) positions, -1 padded
            valid = patterns >= 0
            # A non-zero syndrome matching no weight-<=t pattern is detected
            # but uncorrectable; pattern positions beyond the level's data
            # width (zero-padding or parity bits) correct nothing visible.
            uncorrectable += fired & ~valid.any(axis=1)
            d = step.data_cols.shape[0]
            is_data = valid & (patterns < d)
            corrections += is_data.sum(axis=1, dtype=np.int64)
            rows, slots = np.nonzero(is_data)
            if rows.size:
                state[rows, step.data_cols[patterns[rows, slots]]] ^= 1
        elif isinstance(step, TrimCheckStep):
            copies = np.stack(
                [state[:, step.data_cols]]
                + [state[:, cols] for cols in step.copy_col_groups]
            )
            total = copies.sum(axis=0, dtype=np.int64)
            voted = (total * 2 > step.n_copies).astype(np.uint8)
            disagree = (total != 0) & (total != step.n_copies)
            detected |= disagree.any(axis=1)
            corrections += (copies[0] != voted).sum(axis=1, dtype=np.int64)
            state[:, step.data_cols] = voted
        else:  # pragma: no cover - defensive
            raise ProtectionError(f"unknown plan step {type(step).__name__}")

    return BatchResult(
        outputs=state[:, plan.output_cols].copy(),
        golden=batched_golden_outputs(plan.netlist, matrix),
        detected=detected,
        corrections=corrections,
        uncorrectable_levels=uncorrectable,
        faults_injected=faults,
    )
