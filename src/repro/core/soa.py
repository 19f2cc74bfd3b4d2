"""Structure-of-arrays lowering of :class:`~repro.core.batched.ExecutionPlan`.

The batched interpreter walks a tuple of per-step dataclasses and re-derives
everything it needs (column lists, truth-table identity, output arity) from
Python attribute access on every step of every batch.  That is fine for a
uint8 interpreter whose per-step numpy work dwarfs the dispatch, but the
bit-sliced engine (:mod:`repro.core.bitpacked`) runs each step as a few
big-int operations — at that scale the object walk *is* the interpreter
loop.

:func:`lower_plan` therefore flattens the tape once, at compile time, into
dense index/metadata buffers per step kind (which the bit-sliced engine
lowers once more, per plan, into its interned int-tape records):

* a ``step_kind`` / ``step_slot`` dispatch pair over the whole tape
  (``step_slot[i]`` indexes the per-kind arrays below);
* the **gate tape** in CSR form — ``gate_in_ptr``/``gate_in_cols`` and
  ``gate_out_ptr``/``gate_out_cols`` — plus per-firing operation index,
  metadata flag, logic level and a ``gate_table_id`` into the deduplicated
  truth-table registry ``tables`` (one entry per distinct
  ``(gate, n_inputs, threshold)``);
* the **preset** and **read** tapes (CSR column lists, preset values);
* the **ECiM tape**: CSR data/parity column lists, per-check ``a_t``
  matrices, and all decode tables concatenated into one ``ecim_lut``
  buffer addressed by per-check ``ecim_lut_offset`` — row
  ``lut[offset + syndrome]`` decodes the syndrome whose bit ``j`` is
  parity bit ``j``;
* the **TRiM tape**: CSR data column lists plus the redundant-copy column
  groups and copy counts per vote;
* the **inverse gate maps** array-native deterministic plans need (tape
  step of each gate slot, gate slot of each operation index).

The per-class stochastic fault sites live on the plan itself
(:attr:`~repro.core.batched.ExecutionPlan.site_map`), shared by every
backend that consumes a :class:`~repro.core.rng.FaultSchedule`.

Lowering is pure bookkeeping: the SoA plan references the original
:class:`ExecutionPlan` (``soa.plan``) for netlist/layout metadata, and every
array is read-only so one lowered plan can serve any number of concurrent
batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.batched import (
    EcimCheckStep,
    ExecutionPlan,
    GateStep,
    PresetStep,
    ReadStep,
    TrimCheckStep,
)
from repro.errors import ProtectionError
from repro.pim.gates import GateType

__all__ = [
    "KIND_GATE",
    "KIND_PRESET",
    "KIND_READ",
    "KIND_ECIM",
    "KIND_TRIM",
    "SoaPlan",
    "lower_plan",
]

#: Dense step-kind codes of the ``step_kind`` dispatch array.
KIND_GATE, KIND_PRESET, KIND_READ, KIND_ECIM, KIND_TRIM = range(5)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _csr(chunks) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a list of index arrays into (ptr, flat) CSR buffers."""
    ptr = np.zeros(len(chunks) + 1, dtype=np.intp)
    for i, chunk in enumerate(chunks):
        ptr[i + 1] = ptr[i] + len(chunk)
    flat = (
        np.concatenate([np.asarray(c, dtype=np.intp) for c in chunks])
        if chunks
        else np.zeros(0, dtype=np.intp)
    )
    return _frozen(ptr), _frozen(flat.astype(np.intp, copy=False))


def _table_key(
    gate: str, n_inputs: int, threshold: Optional[int]
) -> Tuple[str, int, Optional[int]]:
    """Canonical truth-table identity of one firing: THR normalises its
    default threshold (the paper's 3) so e.g. ``thr/None`` and ``thr/3``
    share a table id, every other gate carries no threshold at all."""
    if gate == GateType.THR:
        return (gate, n_inputs, 3 if threshold is None else int(threshold))
    return (gate, n_inputs, None)


@dataclass(eq=False, frozen=True)
class SoaPlan:
    """One :class:`ExecutionPlan` lowered to contiguous per-kind buffers."""

    plan: ExecutionPlan

    # Whole-tape dispatch: step i is kind step_kind[i], entry step_slot[i]
    # of that kind's arrays.
    step_kind: np.ndarray   # (n_steps,) int8
    step_slot: np.ndarray   # (n_steps,) intp

    # Gate tape (CSR over firings).
    tables: Tuple[Tuple[str, int, Optional[int]], ...]
    gate_table_id: np.ndarray     # (n_gates,) intp → tables
    gate_op_index: np.ndarray     # (n_gates,) int64
    gate_is_metadata: np.ndarray  # (n_gates,) bool
    gate_logic_level: np.ndarray  # (n_gates,) int64
    gate_names: Tuple[str, ...]
    gate_in_ptr: np.ndarray
    gate_in_cols: np.ndarray
    gate_out_ptr: np.ndarray
    gate_out_cols: np.ndarray

    # Preset tape.
    preset_values: np.ndarray     # (n_presets,) uint8
    preset_ptr: np.ndarray
    preset_cols: np.ndarray

    # Read tape.
    read_ptr: np.ndarray
    read_cols: np.ndarray

    # ECiM check tape: CSR column lists + per-check GF(2) operators and one
    # concatenated decode table addressed as lut[offset[c] + syndrome].
    ecim_data_ptr: np.ndarray
    ecim_data_cols: np.ndarray
    ecim_parity_ptr: np.ndarray
    ecim_parity_cols: np.ndarray
    ecim_a_t: Tuple[np.ndarray, ...]      # per check, (d, r) int64
    ecim_lut: np.ndarray                  # (sum 2^r, t_max) int64, -1 padded
    ecim_lut_offset: np.ndarray           # (n_checks,) intp

    # TRiM vote tape.
    trim_data_ptr: np.ndarray
    trim_data_cols: np.ndarray
    trim_copy_groups: Tuple[Tuple[np.ndarray, ...], ...]
    trim_n_copies: np.ndarray             # (n_checks,) int64

    #: Inverse gate maps for array-native deterministic plans
    #: (:mod:`repro.core.faultplan`): tape step index of each gate slot,
    #: and gate slot of each global operation index (-1 for indices no
    #: firing carries — those plan entries inject nothing, like the dict
    #: path).
    gate_step_index: np.ndarray   # (n_gates,) intp
    gate_slot_of_op: np.ndarray   # (max_op + 1,) intp, -1 padded

    # ------------------------------------------------------------------ #
    # Plan metadata passthrough
    # ------------------------------------------------------------------ #
    @property
    def n_steps(self) -> int:
        return int(self.step_kind.shape[0])

    @property
    def n_gate_steps(self) -> int:
        return int(self.gate_table_id.shape[0])

    @property
    def n_cols(self) -> int:
        return self.plan.n_cols

    @property
    def n_inputs(self) -> int:
        return self.plan.n_inputs

    @property
    def n_outputs(self) -> int:
        return self.plan.n_outputs


def lower_plan(plan: ExecutionPlan) -> SoaPlan:
    """Lower one compiled instruction tape into its SoA form."""
    kinds, slots = [], []
    tables: Dict[Tuple[str, int, Optional[int]], int] = {}
    gate_table_id, gate_op, gate_meta, gate_level, gate_names = [], [], [], [], []
    gate_ins, gate_outs = [], []
    preset_values, preset_chunks = [], []
    read_chunks = []
    ecim_data, ecim_parity, ecim_a_t, ecim_luts = [], [], [], []
    trim_data, trim_groups, trim_copies = [], [], []

    for step in plan.steps:
        if isinstance(step, GateStep):
            kinds.append(KIND_GATE)
            slots.append(len(gate_table_id))
            key = _table_key(step.gate, int(step.input_cols.shape[0]), step.threshold)
            gate_table_id.append(tables.setdefault(key, len(tables)))
            gate_op.append(step.op_index)
            gate_meta.append(step.is_metadata)
            gate_level.append(step.logic_level)
            gate_names.append(step.gate)
            gate_ins.append(step.input_cols)
            gate_outs.append(step.output_cols)
        elif isinstance(step, PresetStep):
            kinds.append(KIND_PRESET)
            slots.append(len(preset_values))
            preset_values.append(step.value)
            preset_chunks.append(step.columns)
        elif isinstance(step, ReadStep):
            kinds.append(KIND_READ)
            slots.append(len(read_chunks))
            read_chunks.append(step.columns)
        elif isinstance(step, EcimCheckStep):
            kinds.append(KIND_ECIM)
            slots.append(len(ecim_data))
            ecim_data.append(step.data_cols)
            ecim_parity.append(step.parity_cols)
            ecim_a_t.append(step.a_t)
            ecim_luts.append(step.lut)
        elif isinstance(step, TrimCheckStep):
            kinds.append(KIND_TRIM)
            slots.append(len(trim_data))
            trim_data.append(step.data_cols)
            trim_groups.append(tuple(step.copy_col_groups))
            trim_copies.append(step.n_copies)
        else:  # pragma: no cover - defensive
            raise ProtectionError(f"unknown plan step {type(step).__name__}")

    gate_in_ptr, gate_in_cols = _csr(gate_ins)
    gate_out_ptr, gate_out_cols = _csr(gate_outs)
    preset_ptr, preset_cols = _csr(preset_chunks)
    read_ptr, read_cols = _csr(read_chunks)
    ecim_data_ptr, ecim_data_cols = _csr(ecim_data)
    ecim_parity_ptr, ecim_parity_cols = _csr(ecim_parity)
    trim_data_ptr, trim_data_cols = _csr(trim_data)

    # Concatenate the per-check decode tables (-1 padded to the widest
    # correction capability) so a flat interpreter can address row
    # ``lut[offset[c] + packed_syndrome]``.
    t_max = max((lut.shape[1] for lut in ecim_luts), default=1)
    lut_rows = sum(lut.shape[0] for lut in ecim_luts)
    ecim_lut = np.full((lut_rows, t_max), -1, dtype=np.int64)
    ecim_lut_offset = np.zeros(len(ecim_luts), dtype=np.intp)
    row = 0
    for check, lut in enumerate(ecim_luts):
        ecim_lut_offset[check] = row
        ecim_lut[row:row + lut.shape[0], : lut.shape[1]] = lut
        row += lut.shape[0]

    # Inverse gate maps: slots were appended in tape order, so gate slot s
    # is the s-th KIND_GATE step of the dispatch array.
    kind_array = np.asarray(kinds, dtype=np.int8)
    gate_step_index = np.flatnonzero(kind_array == KIND_GATE).astype(np.intp)
    op_array = np.asarray(gate_op, dtype=np.int64)
    slot_of_op = np.full(
        int(op_array.max()) + 1 if op_array.size else 0, -1, dtype=np.intp
    )
    if op_array.size:
        slot_of_op[op_array] = np.arange(op_array.shape[0], dtype=np.intp)

    return SoaPlan(
        plan=plan,
        step_kind=_frozen(np.asarray(kinds, dtype=np.int8)),
        step_slot=_frozen(np.asarray(slots, dtype=np.intp)),
        tables=tuple(tables),
        gate_table_id=_frozen(np.asarray(gate_table_id, dtype=np.intp)),
        gate_op_index=_frozen(np.asarray(gate_op, dtype=np.int64)),
        gate_is_metadata=_frozen(np.asarray(gate_meta, dtype=bool)),
        gate_logic_level=_frozen(np.asarray(gate_level, dtype=np.int64)),
        gate_names=tuple(gate_names),
        gate_in_ptr=gate_in_ptr,
        gate_in_cols=gate_in_cols,
        gate_out_ptr=gate_out_ptr,
        gate_out_cols=gate_out_cols,
        preset_values=_frozen(np.asarray(preset_values, dtype=np.uint8)),
        preset_ptr=preset_ptr,
        preset_cols=preset_cols,
        read_ptr=read_ptr,
        read_cols=read_cols,
        ecim_data_ptr=ecim_data_ptr,
        ecim_data_cols=ecim_data_cols,
        ecim_parity_ptr=ecim_parity_ptr,
        ecim_parity_cols=ecim_parity_cols,
        ecim_a_t=tuple(ecim_a_t),
        ecim_lut=_frozen(ecim_lut),
        ecim_lut_offset=_frozen(ecim_lut_offset),
        trim_data_ptr=trim_data_ptr,
        trim_data_cols=trim_data_cols,
        trim_copy_groups=tuple(trim_groups),
        trim_n_copies=_frozen(np.asarray(trim_copies, dtype=np.int64)),
        gate_step_index=_frozen(gate_step_index),
        gate_slot_of_op=_frozen(slot_of_op),
    )
