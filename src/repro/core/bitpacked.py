"""Bit-sliced trial engine: one Python ``int`` per column holds every trial.

The uint8 batched interpreter (:mod:`repro.core.batched`) spends one byte
per logical bit and one numpy dispatch per step.  This engine keeps the
``(B, n_cols)`` trial state *bit-sliced* instead: column ``c`` is a single
arbitrary-precision Python ``int`` whose bit ``t`` is trial ``t``'s cell
value, so a gate firing over the whole batch is its closed-form boolean on
those ints — NOR2 is ``full ^ (a | b)``, the paper's THR4 (threshold 3) is
``full ^ (a&b | c&d | (a|b)&(c|d))``, where ``full = (1 << B) - 1`` — and
costs a few big-int ops regardless of B, with no per-step numpy dispatch.

The interpreter walks a compact int tape lowered once per
:class:`~repro.core.soa.SoaPlan` and cached: one interned record per step
(opcode plus column ints), so the ~40k-step mlp16 + ECiM tape holds only
its few thousand distinct records.  Every fault source is lowered once per
call to one XOR int per (tape step, column) with whole-array numpy passes;
the interpreter XORs them in right after their step executes.  numpy is
touched again only for per-trial vectors: an ECiM level's syndrome decode
(or a TRiM level's correction count) when its syndrome (or disagreement)
int is non-zero, and the final unpack.

Equivalence contract (enforced by ``tests/differential/`` and
``tests/golden/``): fault-free, deterministic ``fault_plan`` and every
declarative ``fault_model`` execution (stochastic / burst / stuck-at) is
**byte-identical** to the scalar and batched backends — stochastic and
burst hits come from the batch's shared
:class:`~repro.core.rng.FaultSchedule`, which the scalar injectors consume
as ordinals and this engine as XOR ints.

Bits at or above B are never set: inputs and fault masks are packed from
B-row matrices, and every gate complements against ``full``, so the state
ints stay within ``full`` and :func:`unpack_trials` round-trips them.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.batched import BatchResult, ExecutionPlan, _StuckCells
from repro.core.faultplan import FaultPlanArrays
from repro.core.rng import FaultSchedule, TrialStream, fault_schedule
from repro.core.soa import (
    KIND_ECIM,
    KIND_GATE,
    KIND_PRESET,
    KIND_READ,
    SoaPlan,
    _table_key,
)
from repro.errors import ProtectionError
from repro.pim.faults import FaultModelSpec
from repro.pim.gates import GateType
from repro.pim.vector import TABLE_MAX_INPUTS, truth_table, vector_gate_output

__all__ = [
    "pack_trials",
    "unpack_trials",
    "bitpacked_golden_outputs",
    "run_packed",
]


# ---------------------------------------------------------------------- #
# Pack / unpack transposition helpers
# ---------------------------------------------------------------------- #
def pack_trials(bits: np.ndarray) -> List[int]:
    """Transpose a ``(B, k)`` 0/1 matrix into ``k`` column ints (trial ``t``
    → bit ``t``).  Exact inverse of :func:`unpack_trials` for any B."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ProtectionError(f"expected a (B, k) bit matrix, got shape {bits.shape}")
    if bits.shape[0] == 0:
        return [0] * bits.shape[1]
    return _row_ints(np.packbits(bits.T, axis=1, bitorder="little"))


def _row_ints(rows: np.ndarray) -> List[int]:
    """Each row of a ``(k, width)`` byte matrix as a little-endian int."""
    width = rows.shape[1]
    raw = rows.tobytes()
    return [
        int.from_bytes(raw[start:start + width], "little")
        for start in range(0, len(raw), width)
    ]


def unpack_trials(columns: Sequence[int], batch: int) -> np.ndarray:
    """Transpose column ints back to a ``(batch, k)`` 0/1 uint8 matrix,
    dropping bits at or above ``batch`` within the last byte (an int too
    wide for ``ceil(batch / 8)`` bytes is rejected)."""
    width = (int(batch) + 7) >> 3
    try:
        raw = b"".join(column.to_bytes(width, "little") for column in columns)
    except OverflowError:
        raise ProtectionError(f"a column int holds more than {batch} trials") from None
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(columns), width)
    return np.ascontiguousarray(
        np.unpackbits(rows, axis=1, count=batch, bitorder="little").T
    )


def _xor_ints(keys: np.ndarray, trials: np.ndarray, batch: int) -> Tuple[np.ndarray, List[int]]:
    """Fold (key, trial) flip events into one XOR int per distinct key:
    ``(sorted keys, ints)``.  One ``bitwise_xor.at`` into a packed
    ``(keys, ceil(B/8))`` byte matrix, so a key flipped twice in one trial
    cancels, exactly like applying the flips one by one."""
    unique, inverse = np.unique(keys, return_inverse=True)
    width = (batch + 7) >> 3
    packed = np.zeros((unique.shape[0], width), dtype=np.uint8)
    trials = np.asarray(trials, dtype=np.intp)
    np.bitwise_xor.at(
        packed,
        (inverse.reshape(-1), trials >> 3),
        np.left_shift(1, trials & 7).astype(np.uint8),
    )
    return unique, _row_ints(packed)


# ---------------------------------------------------------------------- #
# The int tape
# ---------------------------------------------------------------------- #
#: Record opcodes, most frequent first (the interpreter tests them in this
#: order).  Gate records end with the tuple of output columns.
(
    _NOR2,    # (op, a, b, outs)
    _THR43,   # (op, a, b, c, d, outs): 1 iff >= 3 of 4 inputs are 0
    _NOT,     # (op, a, outs): NOT and one-input NOR
    _THR32,   # (op, a, b, c, outs): 1 iff >= 2 of 3 inputs are 0
    _COPY,    # (op, a, outs)
    _TABLE,   # (op, program, ins, outs): any other gate, program(values, full) -> int
    _PRESET,  # (op, value bit, cols)
    _READ,    # (op,): a no-op unless a fault lands on it
    _ECIM,    # (op, ((parity col, covered data cols), ...), data cols, lut rows, weights)
    _TRIM3,   # (op, ((data col, copy col, copy col), ...))
    _TRIM,    # (op, data cols, copy col groups, n_copies)
) = range(11)


@lru_cache(maxsize=None)
def _table_program(gate: str, n_inputs: int, threshold: Optional[int]) -> Callable:
    """Any gate as an int program: OR of AND-minterms of its truth table
    (inverted through the complement table when that has fewer terms), or
    — past TABLE_MAX_INPUTS — a bounce through the uint8 vector model."""
    if n_inputs > TABLE_MAX_INPUTS:
        def wide(values: Sequence[int], full: int) -> int:
            batch = full.bit_length()
            bits = unpack_trials(values, batch)
            return pack_trials(vector_gate_output(gate, bits, threshold)[:, None])[0]

        return wide
    table = truth_table(gate, n_inputs, threshold)
    invert = int(table.sum()) > table.size // 2
    minterms = [
        tuple((int(index) >> j) & 1 for j in range(n_inputs))
        for index in np.nonzero(table == 0 if invert else table != 0)[0]
    ]

    def program(values: Sequence[int], full: int) -> int:
        acc = 0
        for term in minterms:
            product = full
            for value, bit in zip(values, term):
                product &= value if bit else full ^ value
            acc |= product
        return full ^ acc if invert else acc

    return program


def _gate_record(
    key: Tuple[str, int, Optional[int]], ins: Tuple[int, ...], outs: Tuple[int, ...]
) -> tuple:
    """One firing of canonical table ``key`` (see
    :func:`~repro.core.soa._table_key`) as an int-tape record."""
    gate, n_inputs, threshold = key
    if gate == GateType.NOR and n_inputs == 2:
        return (_NOR2, ins[0], ins[1], outs)
    if gate == GateType.THR and n_inputs == 4 and threshold == 3:
        return (_THR43, ins[0], ins[1], ins[2], ins[3], outs)
    if gate == GateType.NOT or (gate == GateType.NOR and n_inputs == 1):
        return (_NOT, ins[0], outs)
    if gate == GateType.THR and n_inputs == 3 and threshold == 2:
        return (_THR32, ins[0], ins[1], ins[2], outs)
    if gate == GateType.COPY:
        return (_COPY, ins[0], outs)
    return (_TABLE, _table_program(gate, n_inputs, threshold), ins, outs)


class _Interner:
    """Shares column ints and identical records across a tape: the mlp16 +
    ECiM tape's ~40k steps are ~5k distinct records, because the parity
    updates reuse a few column tuples."""

    def __init__(self, n_cols: int) -> None:
        self.ints = list(range(n_cols))
        self._records: Dict[tuple, tuple] = {}

    def cols(self, columns) -> Tuple[int, ...]:
        ints = self.ints
        return tuple(ints[column] for column in columns)

    def record(self, record: tuple) -> tuple:
        return self._records.setdefault(record, record)


def _signal_slot(netlist: Netlist, signal: int) -> int:
    """Value-list index of a signal: its id, with CONST_ZERO and CONST_ONE
    after the last one."""
    if signal >= 0:
        return signal
    return netlist.n_signals + (signal == Netlist.CONST_ONE)


def _golden_records(netlist: Netlist) -> List[tuple]:
    """The netlist's gates as int-tape records over signal slots."""
    interner = _Interner(netlist.n_signals + 2)
    return [
        interner.record(_gate_record(
            _table_key(node.gate, len(node.inputs), node.threshold),
            interner.cols(_signal_slot(netlist, signal) for signal in node.inputs),
            interner.cols((node.output,)),
        ))
        for node in netlist.gates
    ]


class _IntTape:
    """A :class:`SoaPlan` as interned int-tape records, plus the golden
    netlist's records — built once per plan (see :func:`_int_tape`)."""

    def __init__(self, soa: SoaPlan) -> None:
        interner = _Interner(soa.n_cols)
        cols = interner.cols
        gate_in = soa.gate_in_cols.tolist()
        gate_in_ptr = soa.gate_in_ptr.tolist()
        gate_out = soa.gate_out_cols.tolist()
        gate_out_ptr = soa.gate_out_ptr.tolist()
        tables = soa.tables
        table_ids = soa.gate_table_id.tolist()
        read = interner.record((_READ,))
        records = []
        for kind, slot in zip(soa.step_kind.tolist(), soa.step_slot.tolist()):
            if kind == KIND_GATE:
                records.append(interner.record(_gate_record(
                    tables[table_ids[slot]],
                    cols(gate_in[gate_in_ptr[slot]:gate_in_ptr[slot + 1]]),
                    cols(gate_out[gate_out_ptr[slot]:gate_out_ptr[slot + 1]]),
                )))
            elif kind == KIND_PRESET:
                columns = soa.preset_cols[soa.preset_ptr[slot]:soa.preset_ptr[slot + 1]]
                records.append(interner.record(
                    (_PRESET, int(soa.preset_values[slot]), cols(columns.tolist()))
                ))
            elif kind == KIND_READ:
                records.append(read)
            elif kind == KIND_ECIM:
                records.append(self._ecim_record(soa, slot, interner))
            else:
                records.append(self._trim_record(soa, slot, interner))
        self.records = records
        self.const1_col = soa.plan.const1_col
        self.input_cols = cols(soa.plan.input_cols.tolist())
        self.output_cols = cols(soa.plan.output_cols.tolist())
        self.golden = _golden_records(soa.plan.netlist)

    @staticmethod
    def _ecim_record(soa: SoaPlan, slot: int, interner: _Interner) -> tuple:
        data_cols = soa.ecim_data_cols[soa.ecim_data_ptr[slot]:soa.ecim_data_ptr[slot + 1]]
        parity_cols = soa.ecim_parity_cols[
            soa.ecim_parity_ptr[slot]:soa.ecim_parity_ptr[slot + 1]
        ]
        a_t = soa.ecim_a_t[slot]
        terms = tuple(
            (
                interner.ints[parity],
                interner.cols(data_cols[np.flatnonzero(a_t[:, bit])].tolist()),
            )
            for bit, parity in enumerate(parity_cols.tolist())
        )
        offset = int(soa.ecim_lut_offset[slot])
        lut = soa.ecim_lut[offset:offset + (1 << len(terms))]
        return (
            _ECIM, terms, interner.cols(data_cols.tolist()), lut, soa.ecim_weights[slot]
        )

    @staticmethod
    def _trim_record(soa: SoaPlan, slot: int, interner: _Interner) -> tuple:
        data_cols = interner.cols(
            soa.trim_data_cols[soa.trim_data_ptr[slot]:soa.trim_data_ptr[slot + 1]].tolist()
        )
        groups = tuple(interner.cols(group.tolist()) for group in soa.trim_copy_groups[slot])
        n_copies = int(soa.trim_n_copies[slot])
        if n_copies == 3 and len(groups) == 2:
            return (_TRIM3, tuple(zip(data_cols, *groups)))
        return (_TRIM, data_cols, groups, n_copies)


#: One int tape per live SoaPlan (the tape holds no reference back to it).
_TAPES: "weakref.WeakKeyDictionary[SoaPlan, _IntTape]" = weakref.WeakKeyDictionary()


def _int_tape(soa: SoaPlan) -> _IntTape:
    tape = _TAPES.get(soa)
    if tape is None:
        tape = _TAPES[soa] = _IntTape(soa)
    return tape


# ---------------------------------------------------------------------- #
# Interpretation
# ---------------------------------------------------------------------- #
#: The end of an event stream: a step past the end of any tape.
_NO_EVENT = (1 << 62, 0, 0)


class _Machine:
    """One batch's bit-sliced state plus its per-trial outcome accumulators."""

    def __init__(self, state: List[int], batch: int) -> None:
        self.state = state
        self.batch = batch
        self.full = (1 << batch) - 1
        self.detected = 0
        self.corrections = np.zeros(batch, dtype=np.int64)
        self.uncorrectable = np.zeros(batch, dtype=np.int64)
        #: Per-trial counts still to add to ``faults_injected``, as ints
        #: (stuck-at bits that actually changed).
        self.fault_ints: List[int] = []

    def execute(
        self,
        records: Sequence[tuple],
        flips: Sequence[Tuple[int, int, int]] = (),
        stuck: Sequence[Tuple[int, int]] = (),
        stuck_value: int = 0,
    ) -> None:
        """Run ``records`` in order.  Right after step ``i`` executes, XOR
        ``mask`` into ``column`` for every ``(i, column, mask)`` of
        ``flips``, and force every ``column`` of a ``(i, column)`` of
        ``stuck`` to ``stuck_value``.  Both are sorted by step."""
        s = self.state
        full = self.full
        flips = iter(flips)
        flip_step, flip_col, flip_mask = next(flips, _NO_EVENT)
        stuck = iter(stuck)
        stuck_step, stuck_col = next(stuck, _NO_EVENT[:2])
        next_hot = min(flip_step, stuck_step)
        for index, rec in enumerate(records):
            op = rec[0]
            if op == _NOR2:
                value = full ^ (s[rec[1]] | s[rec[2]])
                for col in rec[3]:
                    s[col] = value
            elif op == _THR43:
                a = s[rec[1]]
                b = s[rec[2]]
                c = s[rec[3]]
                d = s[rec[4]]
                value = full ^ (a & b | c & d | (a | b) & (c | d))
                for col in rec[5]:
                    s[col] = value
            elif op == _NOT:
                value = full ^ s[rec[1]]
                for col in rec[2]:
                    s[col] = value
            elif op == _THR32:
                a = s[rec[1]]
                b = s[rec[2]]
                c = s[rec[3]]
                value = full ^ (a & b | c & (a | b))
                for col in rec[4]:
                    s[col] = value
            elif op == _COPY:
                value = s[rec[1]]
                for col in rec[2]:
                    s[col] = value
            elif op == _READ:
                pass
            elif op == _PRESET:
                value = full if rec[1] else 0
                for col in rec[2]:
                    s[col] = value
            elif op == _ECIM:
                self._ecim(rec)
            elif op == _TRIM3:
                self._trim3(rec[1])
            elif op == _TABLE:
                value = rec[1]([s[col] for col in rec[2]], full)
                for col in rec[3]:
                    s[col] = value
            elif op == _TRIM:
                self._trim(rec)
            else:  # pragma: no cover - defensive
                raise ProtectionError(f"unknown int-tape opcode {op}")
            if index == next_hot:
                while flip_step == index:
                    s[flip_col] ^= flip_mask
                    flip_step, flip_col, flip_mask = next(flips, _NO_EVENT)
                while stuck_step == index:
                    changed = s[stuck_col] ^ stuck_value
                    if changed:
                        self.fault_ints.append(changed)
                        s[stuck_col] = stuck_value
                    stuck_step, stuck_col = next(stuck, _NO_EVENT[:2])
                next_hot = min(flip_step, stuck_step)

    def _ecim(self, rec: tuple) -> None:
        """Fold each parity bit's syndrome int; decode per trial only when
        some trial's syndrome is non-zero."""
        _, terms, data_cols, lut, weights = rec
        s = self.state
        syndromes = []
        fired = 0
        for parity_col, covered in terms:
            syndrome = s[parity_col]
            for col in covered:
                syndrome ^= s[col]
            syndromes.append(syndrome)
            fired |= syndrome
        if not fired:
            return
        self.detected |= fired
        packed = unpack_trials(syndromes, self.batch).astype(np.int64) @ weights
        rows = np.flatnonzero(packed)
        patterns = lut[packed[rows]]
        valid = patterns >= 0
        self.uncorrectable[rows[~valid.any(axis=1)]] += 1
        hit_rows, hit_slots = np.nonzero(valid & (patterns < len(data_cols)))
        if hit_rows.size:
            trials = rows[hit_rows]
            self.corrections += np.bincount(trials, minlength=self.batch)
            positions, masks = _xor_ints(patterns[hit_rows, hit_slots], trials, self.batch)
            for position, mask in zip(positions.tolist(), masks):
                s[data_cols[position]] ^= mask

    def _trim3(self, triples: Tuple[Tuple[int, int, int], ...]) -> None:
        """Three-copy majority vote per data bit, all trials at once."""
        s = self.state
        fixes = []
        for data_col, copy1_col, copy2_col in triples:
            a = s[data_col]
            b = s[copy1_col]
            c = s[copy2_col]
            if a == b == c:
                continue
            self.detected |= (a ^ b) | (a ^ c)
            voted = a & b | c & (a | b)
            if voted != a:
                fixes.append(a ^ voted)
                s[data_col] = voted
        if fixes:
            self.corrections += unpack_trials(fixes, self.batch).sum(axis=1, dtype=np.int64)

    def _trim(self, rec: tuple) -> None:
        """Majority vote over any number of copies, through per-trial bits."""
        _, data_cols, groups, n_copies = rec
        s = self.state
        data = unpack_trials([s[col] for col in data_cols], self.batch)
        total = data.astype(np.int64)
        for group in groups:
            total += unpack_trials([s[col] for col in group], self.batch)
        voted = (total * 2 > n_copies).astype(np.uint8)
        disagree = ((total != 0) & (total != n_copies)).any(axis=1)
        self.detected |= pack_trials(disagree[:, None])[0]
        self.corrections += (data != voted).sum(axis=1, dtype=np.int64)
        for col, value in zip(data_cols, pack_trials(voted)):
            s[col] = value


# ---------------------------------------------------------------------- #
# Packed golden model
# ---------------------------------------------------------------------- #
def _golden(
    records: Sequence[tuple], netlist: Netlist, inputs: Sequence[int], batch: int
) -> np.ndarray:
    values = [0] * (netlist.n_signals + 2)
    values[_signal_slot(netlist, Netlist.CONST_ONE)] = (1 << batch) - 1
    for signal, value in zip(netlist.inputs, inputs):
        values[signal] = value
    _Machine(values, batch).execute(records)
    return unpack_trials(
        [values[_signal_slot(netlist, signal)] for signal in netlist.outputs], batch
    )


def bitpacked_golden_outputs(
    netlist: Netlist, input_columns: Sequence[int], batch: int
) -> np.ndarray:
    """Fault-free netlist outputs for all B trials from the inputs' column
    ints, evaluated bit-sliced — byte-identical to
    :func:`~repro.core.batched.batched_golden_outputs` because both reduce
    to the same truth tables."""
    return _golden(_golden_records(netlist), netlist, input_columns, batch)


# ---------------------------------------------------------------------- #
# Fault-source lowering: (key, trial) flip events, key = step * n_cols + col
# ---------------------------------------------------------------------- #
def _concat_events(
    keys: List[np.ndarray], trials: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    if not keys:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.intp)
    return np.concatenate(keys), np.concatenate(trials)


def _flip_table(
    keys: np.ndarray, trials: np.ndarray, n_cols: int, batch: int
) -> List[Tuple[int, int, int]]:
    """``(step, column, XOR int)`` of a whole batch's events, by step."""
    if not keys.size:
        return []
    unique, masks = _xor_ints(keys, trials, batch)
    steps, cols = np.divmod(unique, n_cols)
    return list(zip(steps.tolist(), cols.tolist(), masks))


def _deterministic_events(
    soa: SoaPlan, plan_arrays: FaultPlanArrays, batch: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flip events of a whole batch of deterministic plans, in a handful of
    numpy passes: map plan operations to gate slots, drop unknown
    operations and out-of-range positions (both inject nothing, exactly as
    on the uint8 engine) and count the surviving flips per trial."""
    trials = plan_arrays.trial_of_entry().astype(np.int64, copy=False)
    ops = plan_arrays.op_index
    positions = plan_arrays.position
    slot_table = soa.gate_slot_of_op
    known = (ops >= 0) & (ops < slot_table.shape[0])
    slots = np.where(known, slot_table[np.where(known, ops, 0)], -1)
    widths = np.diff(soa.gate_out_ptr)
    valid = (slots >= 0) & (positions >= 0)
    valid &= positions < widths[np.where(valid, slots, 0)]
    trials, slots, positions = trials[valid], slots[valid], positions[valid]
    faults = np.bincount(trials, minlength=batch).astype(np.int64, copy=False)
    columns = soa.gate_out_cols[soa.gate_out_ptr[slots] + positions]
    keys = soa.gate_step_index[slots].astype(np.int64) * soa.n_cols + columns
    return keys, trials, faults


def _scheduled_events(
    plan: ExecutionPlan, schedule: FaultSchedule
) -> Tuple[np.ndarray, np.ndarray]:
    """Flip events of a batch's fault schedule; count-only presets (gate
    outputs the firing overwrites) hold no state and add no event."""
    site_map = plan.site_map
    rows, entries = site_map.held_hits(schedule)
    keys = site_map.steps[entries].astype(np.int64) * plan.n_cols + site_map.columns[entries]
    return keys, rows


def _stuck_steps(soa: SoaPlan, stuck: _StuckCells) -> List[Tuple[int, int]]:
    """``(step, column)`` of every gate commit and checker read that touches
    an afflicted cell, by step — the scalar injector's touch points
    (presets and checker write-backs bypass it)."""
    steps, columns = [], []
    read_steps = np.flatnonzero(soa.step_kind == KIND_READ)
    for step_of_slot, ptr, cols in (
        (soa.gate_step_index, soa.gate_out_ptr, soa.gate_out_cols),
        (read_steps, soa.read_ptr, soa.read_cols),
    ):
        hit = stuck.is_stuck[cols]
        steps.append(np.repeat(step_of_slot, np.diff(ptr))[hit])
        columns.append(cols[hit])
    steps, columns = np.concatenate(steps), np.concatenate(columns)
    order = np.argsort(steps, kind="stable")
    return list(zip(steps[order].tolist(), columns[order].tolist()))


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def run_packed(
    soa: SoaPlan,
    input_matrix: np.ndarray,
    fault_plan: "Union[Sequence[Mapping[int, int]], FaultPlanArrays, None]" = None,
    fault_model: Optional[FaultModelSpec] = None,
    stream: Optional[TrialStream] = None,
) -> BatchResult:
    """Interpret the SoA tape for all B trials, bit-sliced.

    The argument surface and semantics mirror
    :func:`~repro.core.batched.run_batch` exactly.
    """
    plan = soa.plan
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

    stuck: Optional[_StuckCells] = None
    event_keys: List[np.ndarray] = []
    event_trials: List[np.ndarray] = []
    faults = np.zeros(batch, dtype=np.int64)
    if fault_model is not None and fault_model.kind == "stuck-at":
        stuck = _StuckCells(fault_model, plan.n_cols)
    schedule = fault_schedule(fault_model, stream, plan.fault_sites, batch)
    if schedule is not None:
        keys, trials = _scheduled_events(plan, schedule)
        event_keys.append(keys)
        event_trials.append(trials)
        faults += schedule.faults

    if fault_plan is not None:
        if len(fault_plan) != batch:
            raise ProtectionError("fault_plan must supply one entry per trial")
        keys, trials, plan_faults = _deterministic_events(
            soa, FaultPlanArrays.coerce(fault_plan), batch
        )
        event_keys.append(keys)
        event_trials.append(trials)
        faults += plan_faults

    tape = _int_tape(soa)
    flips = _flip_table(*_concat_events(event_keys, event_trials), soa.n_cols, batch)
    inputs = pack_trials(matrix)
    state = [0] * soa.n_cols
    machine = _Machine(state, batch)
    state[tape.const1_col] = machine.full
    for col, value in zip(tape.input_cols, inputs):
        state[col] = value
    stuck_value = 0
    stuck_at: List[Tuple[int, int]] = []
    if stuck is not None:
        stuck_value = machine.full if stuck.value else 0
        stuck_at = _stuck_steps(soa, stuck)
    machine.execute(tape.records, flips, stuck_at, stuck_value)
    if machine.fault_ints:
        faults += unpack_trials(machine.fault_ints, batch).sum(axis=1, dtype=np.int64)

    return BatchResult(
        outputs=unpack_trials([state[col] for col in tape.output_cols], batch),
        golden=_golden(tape.golden, plan.netlist, inputs, batch),
        detected=unpack_trials([machine.detected], batch)[:, 0].astype(bool),
        corrections=machine.corrections,
        uncorrectable_levels=machine.uncorrectable,
        faults_injected=faults,
    )
