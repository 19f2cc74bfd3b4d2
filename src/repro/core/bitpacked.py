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
``tests/golden/``):

* fault-free, deterministic ``fault_plan`` and declarative ``fault_model``
  executions (stochastic / burst / stuck-at) are **byte-identical** to the
  scalar and batched backends from shared per-trial seeds — stochastic
  masks are drawn from the very same per-trial Philox streams in tape
  order; burst flip decisions are data-independent, so they are replayed
  through the batched :class:`~repro.core.batched._BurstInjection` state
  machine verbatim;
* legacy ``model=FaultModel(...)`` executions are *statistically*
  equivalent and reproducible per trial seed (the same contract batched
  already has vs scalar: each backend owns its legacy stream discipline).
  Here the discipline is **geometric skip-sampling**: per trial, per fault
  class, a ``random.Random(seed)`` walk emits the gaps between Bernoulli
  hits directly (``gap = floor(log1p(-u) / log1p(-p))``), so a campaign
  cell at rate 1e-3 samples ~2 flips instead of ~1700 uniforms per trial.

Bits at or above B are never set: inputs and fault masks are packed from
B-row matrices, and every gate complements against ``full``, so the state
ints stay within ``full`` and :func:`unpack_trials` round-trips them.
"""

from __future__ import annotations

import math
import random
import weakref
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.batched import (
    BatchResult,
    _BurstInjection,
    _StuckCells,
    _uniform_row,
    _uniform_streams,
)
from repro.core.faultplan import FaultPlanArrays
from repro.core.soa import (
    KIND_ECIM,
    KIND_GATE,
    KIND_PRESET,
    KIND_READ,
    SoaPlan,
    _table_key,
)
from repro.errors import ProtectionError
from repro.pim.faults import FaultModel, FaultModelSpec
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
def _site_keys(soa: SoaPlan, steps: np.ndarray, lanes: np.ndarray, kind: int) -> np.ndarray:
    """Event keys of (tape step, lane) sites of one step kind."""
    slots = soa.step_slot[steps]
    if kind == KIND_GATE:
        columns = soa.gate_out_cols[soa.gate_out_ptr[slots] + lanes]
    elif kind == KIND_PRESET:
        columns = soa.preset_cols[soa.preset_ptr[slots] + lanes]
    else:
        columns = soa.read_cols[soa.read_ptr[slots] + lanes]
    return steps.astype(np.int64) * soa.n_cols + columns


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
    keys = _site_keys(soa, soa.gate_step_index[slots], positions, KIND_GATE)
    return keys, trials, faults


def _require_seeds(kind: str, fault_seeds, batch: int) -> None:
    if fault_seeds is None or len(fault_seeds) != batch:
        raise ProtectionError(
            f"{kind} fault injection needs one fault seed per trial "
            f"(got {None if fault_seeds is None else len(fault_seeds)} "
            f"for {batch} trials)"
        )


def _stochastic_events(
    soa: SoaPlan, model: FaultModel, fault_seeds: Sequence[int], n_draws: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flip events from the shared per-trial Philox streams, consumed in
    exactly the batched interpreter's draw order — the byte-identity path of
    the declarative stochastic model.

    Per step in tape order a trial draws: on a gate, one count-only preset
    draw per output (gate presets are overwritten by the firing) and then
    one flip draw per output; on a preset or read step, one draw per cell —
    each group only when its rate is non-zero.  The draw layout is built as
    arrays and sorted by (step, group, lane) instead of walking the tape,
    and each trial's stream is compared against it as it is generated, so
    the (B, n_draws) stream matrix is never held.
    """
    parts = []

    def draws(steps, lanes, group, rate, kind=None):
        """One draw per site at ``rate``; ``kind`` None marks count-only."""
        n = steps.shape[0]
        keys = np.full(n, -1, dtype=np.int64) if kind is None else _site_keys(
            soa, steps, lanes, kind
        )
        parts.append((steps, lanes, np.full(n, group), np.full(n, rate), keys))

    gate_sites = (soa.gate_site_step, soa.gate_site_lane)
    meta_sites = (soa.meta_site_step, soa.meta_site_lane)
    if model.preset_error_rate > 0.0:
        draws(*gate_sites, 0, model.preset_error_rate)
        draws(*meta_sites, 0, model.preset_error_rate)
        draws(soa.preset_site_step, soa.preset_site_lane, 1, model.preset_error_rate,
              KIND_PRESET)
    if model.gate_error_rate > 0.0:
        draws(*gate_sites, 1, model.gate_error_rate, KIND_GATE)
    if model.effective_metadata_error_rate > 0.0:
        draws(*meta_sites, 1, model.effective_metadata_error_rate, KIND_GATE)
    if model.memory_error_rate > 0.0:
        draws(soa.read_site_step, soa.read_site_lane, 1, model.memory_error_rate, KIND_READ)
    steps, lanes, order_group, rates, keys = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((lanes, order_group, steps))
    rates, keys = rates[order], keys[order]
    hits = [np.flatnonzero(_uniform_row(seed, n_draws) < rates) for seed in fault_seeds]
    faults = np.fromiter((row.shape[0] for row in hits), np.int64, len(hits))
    hit_keys = keys[np.concatenate(hits)]
    trials = np.repeat(np.arange(len(hits), dtype=np.intp), faults)
    applied = hit_keys >= 0
    return hit_keys[applied], trials[applied], faults


def _burst_events(
    soa: SoaPlan, spec: FaultModelSpec, fault_seeds: Sequence[int], batch: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-play the burst state machine against zero blocks: burst flip
    decisions are data-independent (they depend only on the per-trial
    streams and the operation schedule), so replaying the batched
    :class:`_BurstInjection` verbatim yields byte-identical flip events."""
    gate_rate = (spec.gate_error_rate or 0.0) > 0.0
    memory_rate = (spec.memory_error_rate or 0.0) > 0.0
    draws = 0
    if gate_rate:
        draws += soa.n_gate_output_sites
    if memory_rate:
        draws += int(soa.read_cols.shape[0])
    _require_seeds("burst", fault_seeds, batch)
    burst = _BurstInjection(spec, _uniform_streams(fault_seeds, draws))
    faults = np.zeros(batch, dtype=np.int64)
    event_keys, event_trials = [], []
    scratch = np.zeros((batch, soa.n_cols), dtype=np.uint8)
    for index in range(soa.n_steps):
        kind = soa.step_kind[index]
        slot = soa.step_slot[index]
        if kind == KIND_GATE:
            out_cols = soa.gate_out_cols[soa.gate_out_ptr[slot]:soa.gate_out_ptr[slot + 1]]
            block = np.zeros((batch, out_cols.shape[0]), dtype=np.uint8)
            faults += burst.corrupt_gate_outputs(int(soa.gate_op_index[slot]), block)
            trials, lanes = np.nonzero(block)
            columns = out_cols[lanes]
        elif kind == KIND_READ:
            read_cols = soa.read_cols[soa.read_ptr[slot]:soa.read_ptr[slot + 1]]
            faults += burst.corrupt_stored_bits(scratch, read_cols)
            trials, lanes = np.nonzero(scratch[:, read_cols])
            columns = read_cols[lanes]
            scratch[:, read_cols] = 0
        else:
            continue
        event_keys.append(index * soa.n_cols + columns.astype(np.int64))
        event_trials.append(trials)
    return (*_concat_events(event_keys, event_trials), faults)


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


#: Per-trial legacy fault classes, in the fixed sampling order one trial's
#: ``random.Random(seed)`` walk consumes them.  Each entry names the site
#: table (None = count-only) and the model rate it fires at.
_LEGACY_CLASSES = (
    ("gate", lambda m: m.gate_error_rate),
    ("meta", lambda m: m.effective_metadata_error_rate),
    (None, lambda m: m.preset_error_rate),       # presets on gate outputs
    ("preset", lambda m: m.preset_error_rate),   # preset-step cells
    ("read", lambda m: m.memory_error_rate),
)


def _skip_sample(rng: random.Random, n_sites: int, rate: float) -> List[int]:
    """Positions of the Bernoulli(rate) hits among ``n_sites`` iid sites,
    via geometric gaps — exact in distribution, O(hits) draws."""
    if rate >= 1.0:
        return list(range(n_sites))
    hits: List[int] = []
    log_miss = math.log1p(-rate)
    position = 0
    while True:
        gap = int(math.log1p(-rng.random()) / log_miss)
        position += gap
        if position >= n_sites:
            return hits
        hits.append(position)
        position += 1


def _legacy_events(
    soa: SoaPlan, model: FaultModel, fault_seeds: Sequence[int], batch: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flip events of the legacy stochastic model.

    Statistically identical to the batched engine's dense Philox masks
    (each site is an independent Bernoulli at its class rate) and equally
    batch-composition-invariant — every trial's walk depends only on its
    own seed — but different raw streams, matching the established
    legacy-model contract (scalar, batched and bitpacked each own their
    stream discipline; declarative models are the byte-identical layer).
    """
    site_tables = {
        "gate": (soa.gate_site_step, soa.gate_site_lane, KIND_GATE),
        "meta": (soa.meta_site_step, soa.meta_site_lane, KIND_GATE),
        "preset": (soa.preset_site_step, soa.preset_site_lane, KIND_PRESET),
        "read": (soa.read_site_step, soa.read_site_lane, KIND_READ),
    }
    class_sizes = {
        "gate": int(soa.gate_site_step.shape[0]),
        "meta": int(soa.meta_site_step.shape[0]),
        None: soa.n_gate_output_sites,
        "preset": int(soa.preset_site_step.shape[0]),
        "read": int(soa.read_site_step.shape[0]),
    }
    classes = [
        (name, class_sizes[name], rate_of(model))
        for name, rate_of in _LEGACY_CLASSES
        if class_sizes[name] and rate_of(model) > 0.0
    ]
    faults = [0] * batch
    hits: Dict[str, Tuple[List[int], List[int]]] = {name: ([], []) for name in site_tables}
    for trial, seed in enumerate(fault_seeds):
        rng = random.Random(seed)
        for name, n_sites, rate in classes:
            positions = _skip_sample(rng, n_sites, rate)
            if not positions:
                continue
            faults[trial] += len(positions)
            if name is not None:
                trials, sites = hits[name]
                trials.extend([trial] * len(positions))
                sites.extend(positions)
    event_keys, event_trials = [], []
    for name, (trials, sites) in hits.items():
        if trials:
            steps, lanes, kind = site_tables[name]
            sites_arr = np.asarray(sites, dtype=np.intp)
            event_keys.append(_site_keys(soa, steps[sites_arr], lanes[sites_arr], kind))
            event_trials.append(np.asarray(trials, dtype=np.intp))
    return (*_concat_events(event_keys, event_trials), np.asarray(faults, dtype=np.int64))


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def run_packed(
    soa: SoaPlan,
    input_matrix: np.ndarray,
    model: Optional[FaultModel] = None,
    fault_seeds: Optional[Sequence[int]] = None,
    fault_plan: "Union[Sequence[Mapping[int, int]], FaultPlanArrays, None]" = None,
    fault_model: Optional[FaultModelSpec] = None,
) -> BatchResult:
    """Interpret the SoA tape for all B trials, bit-sliced.

    The argument surface and semantics mirror
    :func:`~repro.core.batched.run_batch` exactly; see the module docstring
    for which fault sources are byte-identical across backends and which
    are statistically equivalent.
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

    stuck: Optional[_StuckCells] = None
    event_keys: List[np.ndarray] = []
    event_trials: List[np.ndarray] = []
    faults = np.zeros(batch, dtype=np.int64)

    if fault_model is not None:
        if (model is not None and not model.is_error_free) or fault_plan is not None:
            raise ProtectionError(
                "a batch takes one fault source: fault_model is exclusive "
                "with model and fault_plan"
            )
        if fault_model.kind == "stochastic":
            rates = fault_model.rate_model()
            n_draws = _exact_draw_count(soa, rates)
            if n_draws:
                # Same gate as run_batch: seeds are required exactly when the
                # model draws on this plan.
                _require_seeds("stochastic", fault_seeds, batch)
                keys, trials, faults = _stochastic_events(soa, rates, fault_seeds, n_draws)
                event_keys.append(keys)
                event_trials.append(trials)
        elif fault_model.kind == "stuck-at":
            stuck = _StuckCells(fault_model, plan.n_cols)
        elif not fault_model.is_error_free:  # burst
            keys, trials, faults = _burst_events(soa, fault_model, fault_seeds, batch)
            event_keys.append(keys)
            event_trials.append(trials)
    elif model is not None and not model.is_error_free:
        if _exact_draw_count(soa, model):
            _require_seeds("stochastic", fault_seeds, batch)
            keys, trials, faults = _legacy_events(soa, model, fault_seeds, batch)
            event_keys.append(keys)
            event_trials.append(trials)

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


def _exact_draw_count(soa: SoaPlan, model: FaultModel) -> int:
    """Stream capacity of the exact stochastic schedule — per trial, the
    same draw count :func:`~repro.core.batched._step_draws` sums."""
    draws = 0
    if model.preset_error_rate > 0.0:
        draws += soa.n_gate_output_sites + int(soa.preset_site_step.shape[0])
    if model.gate_error_rate > 0.0:
        draws += int(soa.gate_site_step.shape[0])
    if model.effective_metadata_error_rate > 0.0:
        draws += int(soa.meta_site_step.shape[0])
    if model.memory_error_rate > 0.0:
        draws += int(soa.read_site_step.shape[0])
    return draws
