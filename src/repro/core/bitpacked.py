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
its few thousand distinct records.  The fault path stays in int ops too:

* every fault source is lowered once per call to one XOR int per fault
  site, through the tape's per-plan index of sites in tape order — one
  ``np.bincount`` finds the hit sites, already in step order; a site hit
  in one trial is ``1 << trial``, the rest are packed bit rows — and the
  interpreter XORs them in right after their step executes;
* an ECiM level whose syndrome ints fire splits the fired trials by
  syndrome value, one syndrome bit at a time, and XORs each group's trial
  mask into the data columns its decode-table entry flips (a dict built
  from the level's LUT slice), so decoding costs big-int ops per syndrome
  value present, not per trial;
* per-trial correction, uncorrectable and stuck-at counts are bit-sliced
  too: adding a trial mask is a ripple-carry add over a few ints, and the
  counts are unpacked once, at the end of the batch.

numpy is touched only at the batch boundary: lowering the fault sources,
packing the inputs, and unpacking outputs and per-trial counters (plus
the general n-copy TRiM vote, which works on per-trial bits).

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
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.batched import BatchResult, _StuckCells
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


class _Counter:
    """Per-trial counts held bit-sliced, like the state: ``planes[i]`` holds
    bit ``i`` of every trial's count, so adding one trial mask is a
    ripple-carry add over a few ints, and the counts are unpacked once, at
    the end of the batch."""

    __slots__ = ("planes",)

    def __init__(self) -> None:
        self.planes: List[int] = []

    def add(self, mask: int) -> None:
        planes = self.planes
        for index, plane in enumerate(planes):
            planes[index] = plane ^ mask
            mask &= plane
            if not mask:
                return
        planes.append(mask)

    def counts(self, batch: int) -> np.ndarray:
        if not self.planes:
            return np.zeros(batch, dtype=np.int64)
        weights = np.left_shift(1, np.arange(len(self.planes), dtype=np.int64))
        return unpack_trials(self.planes, batch).astype(np.int64) @ weights


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
    _ECIM,    # (op, ((parity col, covered data cols), ...), {syndrome: data cols to flip})
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


def _decode_table(
    lut: np.ndarray, data_cols: np.ndarray, interner: _Interner
) -> Dict[int, Tuple[int, ...]]:
    """One ECiM level's decode table as ``{syndrome: data columns to flip}``.

    Every correctable non-zero syndrome (a row of ``lut`` with any valid
    position) maps to the columns of its data positions — empty for a
    pattern that lies in the parity bits, since positions at or past
    ``len(data_cols)`` flip nothing visible.  A syndrome missing from the
    dict is detected but uncorrectable.
    """
    syndromes = np.flatnonzero((lut >= 0).any(axis=1))
    syndromes = syndromes[syndromes != 0]
    rows = lut[syndromes]
    is_data = (rows >= 0) & (rows < data_cols.shape[0])
    flipped = interner.cols(data_cols[rows[is_data]].tolist())
    ends = np.cumsum(is_data.sum(axis=1)).tolist()
    starts = [0] + ends[:-1]
    return {
        syndrome: flipped[start:end]
        for syndrome, start, end in zip(syndromes.tolist(), starts, ends)
    }


class _IntTape:
    """A :class:`SoaPlan` as interned int-tape records, plus the golden
    netlist's records — built once per plan (see :func:`_int_tape`)."""

    def __init__(self, soa: SoaPlan) -> None:
        # Fault sites in tape order: rank_of_entry[e] is the rank of site-map
        # entry e, and rank_step / rank_col the step and column of each rank.
        # Entries are in (step, lane) order per kind, so a stable argsort by
        # step merges them.  Built before the record lists below exist, so
        # the site map's first build does not add to their memory peak.
        site_map = soa.plan.site_map
        order = np.argsort(site_map.steps, kind="stable").astype(np.int32)
        self.rank_of_entry = np.empty_like(order)
        self.rank_of_entry[order] = np.arange(order.shape[0], dtype=np.int32)
        self.rank_step = site_map.steps[order]
        self.rank_col = site_map.columns[order]
        self.site_map = site_map
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
        return (_ECIM, terms, _decode_table(lut, data_cols, interner))

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
        #: Corrected data bits, uncorrectable ECiM levels, and stuck-at
        #: writes that changed a bit (which count as injected faults).
        self.corrections = _Counter()
        self.uncorrectable = _Counter()
        self.stuck_faults = _Counter()

    def execute(
        self,
        records: Sequence[tuple],
        flips: Iterable[Tuple[int, int, int]] = (),
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
                        self.stuck_faults.add(changed)
                        s[stuck_col] = stuck_value
                    stuck_step, stuck_col = next(stuck, _NO_EVENT[:2])
                next_hot = min(flip_step, stuck_step)

    def _ecim(self, rec: tuple) -> None:
        """Fold each parity bit's syndrome int; when some trial's syndrome
        is non-zero, split the fired trials into groups of equal syndrome
        value, one syndrome bit (weight ``2**j``) at a time, and apply each
        group's decode-table entry to all of its trials at once."""
        _, terms, decode = rec
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
        groups = [(0, fired)]
        weight = 1
        for syndrome in syndromes:
            if syndrome:
                split = []
                for value, mask in groups:
                    high = mask & syndrome
                    if high:
                        split.append((value | weight, high))
                        if high != mask:
                            split.append((value, mask ^ high))
                    else:
                        split.append((value, mask))
                groups = split
            weight <<= 1
        for value, mask in groups:
            flipped = decode.get(value)
            if flipped is None:
                self.uncorrectable.add(mask)
                continue
            for col in flipped:
                s[col] ^= mask
                self.corrections.add(mask)

    def _trim3(self, triples: Tuple[Tuple[int, int, int], ...]) -> None:
        """Three-copy majority vote per data bit, all trials at once."""
        s = self.state
        for data_col, copy1_col, copy2_col in triples:
            a = s[data_col]
            b = s[copy1_col]
            c = s[copy2_col]
            if a == b == c:
                continue
            self.detected |= (a ^ b) | (a ^ c)
            voted = a & b | c & (a | b)
            if voted != a:
                self.corrections.add(a ^ voted)
                s[data_col] = voted

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
        for changed in pack_trials(data != voted):
            self.corrections.add(changed)
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
# Fault-source lowering: (rank, trial) flip events, rank = a fault site's
# place in tape order (see _IntTape)
# ---------------------------------------------------------------------- #
def _flip_table(
    tape: _IntTape, ranks: np.ndarray, trials: np.ndarray, batch: int
) -> Iterable[Tuple[int, int, int]]:
    """``(step, column, XOR int)`` of every fault site a batch's events hit,
    by step — lazily, so the interpreter builds one tuple at a time."""
    if not ranks.size:
        return ()
    hot, masks = _site_masks(tape, ranks, trials, batch)
    return zip(tape.rank_step[hot].tolist(), tape.rank_col[hot].tolist(), masks)


def _site_masks(
    tape: _IntTape, ranks: np.ndarray, trials: np.ndarray, batch: int
) -> Tuple[np.ndarray, List[int]]:
    """The ranks of the hit sites, in tape order, and each one's trial mask.

    One ``np.bincount`` over the ranks finds the hit sites.  A site hit in
    one trial is ``1 << trial``; the sites hit in several trials become one
    packed bit row each (:func:`_packed_rows`).  A (site, trial) pair may
    occur once: the engines apply one flip per site, so a repeat would
    cancel here and count twice elsewhere.
    """
    counts = np.bincount(ranks, minlength=tape.rank_step.shape[0])
    hot = np.flatnonzero(counts)
    shared = counts[hot] > 1
    # One slot per site: the trial of a single-trial site, then the bit
    # row of each shared one.
    slot = np.empty(counts.shape[0], dtype=np.int32)
    slot[ranks] = trials
    masks = [1 << trial for trial in np.where(shared, 0, slot[hot]).tolist()]
    if shared.any():
        rows = hot[shared]
        slot[rows] = np.arange(rows.shape[0], dtype=np.int32)
        events = counts[ranks] > 1
        packed = _packed_rows(rows.shape[0], slot[ranks[events]], trials[events], batch)
        for index, mask in zip(np.flatnonzero(shared).tolist(), _row_ints(packed)):
            masks[index] = mask
    return hot, masks


def _packed_rows(n_rows: int, rows: np.ndarray, trials: np.ndarray, batch: int) -> np.ndarray:
    """``(n_rows, 4 * ceil(batch / 32))`` little-endian bit rows with bit
    ``trials[i]`` of row ``rows[i]`` set.

    Distinct bits of a 32-bit word never carry, so each word is the sum of
    its events' bit values: one weighted ``np.bincount`` lays out every row
    (exactly — the sums stay below 2**32, far inside a float64's 53 bits).
    A (row, trial) pair that repeats carries instead: its word ends up with
    fewer set bits than events, or at 2**32 or more, and
    :class:`~repro.errors.ProtectionError` is raised.
    """
    width = (batch + 31) >> 5
    sums = np.bincount(
        rows.astype(np.intp) * width + (trials >> 5),
        weights=np.left_shift(1, trials & 31),
        minlength=n_rows * width,
    )
    if sums.max() < 1 << 32:
        words = sums.astype("<u4")
        if int(np.bitwise_count(words).sum()) == rows.shape[0]:
            return words.view(np.uint8).reshape(n_rows, 4 * width)
    raise ProtectionError("a trial flips one fault site more than once")


def _deterministic_events(
    soa: SoaPlan, tape: _IntTape, plan_arrays: FaultPlanArrays, batch: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flip events of a whole batch of deterministic plans, in a handful of
    numpy passes: map plan operations to gate slots, drop unknown
    operations and out-of-range positions (both inject nothing, exactly as
    on the uint8 engine), count the surviving flips per trial and rank
    each one's gate output — site-map entry ``gate_out_ptr[slot] +
    position``."""
    trials = plan_arrays.trial_of_entry()
    ops = plan_arrays.op_index
    positions = plan_arrays.position
    slot_table = soa.gate_slot_of_op
    known = (ops >= 0) & (ops < slot_table.shape[0])
    slots = np.where(known, slot_table[np.where(known, ops, 0)], -1)
    widths = np.diff(soa.gate_out_ptr)
    valid = (slots >= 0) & (positions >= 0)
    valid &= positions < widths[np.where(valid, slots, 0)]
    if not valid.all():
        # _flip_table's guard sees only the flips that survive the filter.
        plan_arrays.check_unique_pairs()
    trials, slots, positions = trials[valid], slots[valid], positions[valid]
    faults = np.bincount(trials, minlength=batch).astype(np.int64, copy=False)
    ranks = tape.rank_of_entry[soa.gate_out_ptr[slots] + positions]
    return ranks, trials, faults


def _scheduled_events(tape: _IntTape, schedule: FaultSchedule) -> Tuple[np.ndarray, np.ndarray]:
    """Flip events of a batch's fault schedule; count-only presets (gate
    outputs the firing overwrites) hold no state and add no event."""
    rows, entries = tape.site_map.held_hits(schedule)
    return tape.rank_of_entry[entries], rows


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

    tape = _int_tape(soa)
    stuck: Optional[_StuckCells] = None
    ranks = np.zeros(0, dtype=np.int32)
    trials = np.zeros(0, dtype=np.intp)
    faults = np.zeros(batch, dtype=np.int64)
    plan_arrays: Optional[FaultPlanArrays] = None
    if fault_model is not None and fault_model.kind == "stuck-at":
        stuck = _StuckCells(fault_model, plan.n_cols)
    schedule = fault_schedule(fault_model, stream, plan.fault_sites, batch)
    if schedule is not None:
        ranks, trials = _scheduled_events(tape, schedule)
        faults += schedule.faults

    if fault_plan is not None:
        if len(fault_plan) != batch:
            raise ProtectionError("fault_plan must supply one entry per trial")
        plan_arrays = FaultPlanArrays.coerce(fault_plan)
        ranks, trials, plan_faults = _deterministic_events(soa, tape, plan_arrays, batch)
        faults += plan_faults

    try:
        flips = _flip_table(tape, ranks, trials, batch)
    except ProtectionError:
        if plan_arrays is not None:
            plan_arrays.check_unique_pairs()  # names the repeated pair
        raise
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
    faults += machine.stuck_faults.counts(batch)

    return BatchResult(
        outputs=unpack_trials([state[col] for col in tape.output_cols], batch),
        golden=_golden(tape.golden, plan.netlist, inputs, batch),
        detected=unpack_trials([machine.detected], batch)[:, 0].astype(bool),
        corrections=machine.corrections.counts(batch),
        uncorrectable_levels=machine.uncorrectable.counts(batch),
        faults_injected=faults,
    )
