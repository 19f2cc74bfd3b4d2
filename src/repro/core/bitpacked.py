"""Bit-sliced trial engine: one Python ``int`` per column holds every trial.

The uint8 batched interpreter (:mod:`repro.core.batched`) spends one byte
per logical bit and one numpy dispatch per step.  This engine keeps the
``(B, n_cols)`` trial state *bit-sliced* instead: column ``c`` is a single
arbitrary-precision Python ``int`` whose bit ``t`` is trial ``t``'s cell
value, so a gate firing over the whole batch is its closed-form boolean on
those ints — NOR2 is ``full ^ (a | b)``, the paper's THR4 (threshold 3) is
``full ^ (a&b | c&d | (a|b)&(c|d))``, where ``full = (1 << B) - 1`` — and
costs a few big-int ops regardless of B, with no per-step numpy dispatch.

The interpreter walks a compact int tape that :func:`lower_plan` builds in
one pass over an :class:`~repro.core.batched.ExecutionPlan`'s steps: one
interned record per step (opcode plus column ints), except that each
NOR2 -> THR43 pair of ECiM's two-step in-memory XOR becomes one ``_XOR2``
record, which writes the NOR value to both scratch columns and ``x ^ y`` to
the parity column in one dispatch.  The 39,534-step mlp16 + ECiM tape is
22,700 records (16,834 of them fused pairs), only a few thousand of them
distinct.  Fault events stay keyed by plan step: a fused record advances
the step count by two, and applies a fault on its NOR step between its
two halves.  The fault path stays in int ops too:

* every fault source is lowered once per call to three flat event lists
  — the plan step each event follows, ended by a sentinel step past the
  tape, then its column and its XOR int — which the interpreter walks with
  one index cursor, XORing each int in right after its step executes.
  Flips get one int per hit fault site, through the tape's index of the
  plan's sites in tape order: one ``np.bincount`` finds the hit sites,
  already in step order; a site hit in one trial is ``1 << trial``, the
  rest are packed bit rows.  A stuck-at model's writes take the same
  lists, each int read off the state as the cursor reaches it: the bits
  that differ from the stuck value;
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

from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compiler.netlist import Netlist
from repro.core.batched import (
    BatchResult,
    EcimCheckStep,
    ExecutionPlan,
    GateStep,
    PresetStep,
    ReadStep,
    TrimCheckStep,
    _StuckCells,
)
from repro.core.faultplan import FaultPlanArrays
from repro.core.rng import FaultSchedule, TrialStream, fault_schedule
from repro.errors import ProtectionError
from repro.pim.faults import FaultModelSpec
from repro.pim.gates import GateType
from repro.pim.vector import TABLE_MAX_INPUTS, truth_table, vector_gate_output

__all__ = [
    "lower_plan",
    "pack_trials",
    "unpack_trials",
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
#: order).  Gate records end with the tuple of output columns.  Every record
#: runs one plan step, except ``_XOR2``, which runs two (see _xor2_record).
(
    _XOR2,    # (op, x, y, s1, s2, t): NOR2(x, y) -> s1, s2, then THR43(x, y, s1, s2) -> t
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
) = range(12)


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


def _table_key(
    gate: str, n_inputs: int, threshold: Optional[int]
) -> Tuple[str, int, Optional[int]]:
    """Canonical truth-table identity of one firing: THR normalises its
    default threshold (the paper's 3) so e.g. ``thr/None`` and ``thr/3``
    share a record, every other gate carries no threshold at all."""
    if gate == GateType.THR:
        return (gate, n_inputs, 3 if threshold is None else int(threshold))
    return (gate, n_inputs, None)


def _gate_record(
    key: Tuple[str, int, Optional[int]], ins: Tuple[int, ...], outs: Tuple[int, ...]
) -> tuple:
    """One firing of canonical table ``key`` (see :func:`_table_key`) as an
    int-tape record: an inlined opcode for the shapes the interpreter knows
    in closed form, else a ``_TABLE`` record holding the gate's program."""
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


def _xor2_record(nor: tuple, thr: tuple) -> Optional[tuple]:
    """The one ``_XOR2`` record for a NOR2 record and the THR43 record of
    the next plan step, or None unless they are the two-step in-memory XOR
    ECiM keeps parity with: NOR2(x, y) into two distinct scratch columns
    ``s1, s2``, then THR43(x, y, s1, s2) into one column ``t``.  THR43 over
    ``(x, y, NOR(x, y), NOR(x, y))`` is ``x ^ y``; neither input may be a
    scratch column, so the NOR writes leave ``x`` and ``y`` as they were."""
    if nor[0] != _NOR2 or thr[0] != _THR43:
        return None
    _, x, y, scratch = nor
    if len(scratch) != 2 or len(thr[5]) != 1 or thr[1:5] != (x, y) + scratch:
        return None
    s1, s2 = scratch
    if s1 == s2 or x in scratch or y in scratch:
        return None
    return (_XOR2, x, y, s1, s2, thr[5][0])


class _Interner:
    """Shares column ints and identical records across a tape: the mlp16 +
    ECiM tape's ~40k steps are ~5k distinct records, because the parity
    updates reuse a few column tuples."""

    def __init__(self, n_cols: int) -> None:
        self.ints = list(range(n_cols))
        self._records: Dict[tuple, tuple] = {}

    def cols(self, columns) -> Tuple[int, ...]:
        return tuple(map(self.ints.__getitem__, columns))

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


def _ecim_record(step: EcimCheckStep, interner: _Interner) -> tuple:
    data_cols = step.data_cols
    terms = tuple(
        (
            interner.ints[parity],
            interner.cols(data_cols[np.flatnonzero(step.a_t[:, bit])].tolist()),
        )
        for bit, parity in enumerate(step.parity_cols.tolist())
    )
    return (_ECIM, terms, _decode_table(step.lut, data_cols, interner))


def _trim_record(step: TrimCheckStep, interner: _Interner) -> tuple:
    data_cols = interner.cols(step.data_cols.tolist())
    groups = tuple(interner.cols(group.tolist()) for group in step.copy_col_groups)
    n_copies = int(step.n_copies)
    if n_copies == 3 and len(groups) == 2:
        return (_TRIM3, tuple(zip(data_cols, *groups)))
    return (_TRIM, data_cols, groups, n_copies)


class _IntTape:
    """An :class:`ExecutionPlan` as interned int-tape records, plus the
    golden netlist's records and the maps that lower fault sources onto
    them (built by :func:`lower_plan`)."""

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan
        # Fault sites in tape order: rank_of_entry[e] is the rank of site-map
        # entry e, and rank_step / rank_col the step and column of each rank.
        # Entries are in (step, lane) order per kind, so a stable argsort by
        # step merges them.  Built before the record lists below exist, so
        # the site map's first build does not add to their memory peak.
        site_map = plan.site_map
        order = np.argsort(site_map.steps, kind="stable").astype(np.int32)
        self.rank_of_entry = np.empty_like(order)
        self.rank_of_entry[order] = np.arange(order.shape[0], dtype=np.int32)
        self.rank_step = site_map.steps[order]
        self.rank_col = site_map.columns[order]
        interner = _Interner(plan.n_cols)
        cols = interner.cols
        read = interner.record((_READ,))
        records, gate_ops, gate_widths = [], [], []
        for step in plan.steps:
            if isinstance(step, GateStep):
                outs = cols(step.output_cols.tolist())
                gate_ops.append(step.op_index)
                gate_widths.append(len(outs))
                record = _gate_record(
                    _table_key(step.gate, int(step.input_cols.shape[0]), step.threshold),
                    cols(step.input_cols.tolist()),
                    outs,
                )
                # records[-1] is the previous plan step's record: fuse the pair.
                fused = None
                if record[0] == _THR43 and records:
                    fused = _xor2_record(records[-1], record)
                if fused is None:
                    records.append(interner.record(record))
                else:
                    records[-1] = interner.record(fused)
            elif isinstance(step, PresetStep):
                records.append(interner.record(
                    (_PRESET, int(step.value), cols(step.columns.tolist()))
                ))
            elif isinstance(step, ReadStep):
                records.append(read)
            elif isinstance(step, EcimCheckStep):
                records.append(_ecim_record(step, interner))
            elif isinstance(step, TrimCheckStep):
                records.append(_trim_record(step, interner))
            else:  # pragma: no cover - defensive
                raise ProtectionError(f"unknown plan step {type(step).__name__}")
        self.records = records
        self.input_cols = cols(plan.input_cols.tolist())
        self.output_cols = cols(plan.output_cols.tolist())
        self.golden = _golden_records(plan.netlist)
        # The gate slot (firing number) of each operation index, -1 where no
        # firing carries it, and the first site-map entry of each slot
        # (entries 0.. are the gate outputs in firing order), with the total
        # output count last: what op_tables is built from.
        ops = np.asarray(gate_ops, dtype=np.int64)
        self.gate_slot_of_op = np.full(int(ops.max()) + 1 if ops.size else 0, -1, dtype=np.intp)
        self.gate_slot_of_op[ops] = np.arange(ops.shape[0], dtype=np.intp)
        self.gate_entry_ptr = np.zeros(ops.shape[0] + 1, dtype=np.intp)
        np.cumsum(gate_widths, out=self.gate_entry_ptr[1:])
        # Every run of the backend shares these maps: freeze them.
        for array in (
            self.rank_of_entry, self.rank_step, self.rank_col,
            self.gate_slot_of_op, self.gate_entry_ptr,
        ):
            array.setflags(write=False)

    @cached_property
    def op_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Two tables indexed by operation index, plus one sentinel slot
        past the last for every unknown operation: the output count of the
        firing that carries the operation (0 where none does; uint64, so a
        position compares against it unsigned), and the rank of that
        firing's first output.  Position ``p`` of the firing ranks
        ``first + p``.

        Only deterministic plans read them, so they are built on the first
        such batch, not with the tape."""
        ptr = self.gate_entry_ptr
        starts, widths = ptr[:-1], np.diff(ptr)
        ranks = self.rank_of_entry[:ptr[-1]]
        # A firing's outputs are consecutive site-map entries of one step,
        # which the stable sort by step keeps consecutive in rank: rank
        # minus entry is the same across each firing.
        offsets = ranks - np.arange(ranks.shape[0], dtype=ranks.dtype)
        if not np.array_equal(offsets, np.repeat(offsets[starts], widths)):
            raise ProtectionError("a gate firing's outputs do not rank consecutively")
        slots = self.gate_slot_of_op
        carried = np.flatnonzero(slots >= 0)
        fired = slots[carried]
        width = np.zeros(slots.shape[0] + 1, dtype=np.uint64)
        width[carried] = widths[fired]
        first = np.zeros(slots.shape[0] + 1, dtype=np.int64)
        first[carried] = ranks[starts[fired]]
        width.setflags(write=False)
        first.setflags(write=False)
        return width, first

    @property
    def n_steps(self) -> int:
        """Plan steps the tape runs (an ``_XOR2`` record runs two, so this
        exceeds ``len(records)`` on a tape with fused pairs)."""
        return len(self.plan.steps)


def lower_plan(plan: ExecutionPlan) -> _IntTape:
    """Lower one compiled instruction tape to the int tape the interpreter
    walks, in one pass over ``plan.steps``."""
    return _IntTape(plan)


# ---------------------------------------------------------------------- #
# Interpretation
# ---------------------------------------------------------------------- #
#: A batch's events as three flat lists, in step order: the plan step each
#: event follows, ended by a sentinel step past the tape, then each event's
#: column and the int the walk XORs into it.  A batch has one event source
#: (flips, or the writes of a stuck-at model), so one triple holds them all.
_Events = Tuple[List[int], List[int], Sequence[int]]


def _no_events(n_steps: int) -> _Events:
    """The event lists of a batch without events on an ``n_steps``-step
    tape: the sentinel alone."""
    return [n_steps], [], []


class _StuckWrites:
    """The ints of a stuck-at model's events, read as the cursor reaches
    them: event ``i`` forces its column to the stuck value, so its int is
    the column's bits that differ from that value.  Those are the trials
    whose stored bit the write changes, which the scalar injector logs as
    faults, so each read adds them to :attr:`faults`."""

    __slots__ = ("state", "cols", "value", "faults")

    def __init__(self, state: List[int], cols: List[int], value: int) -> None:
        self.state = state
        self.cols = cols
        self.value = value
        self.faults = _Counter()

    def __getitem__(self, index: int) -> int:
        changed = self.state[self.cols[index]] ^ self.value
        if changed:
            self.faults.add(changed)
        return changed


class _Machine:
    """One batch's bit-sliced state plus its per-trial outcome accumulators."""

    def __init__(self, state: List[int], batch: int) -> None:
        self.state = state
        self.batch = batch
        self.full = (1 << batch) - 1
        self.detected = 0
        #: Corrected data bits and uncorrectable ECiM levels.
        self.corrections = _Counter()
        self.uncorrectable = _Counter()

    def execute(self, records: Sequence[tuple], events: _Events) -> None:
        """Run ``records`` in order, with one index cursor ``i`` over the
        event lists ``(steps, cols, ints)`` (see :data:`_Events`): right
        after plan step ``steps[i]`` executes, XOR ``ints[i]`` into column
        ``cols[i]``.  Flips and stuck-at writes (:class:`_StuckWrites`)
        take this one path; the sentinel that ends ``steps`` is never
        reached, so the cursor needs no end test.

        ``step`` counts plan steps: an ``_XOR2`` record runs two, its NOR
        step and its THR step, and advances it by two.  When an event falls
        on the NOR step, the record applies it between the two halves, so
        the THR half reads the faulty scratch columns; otherwise the THR
        half is ``x ^ y``.  Events on the THR step take the common path."""
        s = self.state
        full = self.full
        steps, cols, ints = events
        i = 0
        next_hot = steps[0]
        step = -1
        for rec in records:
            step += 1
            op = rec[0]
            if op == _XOR2:
                x = s[rec[1]]
                y = s[rec[2]]
                value = full ^ (x | y)
                s[rec[3]] = value
                s[rec[4]] = value
                if step != next_hot:
                    s[rec[5]] = x ^ y
                else:
                    # The NOR step's events, as the end-of-record hook
                    # applies them (inlined: this branch runs on ~40% of
                    # mlp16's pairs at 1e-3), then THR43 over the current
                    # scratch columns.
                    while steps[i] == step:
                        s[cols[i]] ^= ints[i]
                        i += 1
                    next_hot = steps[i]
                    a = s[rec[1]]
                    b = s[rec[2]]
                    c = s[rec[3]]
                    d = s[rec[4]]
                    s[rec[5]] = full ^ (a & b | c & d | (a | b) & (c | d))
                step += 1
            elif op == _NOR2:
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
            if step == next_hot:
                while steps[i] == step:
                    s[cols[i]] ^= ints[i]
                    i += 1
                next_hot = steps[i]

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
    """Fault-free netlist outputs of all ``batch`` trials from the inputs'
    column ints, evaluated bit-sliced over ``records``
    (:func:`_golden_records`)."""
    values = [0] * (netlist.n_signals + 2)
    values[_signal_slot(netlist, Netlist.CONST_ONE)] = (1 << batch) - 1
    for signal, value in zip(netlist.inputs, inputs):
        values[signal] = value
    _Machine(values, batch).execute(records, _no_events(len(records)))
    return unpack_trials(
        [values[_signal_slot(netlist, signal)] for signal in netlist.outputs], batch
    )


# ---------------------------------------------------------------------- #
# Fault-source lowering: (rank, trial) flip events, rank = a fault site's
# place in tape order (see _IntTape)
# ---------------------------------------------------------------------- #
def _flip_table(tape: _IntTape, ranks: np.ndarray, trials: np.ndarray, batch: int) -> _Events:
    """The event lists (see :data:`_Events`) of a batch's flip events: the
    step, column and XOR int of every fault site they hit, in tape order,
    ended by the sentinel ``tape.n_steps``."""
    if not ranks.size:
        return _no_events(tape.n_steps)
    hot, masks = _site_masks(tape, ranks, trials, batch)
    steps = tape.rank_step[hot].tolist()
    steps.append(tape.n_steps)
    return steps, tape.rank_col[hot].tolist(), masks


def _site_masks(
    tape: _IntTape, ranks: np.ndarray, trials: np.ndarray, batch: int
) -> Tuple[np.ndarray, List[int]]:
    """The ranks of the hit sites, in tape order, and each one's trial mask.

    One ``np.bincount`` over the ranks finds the hit sites.  A site hit in
    one trial is ``1 << trial`` — read from a per-batch table of those ints
    when such sites outnumber the trials, so sites of one trial share one
    int; the sites hit in several trials become one packed bit row each
    (:func:`_packed_rows`).  A (site, trial) pair may occur once: the
    engines apply one flip per site, so a repeat would cancel here and
    count twice elsewhere.
    """
    counts = np.bincount(ranks, minlength=tape.rank_step.shape[0])
    hot = np.flatnonzero(counts != 0)  # scanning bools: ~4x faster than int64
    shared = counts[hot] > 1
    # One slot per site: the trial of a single-trial site, then the bit
    # row of each shared one.
    slot = np.empty(counts.shape[0], dtype=np.int32)
    n_shared = int(np.count_nonzero(shared))
    if n_shared == hot.shape[0]:
        # Every hit site is a bit row (a sweep chunk's case): no compress.
        slot[hot] = np.arange(hot.shape[0], dtype=np.int32)
        return hot, _row_ints(_packed_rows(hot.shape[0], slot[ranks], trials, batch))
    slot[ranks] = trials
    singles = np.where(shared, 0, slot[hot]).tolist()
    if hot.shape[0] - n_shared > batch:
        # Only then: a 4,096-trial table is ~1 MB of ints.
        bits = [1 << trial for trial in range(batch)]
        masks = list(map(bits.__getitem__, singles))
    else:
        masks = [1 << trial for trial in singles]
    if n_shared:
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
    tape: _IntTape, plan_arrays: FaultPlanArrays, batch: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flip events of a whole batch of deterministic plans, in a handful of
    numpy passes over the tape's :attr:`~_IntTape.op_tables`: clamp each
    operation to the sentinel slot (negative operations, read unsigned,
    clamp too), keep the flips whose position, read unsigned, lies below
    the firing's width (unknown operations and out-of-range positions
    inject nothing, exactly as on the uint8 engine), count the kept flips
    per trial (the CSR row lengths when every flip is kept) and rank each
    one as its firing's first rank plus the position."""
    width, first = tape.op_tables
    ops = np.minimum(plan_arrays.op_index.view(np.uint64), width.shape[0] - 1).view(np.int64)
    positions = plan_arrays.position
    ranks = first[ops] + positions
    trials = plan_arrays.trial_of_entry()
    valid = positions.view(np.uint64) < width[ops]
    if valid.all():
        return ranks, trials, np.diff(plan_arrays.trial_ptr).astype(np.int64, copy=False)
    # _flip_table's guard sees only the flips that survive the filter.
    plan_arrays.check_unique_pairs()
    trials, ranks = trials[valid], ranks[valid]
    return ranks, trials, np.bincount(trials, minlength=batch).astype(np.int64, copy=False)


def _scheduled_events(tape: _IntTape, schedule: FaultSchedule) -> Tuple[np.ndarray, np.ndarray]:
    """Flip events of a batch's fault schedule; count-only presets (gate
    outputs the firing overwrites) hold no state and add no event."""
    rows, entries = tape.plan.site_map.held_hits(schedule)
    return tape.rank_of_entry[entries], rows


def _stuck_steps(tape: _IntTape, stuck: _StuckCells) -> Tuple[List[int], List[int]]:
    """The steps, ended by the sentinel ``tape.n_steps``, and the columns of
    a stuck-at model's writes: every gate commit and checker read that
    touches an afflicted cell, by step — the scalar injector's touch points
    (presets and checker write-backs bypass it): the site map's gate-output
    entries ``0 ..`` and its ``memory`` class of read cells."""
    site_map = tape.plan.site_map
    classes = site_map.classes
    n_outputs = classes["gate"].shape[0] + classes["metadata"].shape[0]
    entries = np.concatenate([np.arange(n_outputs), classes["memory"]])
    entries = entries[stuck.is_stuck[site_map.columns[entries]]]
    entries = entries[np.argsort(site_map.steps[entries], kind="stable")]
    steps = site_map.steps[entries].tolist()
    steps.append(tape.n_steps)
    return steps, site_map.columns[entries].tolist()


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def run_packed(
    tape: _IntTape,
    input_matrix: np.ndarray,
    fault_plan: "Union[Sequence[Mapping[int, int]], FaultPlanArrays, None]" = None,
    fault_model: Optional[FaultModelSpec] = None,
    stream: Optional[TrialStream] = None,
) -> BatchResult:
    """Interpret the int tape (see :func:`lower_plan`) for all B trials,
    bit-sliced.

    The argument surface and semantics mirror
    :func:`~repro.core.batched.run_batch` exactly.
    """
    plan = tape.plan
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
        ranks, trials, plan_faults = _deterministic_events(tape, plan_arrays, batch)
        faults += plan_faults

    try:
        events = _flip_table(tape, ranks, trials, batch)
    except ProtectionError:
        if plan_arrays is not None:
            plan_arrays.check_unique_pairs()  # names the repeated pair
        raise
    inputs = pack_trials(matrix)
    state = [0] * plan.n_cols
    machine = _Machine(state, batch)
    state[plan.const1_col] = machine.full
    for col, value in zip(tape.input_cols, inputs):
        state[col] = value
    writes: Optional[_StuckWrites] = None
    if stuck is not None:
        # A stuck-at model draws no flips: its writes take the event lists.
        steps, cols = _stuck_steps(tape, stuck)
        writes = _StuckWrites(state, cols, machine.full if stuck.value else 0)
        events = (steps, cols, writes)
    machine.execute(tape.records, events)
    if writes is not None:
        faults += writes.faults.counts(batch)

    return BatchResult(
        outputs=unpack_trials([state[col] for col in tape.output_cols], batch),
        golden=_golden(tape.golden, plan.netlist, inputs, batch),
        detected=unpack_trials([machine.detected], batch)[:, 0].astype(bool),
        corrections=machine.corrections.counts(batch),
        uncorrectable_levels=machine.uncorrectable.counts(batch),
        faults_injected=faults,
    )
