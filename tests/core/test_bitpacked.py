"""Bit-sliced engine tests: int transposition properties, the lowering to
the int tape, int-tape gate semantics, and cross-backend byte-identity on
ragged batches.

The systematic cross-backend grid lives in ``tests/differential/``; this
module owns the engine-local properties that grid cannot see — the
pack/unpack transposition contract (ragged batches, tail bits never set,
int XOR vs uint8 XOR), the gate records against the truth tables, the
lowering and int-tape invariants, the fused NOR2 -> THR43 parity-pair
record under faults on either of its steps, the walk's one event cursor at
its edges (both steps of a pair, the last plan step, consecutive steps,
stuck-at writes), the engine's consumption of the shared stochastic stream
(reproducible, batch-composition-invariant, statistically faithful), and
the fault path's two int-op pieces against the per-trial algorithms they
replaced: the ECiM decode by syndrome value and the flip lowering to event
lists, whose single-trial masks come from a table or a shift.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.workloads import get_campaign_workload
import repro.core.backend as backend_module
from repro.core.backend import BitpackedBackend, make_backend
from repro.core.batched import (
    EcimCheckStep,
    GateStep,
    PresetStep,
    ReadStep,
    _StuckCells,
    batched_golden_outputs,
    compile_plan,
    sample_input_matrix,
)
from repro.core.bitpacked import (
    _ECIM,
    _NOR2,
    _TABLE,
    _THR43,
    _XOR2,
    _Counter,
    _deterministic_events,
    _flip_table,
    _gate_record,
    _golden,
    _golden_records,
    _Machine,
    _no_events,
    _packed_rows,
    _scheduled_events,
    _site_masks,
    _stuck_steps,
    _table_key,
    _table_program,
    lower_plan,
    pack_trials,
    run_packed,
    unpack_trials,
)
from repro.core.faultplan import FaultPlanArrays
from repro.core.rng import TrialStream, fault_schedule
from repro.ecc.bch import bch_code_factory
from repro.errors import ProtectionError
from repro.pim.faults import FaultModelSpec
from repro.pim.vector import truth_table, vector_gate_output

OUTCOME_FIELDS = (
    "outputs_correct",
    "detected",
    "corrections",
    "uncorrectable_levels",
    "faults_injected",
    "outputs",
)


def _stream(tag, batch):
    return TrialStream.keyed((tag,), range(batch))


def _assert_outcomes_equal(left, right, context):
    for field in OUTCOME_FIELDS:
        assert np.array_equal(getattr(left, field), getattr(right, field)), (
            context,
            field,
        )


# ---------------------------------------------------------------------- #
# Pack / unpack transposition properties
# ---------------------------------------------------------------------- #
class TestPackUnpack:
    @given(
        batch=st.integers(min_value=1, max_value=300),
        cols=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_over_ragged_batches(self, batch, cols, seed):
        bits = np.random.default_rng(seed).integers(
            0, 2, size=(batch, cols), dtype=np.uint8
        )
        columns = pack_trials(bits)
        assert len(columns) == cols
        assert all(isinstance(column, int) for column in columns)
        unpacked = unpack_trials(columns, batch)
        assert unpacked.dtype == np.uint8
        assert np.array_equal(unpacked, bits)

    @given(
        batch=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_tail_bits_never_set(self, batch, seed):
        # Bits >= B must never be set: fault masks and inputs rely on this
        # to keep every state int within full = 2**B - 1.
        bits = np.ones((batch, 5), dtype=np.uint8)
        bits[np.random.default_rng(seed).integers(0, batch), 2] = 0
        for column in pack_trials(bits):
            assert column >> batch == 0
        assert pack_trials(np.ones((batch, 1), dtype=np.uint8)) == [(1 << batch) - 1]

    def test_trial_to_bit_mapping(self):
        # Trial t lives at bit t of every column int.
        batch = 130
        for trial in (0, 1, 7, 8, 63, 64, 127, 128, 129):
            bits = np.zeros((batch, 2), dtype=np.uint8)
            bits[trial, 1] = 1
            assert pack_trials(bits) == [0, 1 << trial]

    @given(
        batch=st.integers(min_value=1, max_value=200),
        cols=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_int_xor_equals_uint8_xor(self, batch, cols, seed):
        # Applying a fault mask to a column int must be the same operation
        # as the uint8 engine's `state ^= mask`.
        rng = np.random.default_rng(seed)
        state = rng.integers(0, 2, size=(batch, cols), dtype=np.uint8)
        mask = rng.integers(0, 2, size=(batch, cols), dtype=np.uint8)
        xored = [a ^ b for a, b in zip(pack_trials(state), pack_trials(mask))]
        assert np.array_equal(unpack_trials(xored, batch), state ^ mask)

    def test_pack_rejects_non_matrix(self):
        with pytest.raises(ProtectionError):
            pack_trials(np.zeros(4, dtype=np.uint8))

    def test_unpack_rejects_ints_wider_than_the_batch(self):
        with pytest.raises(ProtectionError):
            unpack_trials([1 << 72], 65)
        # Bits between B and the byte boundary are dropped, not rejected.
        assert unpack_trials([1 << 66], 65).sum() == 0


# ---------------------------------------------------------------------- #
# Int-tape gate records
# ---------------------------------------------------------------------- #
def _all_combinations(n_inputs):
    return np.array(
        [[(i >> j) & 1 for j in range(n_inputs)] for i in range(1 << n_inputs)],
        dtype=np.uint8,
    )


def _fire(key, combos):
    """One gate record over every input combination (one trial each)."""
    batch, n_inputs = combos.shape
    machine = _Machine(pack_trials(combos) + [0, 0], batch)
    record = _gate_record(key, tuple(range(n_inputs)), (n_inputs, n_inputs + 1))
    machine.execute([record], _no_events(1))
    out = unpack_trials(machine.state[n_inputs:], batch)
    assert np.array_equal(out[:, 0], out[:, 1])  # every output cell commits
    return out[:, 0]


#: Every (gate, fan-in, threshold) the records must evaluate: the shipped
#: tables (NOR2, THR4/3, THR3/2, NOT, one-input NOR, COPY) and the generic
#: NOR/NAND loops and truth-table programs around them.
GATE_SHAPES = (
    [("not", 1, None), ("copy", 1, None)]
    + [(gate, n, None) for gate in ("nor", "nand") for n in range(1, 6)]
    + [("maj", n, None) for n in (1, 3, 5)]
    + [("thr", n, t) for n in range(1, 6) for t in (None, 1, 2, 3) if (t or 3) <= n]
)


class TestGateRecords:
    @pytest.mark.parametrize("gate,n_inputs,threshold", GATE_SHAPES)
    def test_records_match_truth_tables(self, gate, n_inputs, threshold):
        key = _table_key(gate, n_inputs, threshold)
        table = truth_table(*key)
        assert np.array_equal(_fire(key, _all_combinations(n_inputs)), table)

    def test_thr4_repeated_operands(self):
        # THR4 over (a, a, b, b): ECiM's parity updates feed one NOR output
        # twice, and generated circuits repeat operands too.
        combos = _all_combinations(2)
        machine = _Machine(pack_trials(combos) + [0], 4)
        machine.execute([_gate_record(("thr", 4, 3), (0, 0, 1, 1), (2,))], _no_events(1))
        got = unpack_trials([machine.state[2]], 4)[:, 0]
        expected = truth_table("thr", 4, 3)[[0b0000, 0b0011, 0b1100, 0b1111]]
        assert np.array_equal(got, expected)

    def test_wide_gate_falls_back_to_the_vector_model(self):
        n_inputs = 13
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(70, n_inputs), dtype=np.uint8)
        bits[:, :6] = 0  # make the majority outcome non-trivial
        program = _table_program("maj", n_inputs, None)
        full = (1 << 70) - 1
        got = unpack_trials([program(pack_trials(bits), full)], 70)[:, 0]
        assert np.array_equal(got, vector_gate_output("maj", bits, None))


# ---------------------------------------------------------------------- #
# Lowering invariants
# ---------------------------------------------------------------------- #
def _step_records(tape):
    """``(record, half)`` of every plan step, in step order: the record that
    runs the step, and 0, or 1 for the THR step of a fused ``_XOR2``
    record (which runs two steps)."""
    owners = []
    for record in tape.records:
        owners.append((record, 0))
        if record[0] == _XOR2:
            owners.append((record, 1))
    return owners


def _step_columns(plan, kind, attr):
    """The columns of every ``kind`` step of ``plan``, concatenated."""
    chunks = [getattr(step, attr) for step in plan.steps if isinstance(step, kind)]
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.intp)


class TestLowering:
    @pytest.fixture(scope="class", params=["ecim", "trim"])
    def tape(self, request):
        netlist = get_campaign_workload("dot2").netlist
        return lower_plan(compile_plan(netlist, request.param))

    def test_records_cover_every_step_once(self, tape):
        # Each record runs one plan step, a fused _XOR2 record two.
        assert tape.n_steps == len(tape.plan.steps) == len(_step_records(tape))

    def test_gate_tape_mirrors_plan_steps(self, tape):
        plan = tape.plan
        owners = _step_records(tape)
        gate_steps = [
            (index, step) for index, step in enumerate(plan.steps) if isinstance(step, GateStep)
        ]
        assert tape.gate_entry_ptr.shape[0] == len(gate_steps) + 1
        assert int((tape.gate_slot_of_op >= 0).sum()) == len(gate_steps)
        for slot, (index, step) in enumerate(gate_steps):
            key = _table_key(step.gate, int(step.input_cols.shape[0]), step.threshold)
            ins, outs = tuple(step.input_cols.tolist()), tuple(step.output_cols.tolist())
            record, half = owners[index]
            if record[0] == _XOR2:
                # The fused record is its pair's (x, y, s1, s2, t): NOR2(x, y)
                # into s1 != s2, then THR43(x, y, s1, s2) into t.
                _, x, y, s1, s2, t = record
                assert s1 != s2 and not {x, y} & {s1, s2}
                halves = ((_NOR2, x, y, (s1, s2)), (_THR43, x, y, s1, s2, (t,)))
                assert halves[half] == _gate_record(key, ins, outs)
            else:
                assert record == _gate_record(key, ins, outs)
            assert tape.gate_slot_of_op[step.op_index] == slot
            # The slot's site-map entries are its outputs, in order.
            entries = slice(tape.gate_entry_ptr[slot], tape.gate_entry_ptr[slot + 1])
            assert np.array_equal(plan.site_map.columns[entries], step.output_cols)
            assert np.all(plan.site_map.steps[entries] == index)

    def test_tables_are_deduplicated(self, tape):
        # Firings of one canonical table share one record shape: the same
        # inlined opcode, or for a _TABLE record the same program object.
        # A fused step has the shape of the half it runs.
        shapes = {}
        for step, (record, half) in zip(tape.plan.steps, _step_records(tape)):
            if isinstance(step, GateStep):
                key = _table_key(step.gate, int(step.input_cols.shape[0]), step.threshold)
                if record[0] == _XOR2:
                    shape = ((_NOR2,), (_THR43,))[half]
                else:
                    shape = record[:2] if record[0] == _TABLE else record[:1]
                assert shapes.setdefault(key, shape) == shape
        assert len(shapes) < tape.gate_entry_ptr.shape[0] - 1  # real plans repeat gates

    def test_buffers_are_frozen(self, tape):
        for array in (
            tape.rank_of_entry, tape.rank_step, tape.rank_col,
            tape.gate_slot_of_op, tape.gate_entry_ptr,
        ):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_site_map_partitions_gate_outputs(self, tape):
        plan = tape.plan
        site_map = plan.site_map
        classes = site_map.classes
        gate_cols = _step_columns(plan, GateStep, "output_cols")
        preset_cols = _step_columns(plan, PresetStep, "columns")
        read_cols = _step_columns(plan, ReadStep, "columns")
        total_outputs, n_presets = gate_cols.shape[0], preset_cols.shape[0]
        assert site_map.steps.shape[0] == total_outputs + n_presets + read_cols.shape[0]
        # Entries 0.. are the gate outputs in firing order.
        assert np.array_equal(site_map.columns[:total_outputs], gate_cols)
        gate_and_metadata = np.concatenate([classes["gate"], classes["metadata"]])
        assert np.array_equal(np.sort(gate_and_metadata), np.arange(total_outputs))
        # Every gate output is preset (count-only), then every preset cell.
        preset = classes["preset"]
        assert preset.shape[0] == total_outputs + n_presets
        assert int((preset < 0).sum()) == total_outputs
        held = preset[preset >= 0]
        assert np.array_equal(np.sort(held), np.arange(total_outputs, total_outputs + n_presets))
        assert np.array_equal(site_map.columns[np.sort(held)], preset_cols)
        steps = np.where(preset >= 0, site_map.steps[np.maximum(preset, 0)], -1)
        assert np.all(np.diff(steps[preset >= 0]) >= 0)
        assert np.array_equal(
            classes["memory"], np.arange(total_outputs + n_presets, site_map.steps.shape[0])
        )
        assert np.array_equal(site_map.columns[classes["memory"]], read_cols)
        # Every entry names a column of its own step.
        for step, column in zip(site_map.steps.tolist(), site_map.columns.tolist()):
            step = plan.steps[step]
            assert column in (step.output_cols if isinstance(step, GateStep) else step.columns)


@pytest.mark.parametrize(
    "scheme,multi_output,pairs",
    [("ecim", True, 384), ("ecim", False, 0), ("trim", True, 0), ("unprotected", True, 0)],
)
def test_only_multi_output_ecim_parity_pairs_fuse(scheme, multi_output, pairs):
    # Single-output ECiM computes its XOR as NOR -> COPY -> THR, which does
    # not match the NOR2 -> THR43 pattern.
    netlist = get_campaign_workload("dot2").netlist
    tape = lower_plan(compile_plan(netlist, scheme, multi_output=multi_output))
    assert sum(record[0] == _XOR2 for record in tape.records) == pairs


@pytest.fixture(scope="module")
def cell():
    """dot2 + ECiM on the scalar reference and on bitpacked, plus the plan
    steps of every fused pair."""
    netlist = get_campaign_workload("dot2").netlist
    bitpacked = make_backend("bitpacked", netlist, "ecim")
    steps = bitpacked.plan.steps
    pairs = [
        (steps[index], steps[index + 1])
        for index, (record, half) in enumerate(_step_records(bitpacked.tape))
        if record[0] == _XOR2 and half == 0
    ]
    return netlist, make_backend("scalar", netlist, "ecim"), bitpacked, pairs


class TestFusedPairFaults:
    """Faults on either step of a fused NOR2 -> THR43 pair, bitpacked
    against the scalar reference: a fault on the NOR step's scratch
    columns must reach the THR step's parity output."""

    def test_flips_on_either_step(self, cell):
        netlist, scalar, bitpacked, pairs = cell
        plans = [{}]
        for nor, thr in (pairs[0], pairs[len(pairs) // 2], pairs[-1]):
            n, t = nor.op_index, thr.op_index
            # s1, s2, both, t, s1 + t, all three.  A trial that hits both
            # steps runs the record's NOR-step branch and the end-of-record
            # hook, and the batch's event there carries several trials.
            plans += [
                {n: (0,)}, {n: (1,)}, {n: (0, 1)}, {t: (0,)}, {n: (0,), t: (0,)},
                {n: (0, 1), t: (0,)},
            ]
        matrix = sample_input_matrix(netlist, _stream("fused-plans", len(plans)))
        expected = scalar.run_trials(matrix, fault_plan=plans, capture_outputs=True)
        got = bitpacked.run_trials(matrix, fault_plan=plans, capture_outputs=True)
        _assert_outcomes_equal(expected, got, "plans")
        assert got.outputs_correct[0] and not got.detected[0]
        assert got.detected[1:].any()

    @pytest.mark.parametrize("polarity", [0, 1])
    @pytest.mark.parametrize("column", ["scratch", "parity"])
    def test_stuck_at_on_a_fused_column(self, cell, column, polarity):
        netlist, scalar, bitpacked, pairs = cell
        nor, thr = pairs[len(pairs) // 2]
        stuck = nor.output_cols[0] if column == "scratch" else thr.output_cols[0]
        spec = FaultModelSpec.stuck_at((int(stuck),), stuck_polarity=polarity)
        matrix = sample_input_matrix(netlist, _stream("fused-stuck", 9))
        expected = scalar.run_trials(matrix, fault_model=spec, capture_outputs=True)
        got = bitpacked.run_trials(matrix, fault_model=spec, capture_outputs=True)
        _assert_outcomes_equal(expected, got, (column, polarity))
        assert got.faults_injected.any()


class TestEventCursor:
    """The walk's one event cursor at its edges, bitpacked against the
    scalar reference, outcomes and captured outputs byte-identical: the
    tape's last plan step, flips on consecutive steps, and stuck-at cells
    touched at consecutive steps (both steps of a fused pair in one trial,
    and stuck-at on its NOR output, are in :class:`TestFusedPairFaults`)."""

    @staticmethod
    def _run(netlist, scalar, bitpacked, tag, n_trials, **faults):
        matrix = sample_input_matrix(netlist, _stream(tag, n_trials))
        expected = scalar.run_trials(matrix, capture_outputs=True, **faults)
        got = bitpacked.run_trials(matrix, capture_outputs=True, **faults)
        _assert_outcomes_equal(expected, got, tag)
        return got

    @staticmethod
    def _event_steps(bitpacked, plans):
        ranks, trials, _ = _deterministic_events(
            bitpacked.tape, FaultPlanArrays.coerce(plans), len(plans)
        )
        return _flip_table(bitpacked.tape, ranks, trials, len(plans))[0]

    @staticmethod
    def _gate_run(plan, length):
        """The first ``length`` consecutive plan steps that are all gates."""
        gates = [isinstance(step, GateStep) for step in plan.steps]
        start = next(
            index for index in range(len(gates)) if all(gates[index:index + length])
        )
        return list(range(start, start + length))

    def test_the_last_plan_step(self):
        # The unprotected tape ends with a gate step: its event is the last
        # before the sentinel.
        netlist = get_campaign_workload("dot2").netlist
        scalar = make_backend("scalar", netlist, "unprotected")
        bitpacked = make_backend("bitpacked", netlist, "unprotected")
        last, before = bitpacked.plan.steps[-1], bitpacked.plan.steps[-2]
        assert isinstance(last, GateStep) and isinstance(before, GateStep)
        plans = [{last.op_index: (position,)} for position in range(len(last.output_cols))]
        plans += [{before.op_index: (0,), last.op_index: (0,)}, {}]
        steps = self._event_steps(bitpacked, plans)
        assert steps[-2:] == [bitpacked.tape.n_steps - 1, bitpacked.tape.n_steps]
        got = self._run(netlist, scalar, bitpacked, "cursor-last", len(plans), fault_plan=plans)
        assert not got.outputs_correct[:-1].all() and got.outputs_correct[-1]

    def test_flips_on_consecutive_steps(self, cell):
        # A run of gate steps (a data gate, then fused pairs): one trial
        # flips every step of it, two others every other step.
        netlist, scalar, bitpacked, _ = cell
        ops = [bitpacked.plan.steps[index].op_index for index in self._gate_run(bitpacked.plan, 6)]
        plans = [
            {op: (0,) for op in ops},
            {op: (0,) for op in ops[::2]},
            {op: (0,) for op in ops[1::2]},
            {},
        ]
        steps = self._event_steps(bitpacked, plans)
        assert steps[:-1] == list(range(steps[0], steps[0] + 6))
        got = self._run(netlist, scalar, bitpacked, "cursor-run", len(plans), fault_plan=plans)
        assert got.faults_injected.tolist() == [6, 3, 3, 0]

    @pytest.mark.parametrize("polarity", [0, 1])
    def test_stuck_at_cells_touched_at_consecutive_steps(self, cell, polarity):
        netlist, scalar, bitpacked, _ = cell
        plan = bitpacked.plan
        # Two cells that steps k and k + 1 write, neither at both.
        first, second = (plan.steps[index] for index in self._gate_run(plan, 2))
        columns = tuple(
            int(np.setdiff1d(step.output_cols, other.output_cols)[0])
            for step, other in ((first, second), (second, first))
        )
        spec = FaultModelSpec.stuck_at(columns, stuck_polarity=polarity)
        steps, _ = _stuck_steps(bitpacked.tape, _StuckCells(spec, plan.n_cols))
        assert steps[-1] == bitpacked.tape.n_steps
        assert any(later - earlier == 1 for earlier, later in zip(steps, steps[1:-1]))
        got = self._run(netlist, scalar, bitpacked, "cursor-stuck", 9, fault_model=spec)
        assert got.faults_injected.any()


# ---------------------------------------------------------------------- #
# Engine byte-identity on ragged batches
# ---------------------------------------------------------------------- #
class TestRaggedBatchParity:
    """The differential grid runs B=16; these pin the word-boundary batch
    sizes (B % 64 == 0, == 1, and mid-word) against the uint8 engine."""

    @pytest.fixture(scope="class")
    def backends(self):
        netlist = get_campaign_workload("dot2").netlist
        return (
            make_backend("batched", netlist, "ecim"),
            make_backend("bitpacked", netlist, "ecim"),
        )

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 128, 130])
    def test_declarative_stochastic_byte_identical(self, backends, batch):
        batched, bitpacked = backends
        stream = _stream("ragged", batch)
        matrix = sample_input_matrix(batched.netlist, stream)
        spec = FaultModelSpec.stochastic(
            gate_error_rate=0.03, memory_error_rate=0.01, preset_error_rate=0.01
        )
        _assert_outcomes_equal(
            batched.run_trials(matrix, fault_model=spec, stream=stream, capture_outputs=True),
            bitpacked.run_trials(matrix, fault_model=spec, stream=stream, capture_outputs=True),
            batch,
        )

    @pytest.mark.parametrize("batch", [63, 64, 65])
    def test_burst_byte_identical(self, backends, batch):
        batched, bitpacked = backends
        stream = _stream("ragged-burst", batch)
        matrix = sample_input_matrix(batched.netlist, stream)
        spec = FaultModelSpec.burst(
            burst_length=3, correlation_window=6, gate_error_rate=0.02,
            memory_error_rate=0.01,
        )
        _assert_outcomes_equal(
            batched.run_trials(matrix, fault_model=spec, stream=stream, capture_outputs=True),
            bitpacked.run_trials(matrix, fault_model=spec, stream=stream, capture_outputs=True),
            batch,
        )

    def test_kflip_plans_byte_identical_across_all_backends(self, backends):
        import random

        batched, bitpacked = backends
        batch = 70
        matrix = sample_input_matrix(batched.netlist, _stream("ragged-plan", batch))
        sites = [
            (site.operation_index, site.output_position) for site in batched.enumerate_sites()
        ]
        plans = []
        for trial in range(batch):
            entry = {}
            for op, pos in random.Random(trial).sample(sites, 2):
                entry.setdefault(op, []).append(pos)
            plans.append(entry)
        _assert_outcomes_equal(
            batched.run_trials(matrix, fault_plan=plans, capture_outputs=True),
            bitpacked.run_trials(matrix, fault_plan=plans, capture_outputs=True),
            "plan",
        )


# ---------------------------------------------------------------------- #
# The shared stochastic stream, as this engine consumes it
# ---------------------------------------------------------------------- #
class TestStochasticStreams:
    @pytest.fixture(scope="class")
    def backend(self):
        netlist = get_campaign_workload("dot2").netlist
        return make_backend("bitpacked", netlist, "ecim")

    def test_reproducible_for_fixed_seeds(self, backend):
        stream = _stream("stochastic", 100)
        matrix = sample_input_matrix(backend.netlist, stream)
        spec = FaultModelSpec.stochastic(gate_error_rate=2e-3, memory_error_rate=1e-3)
        first = backend.run_trials(matrix, fault_model=spec, stream=stream, capture_outputs=True)
        again = backend.run_trials(matrix, fault_model=spec, stream=stream, capture_outputs=True)
        _assert_outcomes_equal(first, again, "repro")

    def test_batch_composition_invariance(self, backend):
        # A trial's outcome depends only on its own stream row, never on
        # shard size or neighbours — the property that makes sharded
        # campaigns placement-independent.
        stream = _stream("stochastic-invar", 130)
        matrix = sample_input_matrix(backend.netlist, stream)
        spec = FaultModelSpec.stochastic(gate_error_rate=5e-3, memory_error_rate=1e-3)
        whole = backend.run_trials(matrix, fault_model=spec, stream=stream, capture_outputs=True)
        for lo, hi in ((0, 1), (17, 18), (60, 70), (100, 130)):
            part = backend.run_trials(
                matrix[lo:hi], fault_model=spec, stream=stream[lo:hi], capture_outputs=True
            )
            for field in OUTCOME_FIELDS:
                assert np.array_equal(
                    getattr(part, field), getattr(whole, field)[lo:hi]
                ), (lo, hi, field)

    def test_fault_rate_statistically_faithful(self, backend):
        # Skip sampling must hit each site i.i.d. at the class rate: mean
        # fault count over many trials lands near sites x rate (within 5
        # sigma of the binomial).
        rate = 1e-3
        trials = 4000
        stream = _stream("stochastic-stats", trials)
        matrix = sample_input_matrix(backend.netlist, stream)
        outcomes = backend.run_trials(
            matrix, fault_model=FaultModelSpec.stochastic(gate_error_rate=rate), stream=stream
        )
        # metadata_error_rate falls back to the gate rate, so every gate
        # output (metadata included) is a site at this rate.
        sites = len(backend.plan.fault_sites.output_ops)
        expected = trials * sites * rate
        sigma = (trials * sites * rate * (1 - rate)) ** 0.5
        observed = int(outcomes.faults_injected.sum())
        assert abs(observed - expected) < 5 * sigma, (observed, expected)

    def test_rate_one_hits_every_site(self, backend):
        stream = _stream("stochastic-sat", 3)
        matrix = sample_input_matrix(backend.netlist, stream)
        outcomes = backend.run_trials(
            matrix, fault_model=FaultModelSpec.stochastic(gate_error_rate=1.0), stream=stream
        )
        # Gate and (fallback-rate) metadata outputs all flip, every trial.
        assert np.all(outcomes.faults_injected == len(backend.plan.fault_sites.output_ops))


# ---------------------------------------------------------------------- #
# Backend surface
# ---------------------------------------------------------------------- #
class TestBitpackedBackendSurface:
    def test_make_backend_dispatch_and_lazy_tape(self, monkeypatch):
        lowered = []

        def counting_lower_plan(plan):
            lowered.append(plan)
            return lower_plan(plan)

        monkeypatch.setattr(backend_module, "lower_plan", counting_lower_plan)
        netlist = get_campaign_workload("and2").netlist
        backend = make_backend("bitpacked", netlist, "ecim")
        assert isinstance(backend, BitpackedBackend)
        assert backend._tape is None  # lowered lazily
        backend.run_trials({signal: 1 for signal in netlist.inputs}, n_trials=3)
        tape = backend.tape
        assert tape.plan is backend.plan
        backend.run_trials(np.ones((2, len(netlist.inputs)), dtype=np.uint8))
        assert backend.tape is tape
        assert lowered == [backend.plan]  # once, then reused

    def test_sites_identical_to_batched(self):
        netlist = get_campaign_workload("dot2").netlist
        batched = make_backend("batched", netlist, "trim")
        bitpacked = make_backend("bitpacked", netlist, "trim")
        assert batched.enumerate_sites() == bitpacked.enumerate_sites()

    def test_run_packed_rejects_bad_matrix(self):
        netlist = get_campaign_workload("and2").netlist
        tape = make_backend("bitpacked", netlist, "ecim").tape
        with pytest.raises(ProtectionError):
            run_packed(tape, np.zeros((4, 99), dtype=np.uint8))
        with pytest.raises(ProtectionError):
            run_packed(tape, np.zeros((0, tape.plan.n_inputs), dtype=np.uint8))

    def test_golden_outputs_match_the_batched_model(self):
        netlist = get_campaign_workload("fft4").netlist
        matrix = sample_input_matrix(netlist, _stream("golden-int", 77))
        assert np.array_equal(
            _golden(_golden_records(netlist), netlist, pack_trials(matrix), 77),
            batched_golden_outputs(netlist, matrix),
        )

    def test_golden_outputs_handle_constant_signals(self):
        from repro.compiler.netlist import Netlist

        netlist = Netlist(name="constants")
        a, b = netlist.add_input("a"), netlist.add_input("b")
        netlist.mark_output(netlist.add_gate("nor", [a, Netlist.CONST_ZERO]))
        netlist.mark_output(netlist.add_gate("nor", [b, Netlist.CONST_ONE]))
        netlist.mark_output(Netlist.CONST_ONE)
        netlist.mark_output(Netlist.CONST_ZERO)
        matrix = _all_combinations(2)
        assert np.array_equal(
            _golden(_golden_records(netlist), netlist, pack_trials(matrix), 4),
            batched_golden_outputs(netlist, matrix),
        )


# ---------------------------------------------------------------------- #
# The int tape
# ---------------------------------------------------------------------- #
def _assert_event_lists(tape, events, batch):
    """The walk's event lists: one column and one mask per hit step, the
    steps nondecreasing and ended by the sentinel ``tape.n_steps``, and
    every mask a non-zero int within ``full``."""
    steps, cols, masks = events
    assert len(steps) == len(cols) + 1 == len(masks) + 1
    assert steps[-1] == tape.n_steps
    assert all(0 <= step < tape.n_steps for step in steps[:-1])
    assert steps[:-1] == sorted(steps[:-1])
    assert all(0 < mask <= (1 << batch) - 1 for mask in masks)


class TestIntTape:
    @pytest.fixture(scope="class")
    def tape(self):
        netlist = get_campaign_workload("dot2").netlist
        return make_backend("bitpacked", netlist, "ecim").tape

    def test_records_are_interned(self, tape):
        # ECiM parity updates reuse a few column tuples: identical records
        # are one shared object, and column ints are shared across records.
        records = tape.records
        assert len({id(record) for record in records}) < len(records)
        canonical = {}
        for record in records:
            if record[0] != _ECIM:  # ECiM records carry their decode tables
                assert canonical.setdefault(record, record) is record

    @pytest.mark.parametrize("batch", [1, 63, 65, 130])
    def test_state_ints_never_set_tail_bits(self, tape, batch):
        plan = tape.plan
        stream = _stream("tail", batch)
        matrix = sample_input_matrix(plan.netlist, stream)
        spec = FaultModelSpec.stochastic(gate_error_rate=0.05, memory_error_rate=0.05)
        schedule = fault_schedule(spec, stream, plan.fault_sites, batch)
        ranks, trials = _scheduled_events(tape, schedule)
        machine = _Machine([0] * plan.n_cols, batch)
        machine.state[plan.const1_col] = machine.full
        for col, value in zip(tape.input_cols, pack_trials(matrix)):
            machine.state[col] = value
        events = _flip_table(tape, ranks, trials, batch)
        _assert_event_lists(tape, events, batch)
        machine.execute(tape.records, events)
        assert machine.detected  # the faults reached the checks
        assert all(0 <= value <= machine.full for value in machine.state)


# ---------------------------------------------------------------------- #
# The fault path: ECiM decode by syndrome value, sort-free flip lowering
# ---------------------------------------------------------------------- #
FAULT_PATH_BATCHES = (1, 63, 64, 65, 250, 4096)


def _reference_decode(syndrome_bits, data_bits, lut):
    """The per-trial LUT decode the engine replaced: pack each trial's
    syndrome, gather its LUT row and flip the row's data positions."""
    batch, d = data_bits.shape
    packed = syndrome_bits.astype(np.int64) @ (1 << np.arange(syndrome_bits.shape[1]))
    rows = np.flatnonzero(packed)
    patterns = lut[packed[rows]]
    valid = patterns >= 0
    uncorrectable = np.zeros(batch, dtype=np.int64)
    uncorrectable[rows[~valid.any(axis=1)]] += 1
    hit_rows, hit_slots = np.nonzero(valid & (patterns < d))
    trials = rows[hit_rows]
    corrections = np.bincount(trials, minlength=batch).astype(np.int64)
    flipped = data_bits.copy()
    for trial, position in zip(trials.tolist(), patterns[hit_rows, hit_slots].tolist()):
        flipped[trial, position] ^= 1
    return flipped, corrections, uncorrectable, packed != 0


@pytest.mark.parametrize("batch", FAULT_PATH_BATCHES)
def test_bit_sliced_counter_sums_the_added_masks(batch):
    rng = np.random.default_rng(batch)
    bits = rng.random((300, batch)) < rng.random((300, 1))  # sparse to dense masks
    counter = _Counter()
    for mask in pack_trials(bits.T):
        counter.add(mask)
    assert np.array_equal(counter.counts(batch), bits.sum(axis=0))
    assert _Counter().counts(batch).tolist() == [0] * batch


class TestEcimDecode:
    """The int-op decode against the per-trial LUT reference, on the
    decode tables of real dot2 tapes (every level's own data width)."""

    @pytest.fixture(scope="class", params=["hamming", "bch-t2", "bch-t3"])
    def levels(self, request):
        factory = {"hamming": None, "bch-t2": bch_code_factory(2), "bch-t3": bch_code_factory(3)}
        netlist = get_campaign_workload("dot2").netlist
        backend = make_backend("bitpacked", netlist, "ecim", code_factory=factory[request.param])
        owners = _step_records(backend.tape)
        levels = [
            (step.data_cols.tolist(), step.parity_cols.tolist(), step.lut, owners[index][0][2])
            for index, step in enumerate(backend.plan.steps)
            if isinstance(step, EcimCheckStep)
        ]
        return backend.plan.n_cols, levels

    @pytest.mark.parametrize("batch", FAULT_PATH_BATCHES)
    def test_matches_the_per_trial_lut_reference(self, levels, batch):
        n_cols, level_list = levels
        rng = np.random.default_rng(batch)
        seen = {"parity-only": 0, "uncorrectable": 0, "data": 0}
        for data_cols, parity_cols, lut, decode in level_list:
            r, d = len(parity_cols), len(data_cols)
            # A mix of correctable syndromes (the decode table's own keys,
            # parity-only patterns included), uniform ones (mostly
            # uncorrectable for BCH) and zeros.
            correctable = np.fromiter(decode, dtype=np.int64, count=len(decode))
            syndromes = np.where(
                rng.random(batch) < 0.5,
                rng.choice(correctable, size=batch),
                rng.integers(0, 1 << r, size=batch),
            )
            syndromes[rng.random(batch) < 0.2] = 0
            syndrome_bits = ((syndromes[:, None] >> np.arange(r)) & 1).astype(np.uint8)
            data_bits = rng.integers(0, 2, size=(batch, d), dtype=np.uint8)

            # The syndrome of parity bit j is the parity column itself: no
            # data column is covered, so s[parity_j] is syndrome int j.
            machine = _Machine([0] * n_cols, batch)
            for col, value in zip(parity_cols, pack_trials(syndrome_bits)):
                machine.state[col] = value
            for col, value in zip(data_cols, pack_trials(data_bits)):
                machine.state[col] = value
            machine._ecim((_ECIM, tuple((col, ()) for col in parity_cols), decode))

            flipped, corrections, uncorrectable, detected = _reference_decode(
                syndrome_bits, data_bits, lut
            )
            got = unpack_trials([machine.state[col] for col in data_cols], batch)
            assert np.array_equal(got, flipped)
            assert np.array_equal(machine.corrections.counts(batch), corrections)
            assert np.array_equal(machine.uncorrectable.counts(batch), uncorrectable)
            assert np.array_equal(unpack_trials([machine.detected], batch)[:, 0], detected)
            rows = lut[syndromes[syndromes != 0]]
            correctable = (rows >= 0).any(axis=1)
            touches_data = ((rows >= 0) & (rows < d)).any(axis=1)
            seen["uncorrectable"] += int((~correctable).sum())
            seen["parity-only"] += int((correctable & ~touches_data).sum())
            seen["data"] += int(corrections.sum())
        if batch >= 250:
            assert all(seen.values()), seen

    def test_decode_table_skips_the_zero_syndrome_and_padding(self, levels):
        _, level_list = levels
        for data_cols, _, lut, decode in level_list:
            assert 0 not in decode
            for syndrome, flipped in decode.items():
                row = lut[syndrome]
                assert (row >= 0).any()
                assert flipped == tuple(
                    data_cols[position] for position in row.tolist()
                    if 0 <= position < len(data_cols)
                )
            correctable = np.flatnonzero((lut >= 0).any(axis=1))
            assert set(decode) == set(correctable.tolist()) - {0}


class TestFlipLowering:
    @pytest.fixture(scope="class")
    def tape(self):
        netlist = get_campaign_workload("dot2").netlist
        return lower_plan(compile_plan(netlist, "ecim"))

    @staticmethod
    def _events(tape, batch, rng, all_shared=False):
        """Random (site-map entry, trial) events without repeats at 40
        sites: half of them hit in one trial, the rest in several — or,
        with ``all_shared``, every one in several (a sweep chunk's case)."""
        sites = rng.choice(tape.rank_step.shape[0], size=40, replace=False)
        entries, trials = [], []
        for index, entry in enumerate(sites.tolist()):
            single = (index % 2 and not all_shared) or batch == 1
            width = 1 if single else int(rng.integers(2, min(batch, 9) + 1))
            for trial in rng.choice(batch, size=width, replace=False).tolist():
                entries.append(entry)
                trials.append(trial)
        order = rng.permutation(len(entries))
        return np.asarray(entries)[order], np.asarray(trials, dtype=np.intp)[order]

    @staticmethod
    def _fold(table):
        folded = {}
        for step, col, mask in table:
            folded[(step, col)] = folded.get((step, col), 0) ^ mask
        return {key: mask for key, mask in folded.items() if mask}

    @pytest.mark.parametrize("batch", FAULT_PATH_BATCHES)
    @pytest.mark.parametrize("all_shared", [False, True], ids=["mixed", "all-shared"])
    def test_equals_a_naive_fold(self, tape, batch, all_shared):
        rng = np.random.default_rng(batch + 7)
        site_map = tape.plan.site_map
        for _ in range(3):
            entries, trials = self._events(tape, batch, rng, all_shared)
            naive = {}
            for entry, trial in zip(entries.tolist(), trials.tolist()):
                key = (int(site_map.steps[entry]), int(site_map.columns[entry]))
                naive[key] = naive.get(key, 0) ^ (1 << trial)
            events = _flip_table(tape, tape.rank_of_entry[entries], trials, batch)
            _assert_event_lists(tape, events, batch)
            steps, cols, masks = events
            table = zip(steps[:-1], cols, masks)
            assert self._fold(table) == {key: mask for key, mask in naive.items() if mask}

    def test_no_events_no_flips(self, tape):
        none = _flip_table(tape, np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.intp), 5)
        assert none == ([tape.n_steps], [], []) == _no_events(tape.n_steps)

    @pytest.mark.parametrize("batch", [2, 33, 65, 4096])
    @pytest.mark.parametrize("shared", [True, False, "all"])
    def test_a_repeated_site_trial_pair_raises(self, tape, batch, shared):
        rng = np.random.default_rng(batch)
        entries, trials = self._events(tape, batch, rng, all_shared=shared == "all")
        shared = bool(shared)
        ranks = tape.rank_of_entry[entries]
        # Repeat one event: at a site hit in several trials, or at one hit
        # in a single trial (whose repeat alone makes it look shared).
        counts = np.bincount(ranks)
        index = int(np.flatnonzero((counts[ranks] > 1) == shared)[0])
        ranks = np.append(ranks, ranks[index])
        trials = np.append(trials, trials[index])
        with pytest.raises(ProtectionError, match="more than once"):
            _flip_table(tape, ranks, trials, batch)

    @pytest.mark.parametrize(
        "trials",
        [
            [0, 0],
            [0, 0, 0],
            [0, 0, 1],
            [5, 3, 5, 6],
            [40, 33, 40],
            [31, 31],
            [31] * 5,
            [31, 31, *range(30)],
        ],
    )
    def test_packed_rows_reject_every_repeat(self, trials):
        # A repeat carries within its word, and the sum can reach 2**32:
        # the last case is 2**32 + 2**30 - 1 from 32 events, which a
        # saturating float-to-uint32 cast would read as 32 set bits.
        rows = np.zeros(len(trials), dtype=np.int32)
        with pytest.raises(ProtectionError, match="more than once"):
            _packed_rows(1, rows, np.asarray(trials, dtype=np.intp), 64)


class TestSingleTrialMasks:
    """``_site_masks`` reads a single-trial site's ``1 << t`` from a
    per-batch table when such sites outnumber the batch's trials, and
    shifts each one otherwise: both sides must give one ``(hot, masks)``,
    a naive fold's.  A site's mask depends on its trials, not on the batch
    size, so the same events run on both sides: at ``lo``, one past the
    highest trial, the table side whenever the single-trial sites
    outnumber it, and at ``hi``, at least their count, the shift side.
    The mlp16 tape's 79,102 sites leave room for more single-trial sites
    than the largest batch has trials."""

    CASES = [
        (batch, singles)
        for batch in FAULT_PATH_BATCHES
        for singles in ("above", "below", "all-shared")
        if batch > 1 or singles != "all-shared"  # one trial shares no site
    ]

    @pytest.fixture(scope="class")
    def tape(self):
        netlist = get_campaign_workload("mlp16").netlist
        return lower_plan(compile_plan(netlist, "ecim"))

    @staticmethod
    def _events(tape, rng, n_single, n_shared, n_trials):
        """(rank, trial) events without repeats: ``n_single`` sites hit in
        one trial each and ``n_shared`` in several, all below ``n_trials``."""
        sites = rng.choice(tape.rank_step.shape[0], size=n_single + n_shared, replace=False)
        ranks = sites[:n_single].tolist()
        trials = rng.integers(0, n_trials, size=n_single).tolist()
        for rank in sites[n_single:].tolist():
            width = int(rng.integers(2, min(n_trials, 9) + 1))
            ranks += [rank] * width
            trials += rng.choice(n_trials, size=width, replace=False).tolist()
        order = rng.permutation(len(ranks))
        return np.asarray(ranks)[order], np.asarray(trials, dtype=np.intp)[order]

    @classmethod
    def _case(cls, tape, batch, singles):
        """Events with more single-trial sites than ``batch`` has trials
        (``above``), at most as many (``below``, on the lower half of the
        trials, so that they still outnumber ``lo``), or none."""
        rng = np.random.default_rng(batch + len(singles))
        n_shared = 20 if batch > 1 else 0
        if singles == "above":
            n_single, n_trials = batch + 8, batch
        elif singles == "below":
            n_single = max(1, batch // 2)
            n_trials = min(batch, max(2, n_single // 2))
        else:
            n_single, n_shared, n_trials = 0, 40, batch
        return n_single, cls._events(tape, rng, n_single, n_shared, n_trials)

    @pytest.mark.parametrize("batch,singles", CASES)
    def test_table_and_shift_give_a_naive_fold(self, tape, batch, singles):
        n_single, (ranks, trials) = self._case(tape, batch, singles)
        naive = {}
        for rank, trial in zip(ranks.tolist(), trials.tolist()):
            naive[rank] = naive.get(rank, 0) | (1 << trial)
        hot = sorted(naive)
        lo = int(trials.max()) + 1
        hi = max(batch, n_single)
        assert (n_single > batch) == (singles == "above")
        if n_single > 1:
            assert n_single > lo  # the table side runs at lo
        for size in (batch, lo, hi):
            got_hot, masks = _site_masks(tape, ranks, trials, size)
            assert got_hot.tolist() == hot
            assert masks == [naive[rank] for rank in hot]

    #: A repeat at a shared site, or at a single-trial one (whose repeat
    #: alone makes it look shared), wherever the case has such a site.
    REPEATS = [
        (batch, singles, shared)
        for batch, singles in CASES
        for shared in (True, False)
        if (batch > 1 if shared else singles != "all-shared")
    ]

    @pytest.mark.parametrize("batch,singles,shared", REPEATS)
    def test_a_repeat_raises_on_both_sides(self, tape, batch, singles, shared):
        n_single, (ranks, trials) = self._case(tape, batch, singles)
        counts = np.bincount(ranks)
        index = int(np.flatnonzero((counts[ranks] > 1) == shared)[0])
        ranks = np.append(ranks, ranks[index])
        trials = np.append(trials, trials[index])
        for size in (batch, int(trials.max()) + 1, max(batch, n_single)):
            with pytest.raises(ProtectionError, match="more than once"):
                _site_masks(tape, ranks, trials, size)


def _slot_entry_events(tape, plan_arrays, batch):
    """The deterministic lowering through gate slots and site-map entries
    that the per-operation tables replaced: the reference for
    :func:`_deterministic_events`."""
    trials = plan_arrays.trial_of_entry()
    ops = plan_arrays.op_index
    positions = plan_arrays.position
    slot_table = tape.gate_slot_of_op
    known = (ops >= 0) & (ops < slot_table.shape[0])
    slots = np.where(known, slot_table[np.where(known, ops, 0)], -1)
    widths = np.diff(tape.gate_entry_ptr)
    valid = (slots >= 0) & (positions >= 0)
    valid &= positions < widths[np.where(valid, slots, 0)]
    if not valid.all():
        plan_arrays.check_unique_pairs()
    trials, slots, positions = trials[valid], slots[valid], positions[valid]
    faults = np.bincount(trials, minlength=batch).astype(np.int64, copy=False)
    ranks = tape.rank_of_entry[tape.gate_entry_ptr[slots] + positions]
    return ranks, trials, faults


def _lowered(lowering, tape, plan_arrays):
    """One lowering's events as plain lists, or the message it raised."""
    try:
        ranks, trials, faults = lowering(tape, plan_arrays, plan_arrays.n_trials)
    except ProtectionError as error:
        return str(error)
    return ranks.tolist(), trials.tolist(), faults.tolist()


INT64 = np.iinfo(np.int64)


class TestDeterministicLowering:
    """:func:`_deterministic_events` reads the tape's per-operation tables
    and must lower every plan as the slot/entry lowering did, adversarial
    ones included."""

    @pytest.fixture(
        scope="class",
        params=[
            ("and2", "ecim", True, 2),
            ("dot2", "ecim", False, None),
            ("dot2", "trim", True, None),
            ("fft4", "unprotected", True, None),
        ],
        ids=["and2-bch2", "dot2-ecim-so", "dot2-trim", "fft4-unprotected"],
    )
    def tape(self, request):
        workload, scheme, multi_output, bch_t = request.param
        kwargs = {} if bch_t is None else {"code_factory": bch_code_factory(bch_t)}
        netlist = get_campaign_workload(workload).netlist
        return lower_plan(compile_plan(netlist, scheme, multi_output=multi_output, **kwargs))

    @staticmethod
    def _adversarial_plan(tape, rng, n_trials):
        """Up to six distinct (op, position) flips per trial, empty trials
        included; about a third name an unknown operation (negative, past
        the table, at the int64 extremes) or an out-of-range position."""
        n_ops = tape.gate_slot_of_op.shape[0]
        widths = np.diff(tape.gate_entry_ptr)
        bad_ops = [-1, -2, n_ops, n_ops + 3, 2**62, INT64.min, INT64.max]
        bad_positions = [-1, -5, 2**62, INT64.min, INT64.max]
        bad_ops += [op for op in range(n_ops) if tape.gate_slot_of_op[op] < 0][:3]
        ptr, ops, positions = [0], [], []
        for _ in range(n_trials):
            pairs = set()
            for _ in range(int(rng.integers(0, 7))):
                if rng.random() < 0.15:
                    op = int(rng.choice(bad_ops))
                else:
                    op = int(rng.integers(0, n_ops))
                slot = int(tape.gate_slot_of_op[op]) if 0 <= op < n_ops else -1
                width = int(widths[slot]) if slot >= 0 else 1
                if rng.random() < 0.2:
                    position = int(rng.choice(bad_positions + [width, width + 2]))
                else:
                    position = int(rng.integers(0, max(width, 1)))
                pairs.add((op, position))
            for op, position in sorted(pairs):
                ops.append(op)
                positions.append(position)
            ptr.append(len(ops))
        return FaultPlanArrays(
            trial_ptr=np.asarray(ptr),
            op_index=np.asarray(ops, dtype=np.int64),
            position=np.asarray(positions, dtype=np.int64),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_adversarial_plans_lower_as_the_slot_lowering_did(self, tape, seed):
        rng = np.random.default_rng(seed)
        plan_arrays = self._adversarial_plan(tape, rng, 40)
        expected = _lowered(_slot_entry_events, tape, plan_arrays)
        assert not isinstance(expected, str)
        assert 0 < len(expected[0]) < plan_arrays.op_index.shape[0]
        assert _lowered(_deterministic_events, tape, plan_arrays) == expected

    def test_every_valid_flip_lowers_as_the_slot_lowering_did(self, tape):
        # One trial per gate output, then one with them all: every flip is
        # valid, so the lowering takes its no-filter path.
        widths = np.diff(tape.gate_entry_ptr).tolist()
        slots = np.flatnonzero(tape.gate_slot_of_op >= 0)
        outputs = [
            (int(op), position)
            for op in slots
            for position in range(widths[tape.gate_slot_of_op[op]])
        ]
        plans = [{op: position} for op, position in outputs]
        plans.append({})
        plan_arrays = FaultPlanArrays.from_dicts(plans)
        lowered = _lowered(_deterministic_events, tape, plan_arrays)
        assert lowered == _lowered(_slot_entry_events, tape, plan_arrays)
        ranks, trials, faults = lowered
        # Every gate output (site-map entries 0..) exactly once.
        assert sorted(ranks) == sorted(tape.rank_of_entry[:len(outputs)].tolist())
        assert faults == [1] * len(outputs) + [0]

    def test_empty_trials_lower_to_no_events(self, tape):
        plan_arrays = FaultPlanArrays(
            trial_ptr=np.zeros(4, dtype=np.intp),
            op_index=np.zeros(0, dtype=np.int64),
            position=np.zeros(0, dtype=np.int64),
        )
        assert _lowered(_deterministic_events, tape, plan_arrays) == ([], [], [0, 0, 0])
        assert _lowered(_slot_entry_events, tape, plan_arrays) == ([], [], [0, 0, 0])

    @pytest.mark.parametrize("dropped", ["unknown-op", "bad-position"])
    def test_a_repeat_among_dropped_flips_names_the_pair(self, tape, dropped):
        n_ops = tape.gate_slot_of_op.shape[0]
        op0 = int(np.flatnonzero(tape.gate_slot_of_op >= 0)[0])
        op, position = (n_ops + 7, 0) if dropped == "unknown-op" else (op0, 2**40)
        plan_arrays = FaultPlanArrays(
            trial_ptr=np.array([0, 1, 4]),
            op_index=np.array([op0, op0, op, op], dtype=np.int64),
            position=np.array([0, 0, position, position], dtype=np.int64),
        )
        message = f"trial 1 names operation {op}, output position {position} more than once"
        for lowering in (_deterministic_events, _slot_entry_events):
            with pytest.raises(ProtectionError, match=message):
                lowering(tape, plan_arrays, 2)

    def test_op_tables_are_built_on_the_first_deterministic_batch(self):
        netlist = get_campaign_workload("and2").netlist
        backend = make_backend("bitpacked", netlist, "ecim")
        inputs = {signal: 1 for signal in netlist.inputs}
        backend.run_trials(inputs, n_trials=2)
        backend.run_trials(
            inputs, n_trials=2, fault_model=FaultModelSpec.stochastic(0.1),
            stream=TrialStream.keyed(("op-tables",), range(2)),
        )
        assert "op_tables" not in vars(backend.tape)
        backend.run_trials(inputs, n_trials=2, fault_plan=[{0: 0}, {}])
        width, first = vars(backend.tape)["op_tables"]
        assert width.shape == first.shape == (backend.tape.gate_slot_of_op.shape[0] + 1,)
        assert width[-1] == 0 and not width.flags.writeable and not first.flags.writeable
