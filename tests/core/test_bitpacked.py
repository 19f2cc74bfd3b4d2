"""Bit-sliced engine tests: int transposition properties, SoA lowering,
int-tape gate semantics, and cross-backend byte-identity on ragged batches.

The systematic cross-backend grid lives in ``tests/differential/``; this
module owns the engine-local properties that grid cannot see — the
pack/unpack transposition contract (ragged batches, tail bits never set,
int XOR vs uint8 XOR), the gate records against the truth tables, the SoA
lowering and int-tape invariants, the engine's consumption of the shared
stochastic stream (reproducible, batch-composition-invariant, statistically
faithful), and the fault path's two int-op pieces against the per-trial
algorithms they replaced: the ECiM decode by syndrome value and the flip
lowering.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import BitpackedBackend, make_backend
from repro.core.batched import batched_golden_outputs, compile_plan, sample_input_matrix
from repro.core.bitpacked import (
    _ECIM,
    _Counter,
    _flip_table,
    _gate_record,
    _int_tape,
    _Machine,
    _packed_rows,
    _scheduled_events,
    _table_program,
    bitpacked_golden_outputs,
    pack_trials,
    run_packed,
    unpack_trials,
)
from repro.core.soa import (
    KIND_ECIM,
    KIND_GATE,
    KIND_PRESET,
    KIND_READ,
    KIND_TRIM,
    _table_key,
    lower_plan,
)
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
    machine.execute([_gate_record(key, tuple(range(n_inputs)), (n_inputs, n_inputs + 1))])
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
        machine.execute([_gate_record(("thr", 4, 3), (0, 0, 1, 1), (2,))])
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
# SoA lowering invariants
# ---------------------------------------------------------------------- #
class TestSoaLowering:
    @pytest.fixture(scope="class", params=["ecim", "trim"])
    def soa(self, request):
        netlist = get_campaign_workload("dot2").netlist
        return lower_plan(compile_plan(netlist, request.param))

    def test_dispatch_covers_every_step(self, soa):
        assert soa.n_steps == len(soa.plan.steps)
        kinds = set(soa.step_kind.tolist())
        assert kinds <= {KIND_GATE, KIND_PRESET, KIND_READ, KIND_ECIM, KIND_TRIM}
        # Slots are dense per kind: the last slot of each kind indexes its
        # tape's final entry.
        assert soa.n_gate_steps == int((soa.step_kind == KIND_GATE).sum())

    def test_gate_tape_mirrors_plan_steps(self, soa):
        from repro.core.batched import GateStep

        gate_steps = [s for s in soa.plan.steps if isinstance(s, GateStep)]
        assert soa.n_gate_steps == len(gate_steps)
        for slot, step in enumerate(gate_steps):
            assert np.array_equal(
                soa.gate_in_cols[soa.gate_in_ptr[slot]:soa.gate_in_ptr[slot + 1]],
                step.input_cols,
            )
            assert np.array_equal(
                soa.gate_out_cols[soa.gate_out_ptr[slot]:soa.gate_out_ptr[slot + 1]],
                step.output_cols,
            )
            assert soa.gate_op_index[slot] == step.op_index
            assert soa.gate_is_metadata[slot] == step.is_metadata
            table = soa.tables[soa.gate_table_id[slot]]
            assert table[0] == step.gate
            assert table[1] == step.input_cols.shape[0]

    def test_tables_are_deduplicated(self, soa):
        assert len(soa.tables) == len(set(soa.tables))
        assert len(soa.tables) < soa.n_gate_steps  # real plans repeat gates

    def test_site_map_partitions_gate_outputs(self, soa):
        site_map = soa.plan.site_map
        classes = site_map.classes
        total_outputs = int(soa.gate_out_ptr[-1])
        n_presets, n_reads = int(soa.preset_ptr[-1]), int(soa.read_ptr[-1])
        assert site_map.steps.shape[0] == total_outputs + n_presets + n_reads
        # Entries 0.. are the gate outputs in firing order: the SoA's CSR.
        assert np.array_equal(site_map.columns[:total_outputs], soa.gate_out_cols)
        gate_and_metadata = np.concatenate([classes["gate"], classes["metadata"]])
        assert np.array_equal(np.sort(gate_and_metadata), np.arange(total_outputs))
        # Every gate output is preset (count-only), then every preset cell.
        preset = classes["preset"]
        assert preset.shape[0] == total_outputs + n_presets
        assert int((preset < 0).sum()) == total_outputs
        held = preset[preset >= 0]
        assert np.array_equal(np.sort(held), np.arange(total_outputs, total_outputs + n_presets))
        steps = np.where(preset >= 0, site_map.steps[np.maximum(preset, 0)], -1)
        assert np.all(np.diff(steps[preset >= 0]) >= 0)
        assert np.array_equal(
            classes["memory"], np.arange(total_outputs + n_presets, site_map.steps.shape[0])
        )
        assert np.array_equal(site_map.columns[classes["memory"]], soa.read_cols)

    def test_buffers_are_frozen(self, soa):
        with pytest.raises(ValueError):
            soa.step_kind[0] = 0
        with pytest.raises(ValueError):
            soa.gate_out_cols[0] = 0


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
        sites = batched.plan.gate_fault_sites()
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
    def test_make_backend_dispatch_and_lazy_soa(self):
        netlist = get_campaign_workload("and2").netlist
        backend = make_backend("bitpacked", netlist, "ecim")
        assert isinstance(backend, BitpackedBackend)
        assert backend._soa is None  # lowered lazily
        assert backend.soa.plan is backend.plan
        assert backend._soa is not None

    def test_sites_identical_to_batched(self):
        netlist = get_campaign_workload("dot2").netlist
        batched = make_backend("batched", netlist, "trim")
        bitpacked = make_backend("bitpacked", netlist, "trim")
        assert batched.enumerate_sites() == bitpacked.enumerate_sites()

    def test_run_packed_rejects_bad_matrix(self):
        netlist = get_campaign_workload("and2").netlist
        soa = lower_plan(compile_plan(netlist, "ecim"))
        with pytest.raises(ProtectionError):
            run_packed(soa, np.zeros((4, 99), dtype=np.uint8))
        with pytest.raises(ProtectionError):
            run_packed(soa, np.zeros((0, soa.n_inputs), dtype=np.uint8))

    def test_golden_outputs_match_the_batched_model(self):
        netlist = get_campaign_workload("fft4").netlist
        matrix = sample_input_matrix(netlist, _stream("golden-int", 77))
        assert np.array_equal(
            bitpacked_golden_outputs(netlist, pack_trials(matrix), 77),
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
            bitpacked_golden_outputs(netlist, pack_trials(matrix), 4),
            batched_golden_outputs(netlist, matrix),
        )


# ---------------------------------------------------------------------- #
# The int tape
# ---------------------------------------------------------------------- #
class TestIntTape:
    @pytest.fixture(scope="class")
    def soa(self):
        netlist = get_campaign_workload("dot2").netlist
        return lower_plan(compile_plan(netlist, "ecim"))

    def test_one_record_per_step_cached_per_plan(self, soa):
        tape = _int_tape(soa)
        assert len(tape.records) == soa.n_steps
        assert _int_tape(soa) is tape

    def test_records_are_interned(self, soa):
        # ECiM parity updates reuse a few column tuples: identical records
        # are one shared object, and column ints are shared across records.
        records = _int_tape(soa).records
        assert len({id(record) for record in records}) < len(records)
        canonical = {}
        for record in records:
            if record[0] != _ECIM:  # ECiM records carry their decode tables
                assert canonical.setdefault(record, record) is record

    @pytest.mark.parametrize("batch", [1, 63, 65, 130])
    def test_state_ints_never_set_tail_bits(self, soa, batch):
        stream = _stream("tail", batch)
        matrix = sample_input_matrix(soa.plan.netlist, stream)
        spec = FaultModelSpec.stochastic(gate_error_rate=0.05, memory_error_rate=0.05)
        schedule = fault_schedule(spec, stream, soa.plan.fault_sites, batch)
        tape = _int_tape(soa)
        ranks, trials = _scheduled_events(tape, schedule)
        machine = _Machine([0] * soa.n_cols, batch)
        machine.state[tape.const1_col] = machine.full
        for col, value in zip(tape.input_cols, pack_trials(matrix)):
            machine.state[col] = value
        machine.execute(tape.records, _flip_table(tape, ranks, trials, batch))
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
        soa = make_backend(
            "bitpacked", netlist, "ecim", code_factory=factory[request.param]
        ).soa
        records = _int_tape(soa).records
        levels = []
        for step in np.flatnonzero(soa.step_kind == KIND_ECIM).tolist():
            slot = int(soa.step_slot[step])
            data = soa.ecim_data_cols[soa.ecim_data_ptr[slot]:soa.ecim_data_ptr[slot + 1]]
            parity = soa.ecim_parity_cols[
                soa.ecim_parity_ptr[slot]:soa.ecim_parity_ptr[slot + 1]
            ]
            offset = int(soa.ecim_lut_offset[slot])
            lut = soa.ecim_lut[offset:offset + (1 << parity.shape[0])]
            levels.append((data.tolist(), parity.tolist(), lut, records[step][2]))
        return soa.n_cols, levels

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
        return _int_tape(lower_plan(compile_plan(netlist, "ecim")))

    @staticmethod
    def _events(tape, batch, rng):
        """Random (site-map entry, trial) events without repeats at 40
        sites: half of them hit in one trial, the rest in several."""
        sites = rng.choice(tape.rank_step.shape[0], size=40, replace=False)
        entries, trials = [], []
        for index, entry in enumerate(sites.tolist()):
            width = 1 if index % 2 or batch == 1 else int(rng.integers(2, min(batch, 9) + 1))
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
    def test_equals_a_naive_fold(self, tape, batch):
        rng = np.random.default_rng(batch + 7)
        site_map = tape.site_map
        for _ in range(3):
            entries, trials = self._events(tape, batch, rng)
            naive = {}
            for entry, trial in zip(entries.tolist(), trials.tolist()):
                key = (int(site_map.steps[entry]), int(site_map.columns[entry]))
                naive[key] = naive.get(key, 0) ^ (1 << trial)
            table = list(_flip_table(tape, tape.rank_of_entry[entries], trials, batch))
            steps = [step for step, _, _ in table]
            assert steps == sorted(steps)
            assert all(0 < mask <= (1 << batch) - 1 for _, _, mask in table)
            assert self._fold(table) == {key: mask for key, mask in naive.items() if mask}

    def test_no_events_no_flips(self, tape):
        none = _flip_table(tape, np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.intp), 5)
        assert list(none) == []

    @pytest.mark.parametrize("batch", [2, 33, 65, 4096])
    @pytest.mark.parametrize("shared", [True, False])
    def test_a_repeated_site_trial_pair_raises(self, tape, batch, shared):
        rng = np.random.default_rng(batch)
        entries, trials = self._events(tape, batch, rng)
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
