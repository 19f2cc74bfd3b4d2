"""The RNG contract, version 2 (see :mod:`repro.core.rng`).

* the vectorized Philox4x32-10 reproduces the Random123 known-answer
  vectors and a pure-Python-int reference on random keys and counters;
* a trial's inputs and fault hits depend only on (key, trial index): the
  same at any batch size and any shard offset, and the same for every
  stream built from one context;
* no backend touches module-global random state;
* inputs never change with the fault model;
* skip-sampled hit counts follow the class's binomial, and a rate of 1 hits
  every site;
* a burst schedule places each burst where a walk over the trial's trigger
  draws says it goes.
"""

import random

import numpy as np
import pytest

from repro.campaign.spec import trial_seed
from repro.core.backend import derive_seed
from repro.core.batched import sample_input_matrix
from repro.core.rng import (
    FAULT_CLASSES,
    STREAM_BURST,
    STREAM_INPUTS,
    STREAM_PLAN,
    FaultSites,
    TrialStream,
    fault_schedule,
    philox4x32,
    stream_key,
)
from repro.errors import ProtectionError
from repro.pim.faults import FaultModelSpec

from differential_harness import MODEL_KINDS, get_cell

MASK32 = 0xFFFFFFFF


def _philox_reference(counter, key):
    """Philox4x32-10 on plain Python ints (Salmon et al., SC'11)."""
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for round_index in range(10):
        if round_index:
            k0 = (k0 + 0x9E3779B9) & MASK32
            k1 = (k1 + 0xBB67AE85) & MASK32
        p0 = 0xD2511F53 * c0
        p1 = 0xCD9E8D57 * c2
        c0, c1, c2, c3 = (
            (p1 >> 32) ^ c1 ^ k0,
            p1 & MASK32,
            (p0 >> 32) ^ c3 ^ k1,
            p0 & MASK32,
        )
    return c0, c1, c2, c3


def _philox(counter, key):
    words = philox4x32([np.array([word], dtype=np.uint64) for word in counter], key)
    return tuple(int(word[0]) for word in words)


class TestPhilox:
    @pytest.mark.parametrize(
        "counter,key,expected",
        [
            ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
            (
                (MASK32,) * 4,
                (MASK32,) * 2,
                (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
            ),
            (
                (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
                (0xA4093822, 0x299F31D0),
                (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
            ),
        ],
        ids=["zeros", "ones", "pi"],
    )
    def test_random123_known_answers(self, counter, key, expected):
        assert _philox(counter, key) == expected
        assert _philox_reference(counter, key) == expected

    def test_vectorized_matches_the_int_reference(self):
        rng = random.Random(20240613)
        counters = [tuple(rng.getrandbits(32) for _ in range(4)) for _ in range(200)]
        key = (rng.getrandbits(32), rng.getrandbits(32))
        words = philox4x32(
            [np.array([c[i] for c in counters], dtype=np.uint64) for i in range(4)], key
        )
        for row, counter in enumerate(counters):
            assert tuple(int(w[row]) for w in words) == _philox_reference(counter, key)

    def test_stream_counter_layout(self):
        # Counter (trial lo, trial hi, stream id, block); key (lo, hi) of the
        # 64-bit stream key; uniforms 2b, 2b+1 from words (0, 1) and (2, 3).
        key = derive_seed("layout", "rng-v2")
        trial = (5 << 32) | 7
        stream = TrialStream(key, [trial])
        words = _philox_reference((7, 5, STREAM_PLAN, 3), (key & MASK32, key >> 32))
        uniforms = stream.uniforms(STREAM_PLAN, 1, first_block=3)[0]
        expected = [
            ((a >> 5) * 2**26 + (b >> 6)) / 2**53
            for a, b in ((words[0], words[1]), (words[2], words[3]))
        ]
        assert uniforms.tolist() == expected

    def test_input_bits_are_the_inputs_stream_words(self):
        stream = TrialStream(derive_seed("bits", "rng-v2"), [3, 11])
        bits = stream.input_bits(150)
        for row, trial in enumerate((3, 11)):
            words = []
            for block in range(2):
                words += _philox_reference(
                    (trial, 0, STREAM_INPUTS, block), (stream.key & MASK32, stream.key >> 32)
                )
            assert bits[row].tolist() == [(words[j // 32] >> (j % 32)) & 1 for j in range(150)]


def _stochastic_spec(memory=0.01, preset=0.005):
    return FaultModelSpec.stochastic(
        gate_error_rate=0.02,
        memory_error_rate=memory,
        preset_error_rate=preset,
        metadata_error_rate=0.03,
    )


class TestTrialAddressing:
    """What trial t draws depends only on (key, t)."""

    @pytest.fixture(scope="class")
    def sites(self):
        return get_cell("dot2", "ecim", True).candidates["batched"].plan.fault_sites

    @pytest.mark.parametrize("batch", [1, 63, 64, 65, 250])
    @pytest.mark.parametrize("offset", [0, 1_000, 2**32 + 5])
    def test_inputs_and_hits_independent_of_batch_and_offset(self, sites, batch, offset):
        key = trial_seed(11, "dot2|ecim")
        full = TrialStream(key, range(offset, offset + 250))
        part = TrialStream(key, range(offset, offset + batch))
        assert np.array_equal(part.input_bits(37), full.input_bits(37)[:batch])
        for spec in (_stochastic_spec(), FaultModelSpec.burst(3, 5, 0.02, 0.01)):
            whole = fault_schedule(spec, full, sites, 250)
            mine = fault_schedule(spec, part, sites, batch)
            assert np.array_equal(mine.faults, whole.faults[:batch])
            for name, (rows, ordinals) in whole.hits.items():
                keep = rows < batch
                got_rows, got_ordinals = mine.hits.get(name, (rows[:0], ordinals[:0]))
                assert np.array_equal(got_rows, rows[keep]), name
                assert np.array_equal(got_ordinals, ordinals[keep]), name

    def test_single_trial_stream_equals_its_row(self, sites):
        key = trial_seed(3, "cell")
        batch = TrialStream(key, range(40, 105))
        for row in (0, 17, 64):
            alone = TrialStream(key, [40 + row])
            assert np.array_equal(alone.input_bits(9)[0], batch.input_bits(9)[row])
            assert np.array_equal(alone.subsets(500, 4)[0], batch.subsets(500, 4)[row])

    def test_same_context_same_stream_across_instances(self, sites):
        first, second = (TrialStream.keyed(("instances", 9), range(64)) for _ in range(2))
        assert np.array_equal(first.input_bits(37), second.input_bits(37))
        a, b = (fault_schedule(_stochastic_spec(), s, sites, 64) for s in (first, second))
        assert a.faults.sum() > 0 and np.array_equal(a.faults, b.faults)
        assert set(a.hits) == set(b.hits)
        for name, (rows, ordinals) in a.hits.items():
            assert np.array_equal(b.hits[name][0], rows), name
            assert np.array_equal(b.hits[name][1], ordinals), name

    def test_keyed_stream_is_the_context_stream_key(self):
        context = (4, "dot2|ecim")
        keyed = TrialStream.keyed(context, range(5))
        assert keyed.key == stream_key(*context) == derive_seed(*context, "rng-v2")
        assert keyed.key == trial_seed(*context)  # a campaign cell's stream
        explicit = TrialStream(stream_key(*context), range(5))
        assert np.array_equal(keyed.uniforms(STREAM_PLAN, 3), explicit.uniforms(STREAM_PLAN, 3))

    def test_trial_indices_and_key_are_checked(self):
        with pytest.raises(ProtectionError, match="non-negative"):
            TrialStream(1, [0, -1])
        # Keys reduce to their low 64 bits, the two Philox key words.
        wide = TrialStream(2**64 + 5, [0, 1])
        assert wide.key == 5
        assert np.array_equal(wide.input_bits(40), TrialStream(5, [0, 1]).input_bits(40))

    def test_backends_leave_global_random_state_untouched(self):
        cell = get_cell("and2", "trim", True)
        state, np_state = random.getstate(), np.random.get_state()
        for kind in MODEL_KINDS:
            for backend in (cell.reference, *cell.candidates.values()):
                backend.run_trials(cell.inputs, **cell.run_kwargs(kind))
        sample_input_matrix(cell.reference.netlist, cell.stream)
        assert random.getstate() == state
        after = np.random.get_state()
        assert after[0] == np_state[0] and after[2:] == np_state[2:]
        assert np.array_equal(after[1], np_state[1])

    def test_distinct_cells_and_trials_draw_differently(self):
        a = TrialStream(trial_seed(0, "a"), range(64)).input_bits(64)
        b = TrialStream(trial_seed(0, "b"), range(64)).input_bits(64)
        assert not np.array_equal(a, b)
        assert len({row.tobytes() for row in a}) == 64


class TestInputsInvariantToFaultModel:
    @pytest.mark.parametrize("backend_name", ["scalar", "batched", "bitpacked"])
    def test_inputs_identical_under_every_fault_model(self, backend_name):
        """Drawing faults never shifts input sampling: the same stream gives
        the same matrix, and a faulty batch leaves the caller's matrix
        untouched."""
        cell = get_cell("dot2", "ecim", True)
        backend = (
            cell.reference if backend_name == "scalar" else cell.candidates[backend_name]
        )
        before = cell.inputs.copy()
        for kind in MODEL_KINDS:
            backend.run_trials(cell.inputs, **cell.run_kwargs(kind))
            assert np.array_equal(cell.inputs, before)
        assert np.array_equal(sample_input_matrix(backend.netlist, cell.stream), before)

    def test_fault_free_outcomes_unchanged_after_faulty_batches(self):
        cell = get_cell("and2", "trim", True)
        baseline = cell.reference.run_trials(cell.inputs).counts()
        for kind in MODEL_KINDS:
            cell.reference.run_trials(cell.inputs, **cell.run_kwargs(kind))
        assert cell.reference.run_trials(cell.inputs).counts() == baseline


class TestHitStatistics:
    TRIALS = 2000

    @pytest.mark.parametrize("rate", [1e-4, 1e-2, 0.5])
    @pytest.mark.parametrize("n_sites", [1, 37, 1702])
    def test_hit_counts_within_five_sigma(self, rate, n_sites):
        stream = TrialStream.keyed(("stats", rate, n_sites), range(self.TRIALS))
        rows, positions = stream.bernoulli_hits(1, n_sites, rate)
        assert positions.min(initial=0) >= 0 and positions.max(initial=0) < n_sites
        n = self.TRIALS * n_sites
        sigma = (n * rate * (1 - rate)) ** 0.5
        assert abs(rows.shape[0] - n * rate) < 5 * sigma + 1, (rows.shape[0], n * rate)
        # Sorted by trial, then strictly increasing within a trial.
        assert np.all(np.diff(rows) >= 0)
        same = np.diff(rows) == 0
        assert np.all(np.diff(positions)[same] > 0)

    def test_rate_one_hits_every_site(self):
        stream = TrialStream.keyed(("saturated",), range(7))
        rows, positions = stream.bernoulli_hits(2, 50, 1.0)
        assert rows.shape[0] == 7 * 50
        assert np.array_equal(positions.reshape(7, 50), np.tile(np.arange(50), (7, 1)))

    def test_rate_zero_draws_nothing(self):
        rows, positions = TrialStream.keyed(("zero",), range(9)).bernoulli_hits(3, 50, 0.0)
        assert rows.size == positions.size == 0

    def test_overflow_rows_redraw_from_the_following_blocks(self):
        # The gap matrix is sized for the mean; at n_sites * rate = 0.5 many
        # rows need more gaps than the first pass drew.  Positions must
        # still not depend on the class size except through truncation.
        stream = TrialStream.keyed(("overflow",), range(300))
        small = stream.bernoulli_hits(1, 50, 0.01)
        large = stream.bernoulli_hits(1, 5000, 0.01)
        keep = large[1] < 50
        assert np.array_equal(small[0], large[0][keep])
        assert np.array_equal(small[1], large[1][keep])

    @pytest.mark.parametrize("name", FAULT_CLASSES)
    def test_every_class_draws_its_own_stream(self, name):
        sites = get_cell("dot2", "ecim", True).candidates["batched"].plan.fault_sites
        rates = {other: 0.0 for other in FAULT_CLASSES}
        rates[name] = 0.05
        spec = FaultModelSpec.stochastic(
            gate_error_rate=rates["gate"],
            metadata_error_rate=rates["metadata"],
            preset_error_rate=rates["preset"],
            memory_error_rate=rates["memory"],
        )
        schedule = fault_schedule(spec, TrialStream.keyed(("class",), range(64)), sites, 64)
        assert set(schedule.hits) == {name}

    def test_subsets_are_uniform_and_distinct(self):
        stream = TrialStream.keyed(("subsets",), range(6000))
        chosen = stream.subsets(6, 2)
        assert np.all(chosen[:, 0] < chosen[:, 1])
        pairs, counts = np.unique(chosen[:, 0] * 6 + chosen[:, 1], return_counts=True)
        assert pairs.shape[0] == 15  # every 2-subset of 6 sites occurs
        expected = 6000 / 15
        assert np.all(np.abs(counts - expected) < 5 * expected**0.5)

    def test_stuck_at_and_zero_rates_need_no_stream(self):
        assert not FaultModelSpec.stuck_at((3,), 1).needs_stream
        assert not FaultModelSpec.stochastic().needs_stream
        assert FaultModelSpec.burst(2, 4, gate_error_rate=0.1).needs_stream


def _burst_walk(ops, draws, length, window):
    """One trial's bursts, walked output by output over its trigger draws.

    The trial draws once per gate output it visits outside a burst; a
    trigger flips its output plus up to ``length - 1`` following outputs
    whose operation lies within ``window`` of the trigger's, without
    drawing for them.  Returns each burst as ``(trigger draw, sites)``.
    """
    bursts = []
    draw = remaining = 0
    expires = -1
    for site, op in enumerate(ops):
        if remaining and op <= expires:
            remaining -= 1
            bursts[-1][1].append(site)
            continue
        if draw in draws:
            bursts.append((draw, [site]))
            remaining, expires = length - 1, op + window
        draw += 1
    return bursts


class TestBurstSemantics:
    """The burst model pinned on the schedule every backend consumes, so a
    ``_burst_schedule`` error cannot hide behind cross-backend agreement."""

    #: Gate outputs by operation: multi-output firings, and gaps in the
    #: operation index so that some windows close before the next output.
    OPS = np.array(
        [0, 0, 0, 1, 1, 2, 5, 6, 6, 6, 9, 10, 14, 15, 15, 16, 20, 21, 21, 22, 23, 23],
        dtype=np.int64,
    )
    TRIALS = 300
    RATE = 0.15

    @pytest.mark.parametrize("length,window", [(1, 4), (2, 1), (3, 2), (4, 3), (6, 8)])
    def test_schedule_follows_the_trigger_walk(self, length, window):
        ops = self.OPS
        sites = FaultSites(gate=len(ops), metadata=0, preset=0, memory=0, output_ops=ops)
        stream = TrialStream.keyed(("burst-walk", length, window), range(self.TRIALS))
        spec = FaultModelSpec.burst(length, window, gate_error_rate=self.RATE)
        schedule = fault_schedule(spec, stream, sites, self.TRIALS)
        assert set(schedule.hits) == {"output"}
        rows, ordinals = schedule.hits["output"]
        trigger_rows, trigger_draws = stream.bernoulli_hits(STREAM_BURST, len(ops), self.RATE)
        bursts = []
        for trial in range(self.TRIALS):
            walk = _burst_walk(
                ops, set(trigger_draws[trigger_rows == trial].tolist()), length, window
            )
            expected = [site for _, burst in walk for site in burst]
            assert ordinals[rows == trial].tolist() == expected, trial
            assert schedule.faults[trial] == len(expected)
            bursts += walk
        if length == 1:
            # No followers: every output draws, and each hit is its draw.
            assert all(burst == [draw] for draw, burst in bursts)
            return
        assert all(len(burst) <= length for _, burst in bursts)
        # The walk covered each behaviour the schedule has to get right:
        # bursts that skip draws, so later triggers land past their draw...
        assert any(burst[0] > draw for draw, burst in bursts)
        # ...bursts that run on into the next firing...
        assert any(ops[burst[-1]] > ops[burst[0]] for _, burst in bursts)
        # ...and bursts the window cuts short before the last output.
        assert any(len(burst) < length and burst[-1] + 1 < len(ops) for _, burst in bursts)
