"""Tests for the fault models and injectors (Section II-C error model)."""

import numpy as np
import pytest

from repro.campaign.spec import CampaignSpec
from repro.core.rng import STREAM_BURST, FaultSites, TrialStream, fault_schedule
from repro.errors import PimError
from repro.pim.faults import (
    DeterministicFaultInjector,
    FaultEvent,
    FaultKind,
    FaultLog,
    FaultModel,
    FaultModelSpec,
    NoFaultInjector,
    ScheduledFaultInjector,
    StuckAtFaultInjector,
    parse_fault_model,
)

SITE = (0, 3, 17)


def _sites(gate=0, metadata=0, preset=0, memory=0, output_ops=None):
    """Hand-built fault sites; gate outputs default to one per operation."""
    ops = np.arange(gate + metadata) if output_ops is None else output_ops
    return FaultSites(
        gate=gate,
        metadata=metadata,
        preset=preset,
        memory=memory,
        output_ops=np.asarray(ops, dtype=np.int64),
    )


def _injectors(spec, sites, trials=1, context=("faults",)):
    """One :class:`ScheduledFaultInjector` per trial, fed the batch schedule
    of ``spec`` the way the scalar backend feeds its executors."""
    stream = TrialStream.keyed(context, range(trials))
    schedule = fault_schedule(spec, stream, sites, trials)
    return [ScheduledFaultInjector(hits) for hits in schedule.by_trial()]


class TestFaultModel:
    def test_defaults_are_error_free(self):
        assert FaultModel().is_error_free

    def test_metadata_rate_defaults_to_gate_rate(self):
        model = FaultModel(gate_error_rate=0.25)
        assert model.effective_metadata_error_rate == pytest.approx(0.25)

    def test_explicit_metadata_rate(self):
        model = FaultModel(gate_error_rate=0.25, metadata_error_rate=0.1)
        assert model.effective_metadata_error_rate == pytest.approx(0.1)

    @pytest.mark.parametrize("field", ["gate_error_rate", "memory_error_rate", "preset_error_rate"])
    def test_rejects_invalid_probabilities(self, field):
        with pytest.raises(PimError):
            FaultModel(**{field: 1.5})

    def test_nonzero_rate_not_error_free(self):
        assert not FaultModel(gate_error_rate=0.01).is_error_free


class TestFaultLog:
    def test_record_and_count(self):
        log = FaultLog()
        log.record(FaultEvent(FaultKind.LOGIC, SITE, 4, 0, 1))
        log.record(FaultEvent(FaultKind.MEMORY, SITE, None, 1, 0))
        assert log.count() == 2
        assert log.count(FaultKind.LOGIC) == 1
        assert log.count(FaultKind.MEMORY) == 1

    def test_sites_and_clear(self):
        log = FaultLog()
        log.record(FaultEvent(FaultKind.LOGIC, SITE, 0, 0, 1))
        assert log.sites() == [SITE]
        log.clear()
        assert log.count() == 0

    def test_event_rejects_unknown_kind(self):
        with pytest.raises(PimError):
            FaultEvent("cosmic", SITE, 0, 0, 1)


class TestNoFaultInjector:
    def test_never_corrupts(self):
        injector = NoFaultInjector()
        for value in (0, 1):
            assert injector.corrupt_gate_output(value, SITE, 0) == value
            assert injector.corrupt_stored_bit(value, SITE) == value
            assert injector.corrupt_preset(value, SITE, 0) == value
        assert injector.log.count() == 0


class TestStochasticSchedule:
    """The stochastic model on the scalar path: one schedule per batch,
    flipped call by call through :class:`ScheduledFaultInjector`."""

    def test_rate_one_always_flips(self):
        [injector] = _injectors(FaultModelSpec.stochastic(gate_error_rate=1.0), _sites(gate=2))
        assert injector.corrupt_gate_output(0, SITE, 0) == 1
        assert injector.corrupt_gate_output(1, SITE, 1) == 0
        assert injector.log.count() == 2

    def test_rate_zero_never_flips(self):
        spec = FaultModelSpec.stochastic(gate_error_rate=0.0, memory_error_rate=0.5)
        [injector] = _injectors(spec, _sites(gate=100, memory=100))
        for index in range(100):
            assert injector.corrupt_gate_output(0, SITE, index) == 0
        assert injector.log.count() == 0
        # A model that draws nothing has no schedule at all.
        assert fault_schedule(FaultModelSpec.stochastic(0.0), None, _sites(gate=100), 1) is None

    def test_seed_reproducibility(self):
        spec = FaultModelSpec.stochastic(gate_error_rate=0.3)

        def flips(context):
            [injector] = _injectors(spec, _sites(gate=50), context=context)
            return [injector.corrupt_gate_output(0, SITE, i) for i in range(50)]

        assert flips(("seed", 42)) == flips(("seed", 42))
        assert flips(("seed", 42)) != flips(("seed", 43))

    def test_empirical_rate_close_to_configured(self):
        spec = FaultModelSpec.stochastic(gate_error_rate=0.2)
        [injector] = _injectors(spec, _sites(gate=5000), context=("rate", 7))
        flips = sum(injector.corrupt_gate_output(0, SITE, i) for i in range(5000))
        assert 0.15 < flips / 5000 < 0.25

    def test_memory_errors_logged_as_memory(self):
        spec = FaultModelSpec.stochastic(memory_error_rate=1.0)
        [injector] = _injectors(spec, _sites(gate=2, memory=3))
        assert [injector.corrupt_stored_bit(1, SITE) for _ in range(3)] == [0, 0, 0]
        assert injector.corrupt_gate_output(0, SITE, 0) == 0
        assert injector.log.count(FaultKind.MEMORY) == injector.log.count() == 3

    def test_metadata_errors_logged_as_metadata(self):
        # An unset metadata rate inherits the gate rate; an explicit one wins.
        sites = _sites(gate=1, metadata=1)
        [inherits] = _injectors(FaultModelSpec.stochastic(gate_error_rate=1.0), sites)
        inherits.corrupt_gate_output(0, SITE, 0)
        inherits.corrupt_gate_output(0, SITE, 1, is_metadata=True)
        assert inherits.log.count(FaultKind.LOGIC) == 1
        assert inherits.log.count(FaultKind.METADATA) == 1
        spec = FaultModelSpec.stochastic(gate_error_rate=1.0, metadata_error_rate=0.0)
        [spared] = _injectors(spec, sites)
        assert spared.corrupt_gate_output(0, SITE, 0, is_metadata=True) == 0
        assert spared.corrupt_gate_output(0, SITE, 1) == 1
        assert spared.log.count(FaultKind.METADATA) == 0

    def test_preset_errors(self):
        spec = FaultModelSpec.stochastic(preset_error_rate=1.0)
        [injector] = _injectors(spec, _sites(gate=1, preset=2))
        assert injector.corrupt_preset(0, SITE, 0) == 1
        assert injector.corrupt_preset(1, SITE, 1) == 0
        assert injector.corrupt_gate_output(0, SITE, 2) == 0
        assert injector.log.count(FaultKind.PRESET) == injector.log.count() == 2


class TestDeterministicFaultInjector:
    def test_targets_specific_operation(self):
        injector = DeterministicFaultInjector(target_operations={3: 1})
        assert injector.corrupt_gate_output(0, SITE, 2) == 0
        assert injector.corrupt_gate_output(0, SITE, 3) == 1
        assert injector.corrupt_gate_output(0, SITE, 3) == 0  # only one flip
        assert injector.exhausted

    def test_targets_output_position(self):
        injector = DeterministicFaultInjector(target_output_positions={5: 1})
        # First output of operation 5 untouched, second flipped.
        assert injector.corrupt_gate_output(0, SITE, 5) == 0
        assert injector.corrupt_gate_output(0, SITE, 5) == 1
        assert injector.corrupt_gate_output(0, SITE, 5) == 0

    def test_targets_memory_cell(self):
        injector = DeterministicFaultInjector(target_cells=[SITE])
        assert injector.corrupt_stored_bit(1, SITE) == 0
        # The cell is only hit once.
        assert injector.corrupt_stored_bit(0, SITE) == 0
        assert injector.log.count(FaultKind.MEMORY) == 1

    def test_untargeted_operations_clean(self):
        injector = DeterministicFaultInjector(target_operations={10: 1})
        for index in range(9):
            assert injector.corrupt_gate_output(1, SITE, index) == 1
        assert not injector.exhausted


def _burst_triggers(stream, n_outputs, rate):
    """Each trial's burst trigger draws (the draws that start a burst)."""
    rows, draws = stream.bernoulli_hits(STREAM_BURST, n_outputs, rate)
    return [set(draws[rows == trial].tolist()) for trial in range(len(stream))]


def _burst_run(spec, sites, context, trials=400):
    """A batch's stream, its schedule and each trial's flipped outputs."""
    stream = TrialStream.keyed(context, range(trials))
    schedule = fault_schedule(spec, stream, sites, trials)
    hits = [trial.get("output", np.zeros(0)).tolist() for trial in schedule.by_trial()]
    return stream, schedule, hits


class TestBurstSchedule:
    """The burst model on hand-built gate outputs, at trigger rates below 1
    so that each expected flip is read off the trial's trigger draws."""

    def test_burst_flips_consecutive_outputs(self):
        # Every output is a firing of its own and each window spans the
        # burst, so the k-th trigger draw d lands on output d + 2k and flips
        # it and the two outputs after it.
        n_out = 30
        spec = FaultModelSpec.burst(3, 10, gate_error_rate=0.05)
        stream, _, hits = _burst_run(spec, _sites(gate=n_out), ("consecutive",))
        multi = 0
        for trial, draws in enumerate(_burst_triggers(stream, n_out, 0.05)):
            starts = [d + 2 * k for k, d in enumerate(sorted(draws)) if d + 2 * k < n_out]
            expected = [s + j for s in starts for j in range(3) if s + j < n_out]
            assert hits[trial] == expected, trial
            multi += len(starts) > 1
        assert multi > 0
        first = next(trial for trial in hits if trial)
        injector = ScheduledFaultInjector({"output": first})
        flipped = [i for i in range(n_out) if injector.corrupt_gate_output(0, SITE, i)]
        assert flipped == first
        assert {event.kind for event in injector.log.events} == {FaultKind.LOGIC}

    def test_burst_expires_outside_window(self):
        # Outputs five operations apart never fall inside a two-operation
        # window: each trigger flips its own output only, so every output
        # draws and the bursts are the burst stream's plain Bernoulli hits.
        n_out = 40
        spec = FaultModelSpec.burst(4, 2, gate_error_rate=0.1)
        sites = _sites(gate=n_out, output_ops=np.arange(0, 5 * n_out, 5))
        stream, schedule, _ = _burst_run(spec, sites, ("expires",))
        rows, draws = stream.bernoulli_hits(STREAM_BURST, n_out, 0.1)
        assert rows.size > 0
        assert np.array_equal(schedule.hits["output"][0], rows)
        assert np.array_equal(schedule.hits["output"][1], draws)

    def test_invalid_parameters(self):
        with pytest.raises(PimError, match="burst_length"):
            FaultModelSpec.burst(0, 4)
        with pytest.raises(PimError, match="correlation_window"):
            FaultModelSpec.burst(3, 0)
        with pytest.raises(PimError, match="correlation_window"):
            parse_fault_model("burst:length=3,window=-2")

    def test_memory_path_still_stochastic(self):
        # Memory errors under the burst model are the stochastic model's
        # memory class: same stream, same hits.
        sites = _sites(gate=6, memory=50)
        burst = FaultModelSpec.burst(3, 4, gate_error_rate=0.0, memory_error_rate=0.05)
        _, schedule, _ = _burst_run(burst, sites, ("memory",))
        stochastic = FaultModelSpec.stochastic(memory_error_rate=0.05)
        _, reference, _ = _burst_run(stochastic, sites, ("memory",))
        assert set(schedule.hits) == set(reference.hits) == {"memory"}
        for got, want in zip(schedule.hits["memory"], reference.hits["memory"]):
            assert np.array_equal(got, want)
        [injector] = _injectors(FaultModelSpec.burst(3, 4, 0.0, 1.0), _sites(gate=2, memory=1))
        assert injector.corrupt_gate_output(0, SITE, 0) == 0
        assert injector.corrupt_stored_bit(0, SITE) == 1
        assert injector.log.count(FaultKind.MEMORY) == injector.log.count() == 1


class TestStuckAtFaultInjector:
    def test_stuck_at_one(self):
        injector = StuckAtFaultInjector({SITE: 1})
        assert injector.corrupt_gate_output(0, SITE, 0) == 1
        assert injector.corrupt_gate_output(1, SITE, 1) == 1

    def test_stuck_at_zero_on_reads(self):
        injector = StuckAtFaultInjector({SITE: 0})
        assert injector.corrupt_stored_bit(1, SITE) == 0

    def test_other_sites_untouched(self):
        injector = StuckAtFaultInjector({SITE: 1})
        assert injector.corrupt_gate_output(0, (0, 0, 0), 0) == 0

    def test_only_logs_actual_flips(self):
        injector = StuckAtFaultInjector({SITE: 1})
        injector.corrupt_gate_output(1, SITE, 0)  # already 1, no flip
        injector.corrupt_gate_output(0, SITE, 1)  # flips
        assert injector.log.count(FaultKind.STUCK_AT) == 1

    def test_rejects_non_bit_value(self):
        with pytest.raises(PimError):
            StuckAtFaultInjector({SITE: 2})


def _drawn_streams(monkeypatch):
    """Record the stream id of every uniform a :class:`TrialStream` draws."""
    drawn = []
    uniforms = TrialStream.uniforms

    def recording(self, stream, *args, **kwargs):
        drawn.append(stream)
        return uniforms(self, stream, *args, **kwargs)

    monkeypatch.setattr(TrialStream, "uniforms", recording)
    return drawn


class TestScalarInjectorEdgeCases:
    """Burst wrap / overlong bursts, stuck preset targets, zero-rate classes
    that draw nothing."""

    def test_burst_spans_row_end_into_next_operations(self):
        # A trigger on the last output of a two-output firing runs on into
        # the following operations while the window allows: ops 3, 5, 6 lie
        # within 4 of op 3, op 30 does not.
        ops = [3, 3, 5, 6, 30]
        spec = FaultModelSpec.burst(4, 4, gate_error_rate=0.3)
        stream, _, hits = _burst_run(spec, _sites(gate=5, output_ops=ops), ("row-end",))
        seen = 0
        for trial, draws in enumerate(_burst_triggers(stream, len(ops), 0.3)):
            if 0 not in draws and 1 in draws:
                # draw 2 falls on op 30, the first output outside the burst
                assert hits[trial] == [1, 2, 3] + ([4] if 2 in draws else []), trial
                seen += 1
        assert seen > 0

    def test_burst_length_exceeding_row_width_stops_at_window(self):
        # A 100-output burst at op 0 with a two-operation window flips ops
        # 0-2 only; op 10 then draws afresh instead of inheriting the budget.
        ops = [0, 1, 2, 10, 11]
        spec = FaultModelSpec.burst(100, 2, gate_error_rate=0.3)
        stream, _, hits = _burst_run(spec, _sites(gate=5, output_ops=ops), ("overlong",))
        branches = set()
        for trial, draws in enumerate(_burst_triggers(stream, len(ops), 0.3)):
            if 0 in draws:
                tail = [3, 4] if 1 in draws else [4] if 2 in draws else []
                assert hits[trial] == [0, 1, 2] + tail, trial
                branches.add(len(tail))
        assert branches == {0, 1, 2}

    def test_burst_window_expiry_leaves_stale_budget_inert(self):
        # A length-5 burst at op 0 with a one-operation window has no
        # follower: its unused budget must not flip op 7 or op 8.
        ops = [0, 7, 8]
        spec = FaultModelSpec.burst(5, 1, gate_error_rate=0.3)
        stream, _, hits = _burst_run(spec, _sites(gate=3, output_ops=ops), ("stale",))
        alone = 0
        for trial, draws in enumerate(_burst_triggers(stream, len(ops), 0.3)):
            if 0 in draws:
                tail = [1, 2] if 1 in draws else [2] if 2 in draws else []
                assert hits[trial] == [0] + tail, trial
                alone += not tail
        assert alone > 0

    def test_stuck_at_on_a_preset_target_cell(self):
        # Presets bypass the injector (corrupt_preset default), but the gate
        # output written into the same cell re-applies the stuck value: the
        # architectural behaviour "stuck-at re-applies after every write".
        from repro.pim.array import PimArray

        injector = StuckAtFaultInjector({(0, 0, 4): 1})
        array = PimArray(rows=2, cols=8, fault_injector=injector)
        array.preset_cells(0, [4], 0)
        assert array.read_cell(0, 4) == 0  # preset landed raw: not yet stuck
        array.write_cell(0, 1, 1)
        array.write_cell(0, 2, 1)
        array.execute_gate("nor", 0, [1, 2], [4])  # NOR(1,1) = 0 -> stuck 1
        assert array.read_cell(0, 4) == 1
        assert injector.log.count(FaultKind.STUCK_AT) == 1
        # And an architectural read of the cell re-applies (and commits) it.
        array._cells[0, 4] = 0
        assert array.read_row(0, [4]) == [1]
        assert array.read_cell(0, 4) == 1

    def test_zero_rate_stochastic_consumes_no_draws(self, monkeypatch):
        drawn = _drawn_streams(monkeypatch)
        sites = _sites(gate=50, metadata=50, preset=50, memory=50)
        spec = FaultModelSpec.stochastic(gate_error_rate=0.1, metadata_error_rate=0.0)
        schedule = fault_schedule(spec, TrialStream.keyed(("zero",), range(8)), sites, 8)
        assert set(drawn) == {1}  # the gate class's stream alone
        assert set(schedule.hits) == {"gate"}
        drawn.clear()
        assert fault_schedule(FaultModelSpec.stochastic(0.0, 0.0, 0.0, 0.0), None, sites, 8) is None
        assert drawn == []

    def test_zero_rate_burst_consumes_no_draws(self, monkeypatch):
        drawn = _drawn_streams(monkeypatch)
        sites = _sites(gate=50, memory=50)
        spec = FaultModelSpec.burst(3, 4, gate_error_rate=0.0, memory_error_rate=0.1)
        schedule = fault_schedule(spec, TrialStream.keyed(("zero",), range(8)), sites, 8)
        assert STREAM_BURST not in drawn and set(drawn) == {4}  # the memory class
        assert set(schedule.hits) == {"memory"}


class TestFaultModelSpec:
    """The declarative fault-model layer (ISSUE 5 tentpole)."""

    def test_parse_roundtrip_is_canonical(self):
        for text in (
            "stochastic",
            "stochastic:gate=0.001,memory=0.0001",
            "burst:length=3,window=6,rate=0.001",
            "stuck-at:cells=4+17,value=1",
        ):
            spec = parse_fault_model(text)
            assert parse_fault_model(spec.to_string()) == spec
            assert parse_fault_model(spec.to_string()).to_string() == spec.to_string()

    @pytest.mark.parametrize("polarity", [True, 1.0, 1])
    def test_stuck_polarity_canonicalises_to_a_bit(self, polarity):
        # A bool or float polarity passes the bit check, and must still
        # print as a bit so the canonical string re-parses.
        spec = FaultModelSpec.stuck_at([3], stuck_polarity=polarity)
        assert spec.stuck_polarity == 1 and type(spec.stuck_polarity) is int
        assert spec.to_string() == "stuck-at:cells=3,value=1"
        assert parse_fault_model(spec.to_string()) == spec
        campaign = CampaignSpec(workloads=("and2",), fault_model=spec.to_string())
        assert campaign.fault_model == spec.to_string()

    def test_duplicate_and_alias_collisions_rejected(self):
        # 'rate' and 'gate' are one knob; last-wins would silently discard a
        # value the user typed.  Same for plain duplicates and value/polarity.
        with pytest.raises(PimError, match="twice"):
            parse_fault_model("burst:rate=1e-3,gate=1e-2")
        with pytest.raises(PimError, match="twice"):
            parse_fault_model("stochastic:gate=1e-3,gate=1e-4")
        with pytest.raises(PimError, match="twice"):
            parse_fault_model("stuck-at:cells=3,value=1,polarity=0")

    def test_canonical_string_is_lossless_for_rates(self):
        # repr-based formatting: rates survive the parse -> to_string ->
        # parse round trip exactly, even beyond 6 significant digits.
        spec = parse_fault_model("stochastic:gate=0.000123456789")
        assert spec.gate_error_rate == 0.000123456789
        assert parse_fault_model(spec.to_string()).gate_error_rate == 0.000123456789

    def test_aliases_and_ordering_canonicalise(self):
        a = parse_fault_model("stuckat:cells=17+4,polarity=1")
        b = parse_fault_model("stuck-at:value=1,cells=4+17")
        assert a == b
        assert a.to_string() == b.to_string()
        assert parse_fault_model("burst:rate=1e-3").gate_error_rate == pytest.approx(1e-3)

    def test_unknown_kind_and_keys_fail_fast(self):
        with pytest.raises(PimError):
            parse_fault_model("gaussian")
        with pytest.raises(PimError):
            parse_fault_model("burst:burstiness=3")
        with pytest.raises(PimError):
            parse_fault_model("burst:length=abc")
        with pytest.raises(PimError):
            parse_fault_model("")

    def test_kind_inapplicable_keys_rejected_not_dropped(self):
        # A typo'd kind must not silently change the model: burst knobs on a
        # stochastic spec (and vice versa) fail instead of being ignored.
        with pytest.raises(PimError, match="does not apply"):
            parse_fault_model("stochastic:length=5,gate=1e-3")
        with pytest.raises(PimError, match="does not apply"):
            parse_fault_model("stuck-at:cells=3,window=8")
        with pytest.raises(PimError, match="does not apply"):
            parse_fault_model("burst:value=1")
        with pytest.raises(PimError, match="does not apply"):
            parse_fault_model("burst:cells=3+4")
        # And the constructor enforces the same rule for direct API use, so
        # parse(to_string()) == spec holds for every constructible spec.
        with pytest.raises(PimError):
            FaultModelSpec(kind="stochastic", burst_length=5)
        with pytest.raises(PimError):
            FaultModelSpec(kind="stuck-at", stuck_columns=(1,), correlation_window=9)
        with pytest.raises(PimError):
            FaultModelSpec(kind="burst", stuck_polarity=1)

    def test_kind_constraints(self):
        with pytest.raises(PimError):
            FaultModelSpec.stuck_at(())  # needs cells
        with pytest.raises(PimError):
            FaultModelSpec(kind="stuck-at", stuck_columns=(1,), gate_error_rate=0.1)
        with pytest.raises(PimError):
            FaultModelSpec(kind="burst", preset_error_rate=0.1)
        with pytest.raises(PimError):
            FaultModelSpec(kind="stochastic", stuck_columns=(1,))
        with pytest.raises(PimError):
            FaultModelSpec(kind="burst", burst_length=0)
        with pytest.raises(PimError):
            FaultModelSpec(kind="stuck-at", stuck_columns=(3,), stuck_polarity=2)

    def test_resolved_fills_only_unset_rates(self):
        spec = FaultModelSpec.burst(3, 6, gate_error_rate=0.01)
        resolved = spec.resolved(gate_error_rate=0.5, memory_error_rate=0.25)
        assert resolved.gate_error_rate == pytest.approx(0.01)  # explicit wins
        assert resolved.memory_error_rate == pytest.approx(0.25)  # inherited
        stuck = FaultModelSpec.stuck_at((3,))
        assert stuck.resolved(0.5, 0.5) is stuck  # deterministic: no rates

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("stochastic", FaultModel()),
            # An unset metadata rate stays unset, so it follows the gate rate.
            ("stochastic:gate=1e-3", FaultModel(gate_error_rate=1e-3)),
            (
                "stochastic:gate=1e-3,metadata=0",
                FaultModel(gate_error_rate=1e-3, metadata_error_rate=0.0),
            ),
            (
                "burst:rate=2e-3,memory=1e-4,length=3",
                FaultModel(gate_error_rate=2e-3, memory_error_rate=1e-4),
            ),
        ],
    )
    def test_rate_model_reads_unset_rates_as_zero(self, text, expected):
        model = parse_fault_model(text).rate_model()
        assert model == expected
        assert model.effective_metadata_error_rate == expected.effective_metadata_error_rate

    def test_needs_stream_and_error_free(self):
        assert FaultModelSpec.stochastic(0.1).needs_stream
        assert FaultModelSpec.burst(2, 4, gate_error_rate=0.1).needs_stream
        assert not FaultModelSpec.stuck_at((1,)).needs_stream
        assert FaultModelSpec.stochastic().is_error_free
        assert not FaultModelSpec.stochastic().needs_stream

    def test_scheduled_injector_flips_at_class_ordinals(self):
        injector = ScheduledFaultInjector(
            {"gate": [1], "metadata": [0], "preset": [2], "memory": [0, 1]}
        )
        gate = [injector.corrupt_gate_output(0, SITE, op) for op in range(3)]
        meta = [injector.corrupt_gate_output(0, SITE, 3 + op, is_metadata=True) for op in range(2)]
        presets = [injector.corrupt_preset(1, SITE, 0) for _ in range(3)]
        stored = [injector.corrupt_stored_bit(1, SITE) for _ in range(3)]
        assert gate == [0, 1, 0]
        assert meta == [1, 0]
        assert presets == [1, 1, 0]
        assert stored == [0, 0, 1]
        kinds = [event.kind for event in injector.log.events]
        assert kinds == [
            FaultKind.LOGIC, FaultKind.METADATA, FaultKind.PRESET,
            FaultKind.MEMORY, FaultKind.MEMORY,
        ]

    def test_scheduled_injector_output_class_spans_metadata(self):
        # The burst model's sites are every gate output, metadata included.
        injector = ScheduledFaultInjector({"output": [1, 2]})
        values = [
            injector.corrupt_gate_output(0, SITE, 0),
            injector.corrupt_gate_output(0, SITE, 0, is_metadata=True),
            injector.corrupt_gate_output(0, SITE, 1),
            injector.corrupt_gate_output(0, SITE, 2, is_metadata=True),
        ]
        assert values == [0, 1, 1, 0]
        assert injector.log.count() == 2

    def test_stuck_cells_site_map(self):
        spec = FaultModelSpec.stuck_at((2, 9), 1)
        assert spec.stuck_cells() == {(0, 0, 2): 1, (0, 0, 9): 1}
        assert spec.stuck_cells(array_id=3, row=1) == {(3, 1, 2): 1, (3, 1, 9): 1}
