"""Tests for the fault models and injectors (Section II-C error model)."""

import random

import pytest

from repro.errors import PimError
from repro.pim.faults import (
    BurstFaultInjector,
    DeterministicFaultInjector,
    FaultEvent,
    FaultKind,
    FaultLog,
    FaultModel,
    FaultModelSpec,
    NoFaultInjector,
    ScheduledFaultInjector,
    StochasticFaultInjector,
    StuckAtFaultInjector,
    parse_fault_model,
    resolve_rng,
)

SITE = (0, 3, 17)


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


class TestStochasticFaultInjector:
    def test_rate_one_always_flips(self):
        injector = StochasticFaultInjector(FaultModel(gate_error_rate=1.0), seed=1)
        assert injector.corrupt_gate_output(0, SITE, 0) == 1
        assert injector.corrupt_gate_output(1, SITE, 1) == 0
        assert injector.log.count() == 2

    def test_rate_zero_never_flips(self):
        injector = StochasticFaultInjector(FaultModel(), seed=1)
        for index in range(100):
            assert injector.corrupt_gate_output(0, SITE, index) == 0
        assert injector.log.count() == 0

    def test_seed_reproducibility(self):
        model = FaultModel(gate_error_rate=0.3)
        a = StochasticFaultInjector(model, seed=42)
        b = StochasticFaultInjector(model, seed=42)
        seq_a = [a.corrupt_gate_output(0, SITE, i) for i in range(50)]
        seq_b = [b.corrupt_gate_output(0, SITE, i) for i in range(50)]
        assert seq_a == seq_b

    def test_empirical_rate_close_to_configured(self):
        injector = StochasticFaultInjector(FaultModel(gate_error_rate=0.2), seed=7)
        flips = sum(injector.corrupt_gate_output(0, SITE, i) for i in range(5000))
        assert 0.15 < flips / 5000 < 0.25

    def test_memory_errors_logged_as_memory(self):
        injector = StochasticFaultInjector(FaultModel(memory_error_rate=1.0), seed=0)
        injector.corrupt_stored_bit(1, SITE)
        assert injector.log.count(FaultKind.MEMORY) == 1

    def test_metadata_errors_logged_as_metadata(self):
        injector = StochasticFaultInjector(FaultModel(gate_error_rate=1.0), seed=0)
        injector.corrupt_gate_output(0, SITE, 0, is_metadata=True)
        assert injector.log.count(FaultKind.METADATA) == 1

    def test_preset_errors(self):
        injector = StochasticFaultInjector(FaultModel(preset_error_rate=1.0), seed=0)
        assert injector.corrupt_preset(0, SITE, 0) == 1
        assert injector.log.count(FaultKind.PRESET) == 1


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


class TestBurstFaultInjector:
    def test_burst_flips_consecutive_outputs(self):
        injector = BurstFaultInjector(
            FaultModel(gate_error_rate=1.0), burst_length=3, correlation_window=10, seed=0
        )
        flips = [injector.corrupt_gate_output(0, SITE, i) for i in range(3)]
        assert flips == [1, 1, 1]

    def test_burst_expires_outside_window(self):
        injector = BurstFaultInjector(
            FaultModel(gate_error_rate=0.0), burst_length=3, correlation_window=2, seed=0
        )
        # No trigger ever fires with rate 0.
        assert [injector.corrupt_gate_output(0, SITE, i) for i in range(5)] == [0] * 5

    def test_invalid_parameters(self):
        with pytest.raises(PimError):
            BurstFaultInjector(FaultModel(), burst_length=0)
        with pytest.raises(PimError):
            BurstFaultInjector(FaultModel(), correlation_window=0)

    def test_memory_path_still_stochastic(self):
        injector = BurstFaultInjector(FaultModel(memory_error_rate=1.0), seed=0)
        assert injector.corrupt_stored_bit(0, SITE) == 1


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


class TestSeedInjection:
    """Injectors accept explicit seeds or generator instances — never module-global state."""

    def draws(self, injector, n=200):
        return [injector.corrupt_gate_output(0, SITE, i) for i in range(n)]

    def test_resolve_rng_passes_through_generator_instance(self):
        import random

        rng = random.Random(5)
        assert resolve_rng(rng) is rng

    def test_resolve_rng_rejects_non_seeds(self):
        with pytest.raises(PimError):
            resolve_rng("entropy")

    def test_generator_instance_equivalent_to_seed(self):
        import random

        model = FaultModel(gate_error_rate=0.3)
        by_seed = StochasticFaultInjector(model, seed=123)
        by_rng = StochasticFaultInjector(model, seed=random.Random(123))
        assert self.draws(by_seed) == self.draws(by_rng)

    def test_same_seed_same_stream_across_instances(self):
        model = FaultModel(gate_error_rate=0.3)
        assert self.draws(StochasticFaultInjector(model, seed=9)) == self.draws(
            StochasticFaultInjector(model, seed=9)
        )

    def test_injector_does_not_touch_global_random(self):
        import random

        model = FaultModel(gate_error_rate=0.5)
        random.seed(7)
        expected = [random.random() for _ in range(10)]
        random.seed(7)
        self.draws(StochasticFaultInjector(model, seed=1))
        assert [random.random() for _ in range(10)] == expected

    def test_burst_injector_accepts_generator_instance(self):
        import random

        model = FaultModel(gate_error_rate=0.3)
        by_seed = BurstFaultInjector(model, seed=77)
        by_rng = BurstFaultInjector(model, seed=random.Random(77))
        assert self.draws(by_seed) == self.draws(by_rng)


class _CountingRandom(random.Random):
    """A generator that counts its uniform draws (zero-rate early-exit probe)."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class TestScalarInjectorEdgeCases:
    """ISSUE 5 satellite: burst wrap / overlong bursts, stuck preset targets,
    zero-rate early exits."""

    def test_burst_spans_row_end_into_next_operations(self):
        # A burst triggered on the last output of one firing wraps into the
        # following operations' outputs (the "row end" of a multi-output
        # gate), as long as the correlation window allows.
        injector = BurstFaultInjector(
            FaultModel(gate_error_rate=1.0), burst_length=3, correlation_window=4, seed=0
        )
        # op 5: one output — triggers and flips; ops 6, 7: burst continues.
        first = injector.corrupt_gate_output(0, SITE, 5)
        second = injector.corrupt_gate_output(0, SITE, 6)
        third = injector.corrupt_gate_output(0, SITE, 7)
        assert (first, second, third) == (1, 1, 1)
        kinds = {event.kind for event in injector.log.events}
        assert kinds == {FaultKind.LOGIC}

    def test_burst_length_exceeding_row_width_stops_at_window(self):
        # burst_length far beyond the outputs available inside the window:
        # remaining flips are silently dropped once the window closes, and
        # later operations draw afresh instead of inheriting stale flips.
        injector = BurstFaultInjector(
            FaultModel(gate_error_rate=1.0), burst_length=100, correlation_window=2, seed=3
        )
        assert injector.corrupt_gate_output(0, SITE, 0) == 1  # trigger
        assert injector.corrupt_gate_output(0, SITE, 1) == 1  # in window
        assert injector.corrupt_gate_output(0, SITE, 2) == 1  # window edge
        # op 10 is far outside the window: the stale remaining budget must
        # not flip; with rate 1.0 a *fresh* trigger fires instead, which the
        # log distinguishes (4 events so far, all flips are new bursts).
        assert injector.corrupt_gate_output(0, SITE, 10) == 1
        assert injector.log.count() == 4

    def test_burst_window_expiry_leaves_stale_budget_inert(self):
        injector = BurstFaultInjector(
            FaultModel(gate_error_rate=1.0), burst_length=5, correlation_window=1, seed=1
        )
        assert injector.corrupt_gate_output(0, SITE, 0) == 1  # trigger, budget 4
        # Jump past the window with rate forced to zero: the stale budget
        # alone must not flip anything.
        injector.model = FaultModel(gate_error_rate=0.0)
        assert injector.corrupt_gate_output(0, SITE, 7) == 0

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

    def test_zero_rate_stochastic_consumes_no_draws(self):
        rng = _CountingRandom(5)
        injector = StochasticFaultInjector(FaultModel(), seed=rng)
        for op in range(50):
            assert injector.corrupt_gate_output(1, SITE, op) == 1
            assert injector.corrupt_stored_bit(0, SITE) == 0
            assert injector.corrupt_preset(0, SITE, op) == 0
        assert rng.draws == 0
        assert injector.log.count() == 0

    def test_zero_rate_burst_consumes_no_draws(self):
        rng = _CountingRandom(5)
        injector = BurstFaultInjector(FaultModel(), seed=rng)
        for op in range(50):
            assert injector.corrupt_gate_output(0, SITE, op) == 0
            assert injector.corrupt_stored_bit(1, SITE) == 1
        assert rng.draws == 0


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
