"""Golden regression tests: pinned counters per (scheme, fault model).

A failure here means the numerical behaviour of the stack changed for fixed
seeds — either a regression to fix, or an intentional semantic change, in
which case regenerate with::

    PYTHONPATH=src python tests/golden/golden_store.py --write

and say why in the commit message.
"""

import pytest

import golden_store
from repro.campaign.aggregate import COUNT_KEYS


@pytest.mark.parametrize("scheme", golden_store.SCHEMES)
class TestGoldenCounters:
    def test_metadata_matches_current_constants(self, scheme):
        payload = golden_store.load_golden(scheme)
        assert payload["workload"] == golden_store.WORKLOAD
        assert payload["scheme"] == scheme
        assert payload["trials"] == golden_store.TRIALS
        assert payload["seed"] == golden_store.SEED
        # The stuck columns are layout-derived: a column-layout change shows
        # up here before it silently re-targets the stuck-at golden.
        backend = golden_store._backend(scheme)
        assert payload["stuck_columns"] == list(golden_store._stuck_columns(backend))
        assert set(payload["counters"]) == set(golden_store.MODEL_KINDS)

    @pytest.mark.parametrize("kind", golden_store.MODEL_KINDS)
    @pytest.mark.parametrize("backend", golden_store.PINNED_BACKENDS)
    def test_counters_match_golden(self, scheme, kind, backend):
        stored = golden_store.load_golden(scheme)["counters"][kind]
        computed = golden_store.compute_counts(scheme, kind, backend)
        assert computed == stored, (
            f"golden drift in {scheme}/{kind} on {backend}: if this change is "
            "intentional, regenerate with "
            "PYTHONPATH=src python tests/golden/golden_store.py --write"
        )

    def test_goldens_carry_the_campaign_counter_schema(self, scheme):
        for kind, counters in golden_store.load_golden(scheme)["counters"].items():
            assert set(counters) == set(COUNT_KEYS), kind
            assert counters["trials"] == golden_store.TRIALS
            # A golden with no injected faults would pin nothing worth having.
            assert counters["faults_injected"] > 0, kind


DEFAULT_PINS = [
    (name, backend)
    for name, cell in sorted(golden_store.DEFAULT_CELLS.items())
    for backend in cell[5]
]


class TestDefaultModelGoldenCounters:
    """The default campaign fault source — the stochastic model at the
    cell's rates — pinned once and reproduced on every backend."""

    @pytest.mark.parametrize("cell,backend", DEFAULT_PINS)
    def test_counters_match_golden(self, cell, backend):
        stored = golden_store.load_legacy_golden()
        assert stored["seed"] == golden_store.SEED
        computed = golden_store.compute_legacy_cell(cell, backend)
        assert computed == stored["cells"][cell], (
            f"default-model golden drift in {cell} on {backend}: if this change "
            "is intentional, regenerate with "
            "PYTHONPATH=src python tests/golden/golden_store.py --write"
        )

    @pytest.mark.parametrize("cell", sorted(golden_store.DEFAULT_CELLS))
    def test_goldens_inject_and_carry_the_schema(self, cell):
        pinned = golden_store.load_legacy_golden()["cells"][cell]
        assert set(pinned["counters"]) == set(COUNT_KEYS)
        assert pinned["counters"]["faulty_trials"] > 0
        if golden_store.DEFAULT_CELLS[cell][4]:
            assert pinned["application"]["app_trials"] == pinned["trials"]
