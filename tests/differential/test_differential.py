"""The cross-backend differential harness (ISSUE 5 acceptance).

One parametrized surface proves, for every registered candidate backend
against the scalar reference:

* byte-identical ``TrialOutcomes`` (counters + per-trial vectors) for all
  four fault models on every (workload x scheme x gate-style) cell, from
  one shared trial stream;
* identical fault-site enumeration (the property deterministic plans and
  campaign k-flip trials rest on);
* per-site classification equality under the exhaustive single-fault SEP
  sweep, including on a synthesized workload netlist.

These parametrizations consolidate the per-feature scalar-vs-batched
equality tests that previously lived in ``tests/core/test_backend.py``; a
new backend (e.g. a GPU tape) joins by registering one factory in
``conftest.BACKEND_FACTORIES``.
"""

import pytest

from repro.campaign.worker import _site_arrays
from repro.campaign.workloads import get_campaign_workload
from repro.core.backend import make_backend
from repro.core.batched import sample_input_matrix
from repro.core.rng import TrialStream
from repro.core.sep import exhaustive_single_fault_injection

from differential_harness import (
    BACKEND_FACTORIES,
    MODEL_KINDS,
    assert_outcomes_identical,
)

CANDIDATES = tuple(sorted(BACKEND_FACTORIES))


@pytest.mark.parametrize("candidate", CANDIDATES)
@pytest.mark.parametrize("kind", MODEL_KINDS)
class TestByteIdenticalOutcomes:
    """Acceptance: byte-identical TrialOutcomes for all four fault models on
    the arithmetic workloads x both schemes (x both gate styles) plus the
    application netlists (fft4 full-width, mlp16 runtime-bounded), one
    shared trial stream."""

    def test_outcomes_byte_identical(self, cell, kind, candidate):
        reference = cell.reference_outcomes(kind)
        outcome = cell.candidates[candidate].run_trials(
            cell.inputs, capture_outputs=True, **cell.run_kwargs(kind)
        )
        context = f"{cell.workload}/{cell.scheme}/mo={cell.multi_output}/{kind}/{candidate}"
        assert_outcomes_identical(reference, outcome, context)
        assert reference.n_trials == cell.trials
        assert reference.outputs.shape == (cell.trials, len(cell.reference.netlist.outputs))

    def test_models_actually_inject(self, cell, kind, candidate):
        """A differential pass over an all-clean batch proves nothing: every
        grid model must inject faults into a meaningful share of trials."""
        outcome = cell.candidates[candidate].run_trials(cell.inputs, **cell.run_kwargs(kind))
        assert outcome.counts()["faulty_trials"] > 0


@pytest.mark.parametrize("candidate", CANDIDATES)
class TestSiteEnumerationEquivalence:
    def test_identical_sites_in_firing_order(self, cell, candidate):
        inputs = {signal: 1 for signal in cell.reference.netlist.inputs}
        reference_sites = cell.reference.enumerate_sites(inputs)
        candidate_sites = cell.candidates[candidate].enumerate_sites(inputs)
        # Full FaultSite equality: op index, position, gate, metadata flag,
        # logic level and physical column all agree, in firing order.
        assert reference_sites == candidate_sites
        assert reference_sites
        # The campaign's site arrays, read off each backend's cached fault
        # sites rather than built from FaultSite objects, list the same
        # (operation index, output position) pairs.
        pairs = [(site.operation_index, site.output_position) for site in reference_sites]
        for backend in (cell.reference, cell.candidates[candidate]):
            ops, positions, count = _site_arrays(backend)
            assert list(zip(ops.tolist(), positions.tolist())) == pairs
            assert count == len(pairs)


def _synthesized_dot_netlist():
    """The smallest synthesized mm-family unit block (2-term dot product,
    1-bit operands): 60 gates — big enough to exercise multi-level parity
    banks, small enough for a full scalar sweep in tier-1 time."""
    from repro.workloads.matmul import dot_product_netlist

    return dot_product_netlist(2, 1)


class TestSepEquivalence:
    """Per-site outcome equality between backends, exhaustively — on the
    Fig. 6 AND example and on a synthesized workload netlist."""

    @pytest.mark.parametrize("candidate", CANDIDATES)
    @pytest.mark.parametrize("workload", ["and2", "dot-2x1"])
    @pytest.mark.parametrize("scheme", ["ecim", "trim"])
    def test_every_site_classifies_identically(self, workload, scheme, candidate):
        netlist = (
            get_campaign_workload("and2").netlist
            if workload == "and2"
            else _synthesized_dot_netlist()
        )
        row = sample_input_matrix(netlist, TrialStream.keyed((13,), [0]))[0]
        inputs = dict(zip(netlist.inputs, row.tolist()))
        reference = exhaustive_single_fault_injection(
            make_backend("scalar", netlist, scheme), inputs
        )
        outcome = exhaustive_single_fault_injection(
            BACKEND_FACTORIES[candidate](netlist, scheme, True), inputs
        )
        assert reference.total_sites == outcome.total_sites > 0
        for s, b in zip(reference.outcomes, outcome.outcomes):
            assert s.site == b.site
            assert s.classification == b.classification, s.site
            assert (s.final_outputs_correct, s.error_detected, s.corrections,
                    s.uncorrectable_levels) == (
                b.final_outputs_correct, b.error_detected, b.corrections,
                b.uncorrectable_levels), s.site
        # And SEP itself holds on the protected schemes.
        assert reference.sep_guaranteed and outcome.sep_guaranteed

    @pytest.mark.parametrize("candidate", CANDIDATES)
    def test_unprotected_classifications_also_agree(self, candidate):
        netlist = get_campaign_workload("and2").netlist
        inputs = {netlist.inputs[0]: 1, netlist.inputs[1]: 1}
        reference = exhaustive_single_fault_injection(
            make_backend("scalar", netlist, "unprotected"), inputs
        )
        outcome = exhaustive_single_fault_injection(
            BACKEND_FACTORIES[candidate](netlist, "unprotected", True), inputs
        )
        assert [o.classification for o in reference.outcomes] == [
            o.classification for o in outcome.outcomes
        ]
        assert not reference.sep_guaranteed and not outcome.sep_guaranteed


@pytest.mark.parametrize("candidate", CANDIDATES)
@pytest.mark.parametrize("kind", [k for k in MODEL_KINDS if k != "plan"])
class TestReproducibility:
    def test_fault_model_runs_reproduce_on_every_backend(self, cell, kind, candidate):
        backend = cell.candidates[candidate]
        first = backend.run_trials(cell.inputs, capture_outputs=True, **cell.run_kwargs(kind))
        again = backend.run_trials(cell.inputs, capture_outputs=True, **cell.run_kwargs(kind))
        assert_outcomes_identical(first, again, f"reproducibility/{candidate}/{kind}")
