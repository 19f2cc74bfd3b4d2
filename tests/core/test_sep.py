"""Tests for the SEP guarantee analysis (Fig. 6).

The analyses take an :class:`~repro.core.backend.ExecutionBackend`; the
tests below run them on the scalar reference backend, and
:class:`TestBackendParity` repeats them on every registered backend.
"""

import pytest

from repro.core.backend import BACKEND_NAMES, make_backend
from repro.core.sep import (
    and_gate_example_netlist,
    circuit_granularity_counterexample,
    enumerate_fault_sites,
    exhaustive_single_fault_injection,
    fig6_case_table,
)


def scalar(scheme, multi_output=True):
    """The scalar reference backend over the Fig. 6 AND example."""
    return make_backend("scalar", and_gate_example_netlist(), scheme, multi_output=multi_output)


NETLIST = and_gate_example_netlist()
ALL_INPUT_VECTORS = [
    {NETLIST.inputs[0]: a, NETLIST.inputs[1]: b} for a in (0, 1) for b in (0, 1)
]


class TestExampleCircuit:
    def test_is_an_and_gate(self):
        netlist = and_gate_example_netlist()
        for a in (0, 1):
            for b in (0, 1):
                outputs = netlist.evaluate_outputs({netlist.inputs[0]: a, netlist.inputs[1]: b})
                assert list(outputs.values()) == [a & b]

    def test_has_two_logic_levels_and_three_gates(self):
        netlist = and_gate_example_netlist()
        assert netlist.depth == 2
        assert netlist.stats().n_gates == 3


class TestFaultSiteEnumeration:
    def test_sites_cover_every_gate_output(self):
        inputs = ALL_INPUT_VECTORS[3]
        sites = enumerate_fault_sites(scalar("ecim"), inputs)
        # Every (operation, output position) pair appears exactly once.
        assert len({(s.operation_index, s.output_position) for s in sites}) == len(sites)
        assert any(s.output_position > 0 for s in sites)  # multi-output r_ij sites
        assert any(s.is_metadata for s in sites)          # parity-update sites

    def test_unprotected_sites_are_three_gates(self):
        sites = enumerate_fault_sites(scalar("unprotected"), ALL_INPUT_VECTORS[3])
        assert len(sites) == 3


class TestSepGuarantee:
    @pytest.mark.parametrize("inputs", ALL_INPUT_VECTORS)
    def test_ecim_sep_for_all_input_vectors(self, inputs):
        analysis = exhaustive_single_fault_injection(scalar("ecim"), inputs)
        assert analysis.sep_guaranteed, analysis.unprotected_sites

    @pytest.mark.parametrize("inputs", ALL_INPUT_VECTORS)
    def test_trim_sep_for_all_input_vectors(self, inputs):
        analysis = exhaustive_single_fault_injection(scalar("trim"), inputs)
        assert analysis.sep_guaranteed, analysis.unprotected_sites

    def test_ecim_single_output_sep(self):
        analysis = exhaustive_single_fault_injection(
            scalar("ecim", multi_output=False), ALL_INPUT_VECTORS[3]
        )
        assert analysis.sep_guaranteed

    def test_unprotected_execution_is_vulnerable(self):
        analysis = exhaustive_single_fault_injection(scalar("unprotected"), ALL_INPUT_VECTORS[3])
        assert not analysis.sep_guaranteed
        assert analysis.coverage < 1.0

    def test_coverage_and_categories(self):
        analysis = exhaustive_single_fault_injection(scalar("ecim"), ALL_INPUT_VECTORS[3])
        assert analysis.coverage == pytest.approx(1.0)
        categories = analysis.by_category()
        assert set(categories) == {"data", "metadata"}
        for protected, total in categories.values():
            assert protected == total


class TestFig6CaseTable:
    def test_case_table_rows_all_protected(self):
        rows = fig6_case_table(scalar("ecim"))
        assert rows
        assert all(row["protected"] for row in rows)

    def test_case_table_distinguishes_data_and_metadata_sites(self):
        rows = fig6_case_table(scalar("ecim"))
        names = {row["error_site"] for row in rows}
        assert any("level-1" in name for name in names)
        assert any("parity" in name for name in names)

    def test_data_errors_show_one_error_in_level_output(self):
        rows = fig6_case_table(scalar("ecim"))
        for row in rows:
            if "level-1" in row["error_site"] or "final output" in row["error_site"]:
                assert row["errors_in_level_output"] == 1
            else:
                assert row["errors_in_level_output"] == 0


class TestGranularityRequirement:
    def test_circuit_granularity_loses_sep(self):
        # A single early fault propagates to the final output when no
        # per-level correction happens (Section IV-F).
        assert circuit_granularity_counterexample(scalar("unprotected"))


class TestBackendParity:
    """The same analyses through the ExecutionBackend protocol, per backend."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("inputs", ALL_INPUT_VECTORS)
    def test_ecim_sep_on_every_backend(self, backend, inputs):
        analysis = exhaustive_single_fault_injection(
            make_backend(backend, and_gate_example_netlist(), "ecim"), inputs
        )
        assert analysis.sep_guaranteed, analysis.unprotected_sites

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_trim_sep_on_every_backend(self, backend):
        analysis = exhaustive_single_fault_injection(
            make_backend(backend, and_gate_example_netlist(), "trim"),
            ALL_INPUT_VECTORS[3],
        )
        assert analysis.sep_guaranteed

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_case_table_identical_across_backends(self, backend):
        # The acceptance criterion's operational form: the Fig. 6 case table
        # must be *equal* to the scalar reference, row for row.
        reference = fig6_case_table(scalar("ecim"))
        table = fig6_case_table(make_backend(backend, and_gate_example_netlist(), "ecim"))
        assert table == reference

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_circuit_granularity_counterexample_on_every_backend(self, backend):
        assert circuit_granularity_counterexample(
            make_backend(backend, and_gate_example_netlist(), "unprotected")
        )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_fault_outcome_classification_vocabulary(self, backend):
        analysis = exhaustive_single_fault_injection(
            make_backend(backend, and_gate_example_netlist(), "unprotected"),
            ALL_INPUT_VECTORS[3],
        )
        assert {o.classification for o in analysis.outcomes} <= {
            "corrected", "detected", "silent"
        }
        assert any(o.classification == "silent" for o in analysis.outcomes)
