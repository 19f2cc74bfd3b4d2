"""The ExecutionBackend protocol: dispatch, adaptation, outcome schema and
fault-source validation.

Cross-backend equivalence (site enumeration, exhaustive per-site SEP
classification, byte-identical fault-model outcomes) lives in the
systematic differential harness under ``tests/differential/``.
"""

import numpy as np
import pytest

from repro.campaign.spec import trial_seed
from repro.campaign.workloads import get_campaign_workload, sample_inputs
from repro.core.backend import (
    BACKEND_NAMES,
    BatchedBackend,
    BitpackedBackend,
    ExecutionBackend,
    ScalarBackend,
    as_backend,
    derive_seed,
    make_backend,
)
from repro.core.executor import EcimExecutor
from repro.core.sep import and_gate_example_netlist
from repro.core.rng import TrialStream
from repro.errors import ProtectionError
from repro.pim.faults import FaultModelSpec

AND2 = and_gate_example_netlist()
AND2_INPUTS = {AND2.inputs[0]: 1, AND2.inputs[1]: 1}


def _stream(n):
    return TrialStream.keyed(("backend-surface",), range(n))


class TestDispatch:
    def test_backend_names(self):
        assert BACKEND_NAMES == ("scalar", "batched", "bitpacked")

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("scalar", ScalarBackend),
            ("batched", BatchedBackend),
            ("bitpacked", BitpackedBackend),
        ],
    )
    def test_make_backend_builds_the_named_backend(self, name, cls):
        backend = make_backend(name, AND2, "ecim")
        assert isinstance(backend, cls)
        assert backend.name == name
        assert backend.scheme == "ecim"

    def test_unknown_backend_fails_fast_with_choices(self):
        # A --backend typo on any CLI funnels through here, so the error
        # must name every registered backend.
        with pytest.raises(ProtectionError, match=r"scalar.*batched.*bitpacked"):
            make_backend("vectorised", AND2, "ecim")

    def test_unknown_backend_error_lists_every_registered_name(self):
        with pytest.raises(ProtectionError) as excinfo:
            make_backend("vectorised", AND2, "ecim")
        message = str(excinfo.value)
        assert "'vectorised'" in message
        for name in BACKEND_NAMES:
            assert repr(name) in message

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_unknown_scheme_rejected_at_construction(self, name):
        with pytest.raises(ProtectionError):
            make_backend(name, AND2, "parity")

    def test_as_backend_passes_backends_through(self):
        backend = make_backend("batched", AND2, "trim")
        assert as_backend(backend) is backend

    def test_as_backend_adapts_legacy_factories(self):
        backend = as_backend(lambda injector: EcimExecutor(AND2, fault_injector=injector))
        assert isinstance(backend, ScalarBackend)
        outcomes = backend.run_trials([AND2_INPUTS])
        assert outcomes.n_trials == 1
        assert bool(outcomes.outputs_correct[0])
        # The netlist is resolved from the factory's executor.
        assert backend.netlist is AND2

    def test_as_backend_rejects_non_callables(self):
        with pytest.raises(ProtectionError):
            as_backend(42)


class TestDerivedSeeds:
    def test_deterministic_and_distinct_per_component(self):
        assert derive_seed(1, "x", 2, "inputs") == derive_seed(1, "x", 2, "inputs")
        assert derive_seed(1, "x", 2, "inputs") != derive_seed(1, "x", 2, "faults")
        assert derive_seed(1, "x", 2, "inputs") != derive_seed(1, "x", 3, "inputs")

    def test_campaign_stream_key_byte_layout(self):
        # One SHA-256 per (campaign seed, cell key), tagged with the RNG
        # contract: the key every trial of the cell draws from.
        import hashlib

        expected = int.from_bytes(
            hashlib.sha256("7|cellkey|rng-v2".encode()).digest()[:8], "big"
        )
        assert trial_seed(7, "cellkey") == expected
        assert derive_seed(7, "cellkey", "rng-v2") == expected


class TestRunTrialsSurface:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_dict_rows_and_matrix_inputs_agree(self, name):
        backend = make_backend(name, AND2, "ecim")
        rows = [{AND2.inputs[0]: a, AND2.inputs[1]: b} for a in (0, 1) for b in (0, 1)]
        matrix = np.array([[r[s] for s in AND2.inputs] for r in rows], dtype=np.uint8)
        from_rows = backend.run_trials(rows)
        from_matrix = backend.run_trials(matrix)
        assert np.array_equal(from_rows.outputs_correct, from_matrix.outputs_correct)
        assert from_rows.counts() == from_matrix.counts()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_empty_batch_rejected(self, name):
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError):
            backend.run_trials([])

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_stochastic_model_requires_a_stream(self, name):
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError):
            backend.run_trials([AND2_INPUTS], fault_model=FaultModelSpec.stochastic(0.1))

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_stream_without_model_rejected(self, name):
        # A forgotten fault_model= kwarg must not silently run fault-free.
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError):
            backend.run_trials([AND2_INPUTS], stream=_stream(1))

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_zero_rate_model_runs_without_a_stream(self, name):
        # The zero-rate point of a coverage sweep draws nothing, so it needs
        # no stream and runs fault free.
        backend = make_backend(name, AND2, "ecim")
        outcomes = backend.run_trials(
            [AND2_INPUTS], fault_model=FaultModelSpec.stochastic(0.0, 0.0)
        )
        assert outcomes.faults_injected.sum() == 0

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_fault_plan_and_stochastic_model_are_exclusive(self, name):
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError):
            backend.run_trials(
                [AND2_INPUTS],
                fault_plan=[{0: 0}],
                fault_model=FaultModelSpec.stochastic(0.1),
                stream=_stream(1),
            )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_counts_schema_matches_campaign_keys(self, name):
        from repro.campaign.aggregate import COUNT_KEYS

        backend = make_backend(name, AND2, "trim")
        counts = backend.run_trials([AND2_INPUTS] * 3).counts()
        assert set(counts) == set(COUNT_KEYS)
        assert counts["trials"] == 3

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_classifications_vocabulary(self, name):
        backend = make_backend(name, AND2, "unprotected")
        outcomes = backend.run_trials(
            [AND2_INPUTS] * 2, fault_plan=[{}, {2: 0}]
        )
        # No fault -> correct; flipping the final AND output on (1, 1) is a
        # silent corruption on the unprotected baseline.
        assert outcomes.classifications() == ["corrected", "silent"]


class TestFaultModelSurface:
    """Validation of the declarative fault_model source on both backends."""

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_fault_model_exclusive_with_fault_plan(self, name):
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError):
            backend.run_trials(
                [AND2_INPUTS],
                fault_plan=[{0: 0}],
                fault_model=FaultModelSpec.stuck_at((0,)),
            )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_legacy_fault_arguments_are_gone(self, name):
        # One fault-source argument per kind: the pre-stream model= and
        # fault_seeds= keywords no longer exist on any backend.
        backend = make_backend(name, AND2, "ecim")
        for legacy in ({"model": None}, {"fault_seeds": [1]}):
            with pytest.raises(TypeError):
                backend.run_trials([AND2_INPUTS], **legacy)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @pytest.mark.parametrize(
        "spec",
        [FaultModelSpec.stochastic(0.1), FaultModelSpec.burst(2, 4, gate_error_rate=0.1)],
        ids=["stochastic", "burst"],
    )
    def test_drawing_models_require_a_stream_per_trial(self, name, spec):
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError):
            backend.run_trials([AND2_INPUTS], fault_model=spec)
        with pytest.raises(ProtectionError):
            backend.run_trials([AND2_INPUTS] * 2, fault_model=spec, stream=_stream(1))

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_stuck_at_needs_no_stream(self, name):
        backend = make_backend(name, AND2, "trim")
        outcomes = backend.run_trials(
            [AND2_INPUTS], fault_model=FaultModelSpec.stuck_at((0,), 0)
        )
        assert outcomes.n_trials == 1

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_out_of_range_stuck_column_fails_fast(self, name):
        # Silently injecting nothing at a site the execution never touches
        # would masquerade as fault-free coverage.
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError, match="stuck column"):
            backend.run_trials(
                [AND2_INPUTS], fault_model=FaultModelSpec.stuck_at((10_000,), 1)
            )

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_error_free_fault_model_runs_clean(self, name):
        backend = make_backend(name, AND2, "ecim")
        outcomes = backend.run_trials(
            [AND2_INPUTS], fault_model=FaultModelSpec.stochastic(0.0)
        )
        assert outcomes.faults_injected.sum() == 0
        assert bool(outcomes.outputs_correct[0])

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_stream_with_non_drawing_fault_model_rejected(self, name):
        # An unresolved ("inherit") spec draws nothing; a stream alongside it
        # would silently run fault-free and masquerade as 100% coverage.
        backend = make_backend(name, AND2, "ecim")
        with pytest.raises(ProtectionError, match="no effect"):
            backend.run_trials(
                [AND2_INPUTS], fault_model=FaultModelSpec.burst(3, 8), stream=_stream(1)
            )
        with pytest.raises(ProtectionError, match="no effect"):
            backend.run_trials(
                [AND2_INPUTS],
                fault_model=FaultModelSpec.stuck_at((0,), 1),
                stream=_stream(1),
            )


# NOTE: the scalar-vs-batched equivalence tests that used to live here
# (site enumeration, exhaustive per-site SEP classification) moved into the
# systematic cross-backend harness in tests/differential/, which also covers
# byte-identical TrialOutcomes for the declarative fault-model layer.


class TestStochasticEquivalence:
    def test_fixed_stream_reproduces_byte_identically_on_every_backend(self):
        netlist = get_campaign_workload("dot2").netlist
        spec = FaultModelSpec.stochastic(gate_error_rate=5e-3)
        stream = TrialStream.keyed((3,), range(50))
        rows = [sample_inputs(netlist, __import__("random").Random(t)) for t in range(50)]
        outcomes = []
        for name in BACKEND_NAMES:
            backend = make_backend(name, netlist, "ecim")
            first = backend.run_trials(rows, fault_model=spec, stream=stream)
            again = backend.run_trials(rows, fault_model=spec, stream=stream)
            assert first.counts() == again.counts()
            assert np.array_equal(first.faults_injected, again.faults_injected)
            outcomes.append(first)
        assert all(o.counts() == outcomes[0].counts() for o in outcomes)
        assert outcomes[0].counts()["faulty_trials"] > 0

    @pytest.mark.parametrize("scheme", ["unprotected", "ecim", "trim"])
    def test_scalar_dry_run_counts_the_tape_sites(self, scheme):
        # The scalar backend counts its fault sites by a dry run; the tape
        # backends read them off the compiled plan — they must agree, or
        # the same schedule would land on different sites.
        netlist = get_campaign_workload("dot2").netlist
        scalar = make_backend("scalar", netlist, scheme).fault_sites
        tape = make_backend("batched", netlist, scheme).plan.fault_sites
        for name in ("gate", "metadata", "preset", "memory"):
            assert scalar.size(name) == tape.size(name), name
        assert np.array_equal(scalar.output_ops, tape.output_ops)

    def test_protocol_is_abstract(self):
        with pytest.raises(TypeError):
            ExecutionBackend()
