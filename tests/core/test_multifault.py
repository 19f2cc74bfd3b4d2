"""Tests for the exhaustive multi-fault (k-flip) sweep engine.

Pins down the three contracts the multi-fault subsystem rests on:

* **k = 1 degeneracy** — a k = 1 multi-fault sweep equals the classic
  single-fault sweep byte-for-byte, per site and per outcome, on both
  backends (the acceptance criterion for the per-k coverage table).
* **Backend parity at k = 2** — scalar and batched k-flip executions are
  bit-exact on the Fig. 6 AND example and on a synthesized dot-2x1 block,
  under both ECiM and TRiM.
* **Budget-vs-t (Fig. 8)** — a BCH t = 2 ECiM corrects every k = 2 pair,
  including the ones Hamming-protected ECiM provably misses, and no
  combination within the per-level correction budget ever corrupts the
  outputs.

It also pins the sweep's array shortcuts to their object-level meaning:
the per-level budget check on sorted rows, the unsorted-site-list path,
and the pool's contiguous runs of shards.
"""

import pickle
from concurrent.futures import Future

import numpy as np
import pytest

import repro.core.sep as sep_module
from repro.core.backend import BACKEND_NAMES, FaultSite, make_backend
from repro.core.sep import (
    _SHARD_COUNTERS,
    MultiFaultOutcome,
    _within_budget,
    and_gate_example_netlist,
    exhaustive_multi_fault_injection,
    exhaustive_single_fault_injection,
    multi_fault_coverage_table,
)
from repro.ecc.bch import bch_code_factory, smallest_bch_code
from repro.errors import ProtectionError
from repro.workloads.matmul import dot_product_netlist

AND2 = and_gate_example_netlist()
AND2_INPUTS = {AND2.inputs[0]: 1, AND2.inputs[1]: 1}
ALL_AND2_INPUTS = [
    {AND2.inputs[0]: a, AND2.inputs[1]: b} for a in (0, 1) for b in (0, 1)
]

DOT21 = dot_product_netlist(2, 1)
DOT21_INPUTS = {signal: 1 for signal in DOT21.inputs}

#: Stride keeping the scalar side of the dot-2x1 cross-checks affordable
#: while still covering early, middle and late sites of the schedule.
SITE_STRIDE = 50


def _outcome_tuples(analysis):
    return [
        (
            outcome.sites,
            outcome.final_outputs_correct,
            outcome.error_detected,
            outcome.corrections,
            outcome.uncorrectable_levels,
        )
        for outcome in analysis.outcomes
    ]


class TestSingleFaultDegeneracy:
    """k = 1 multi-fault sweeps equal the single-fault sweep byte-for-byte."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    @pytest.mark.parametrize("scheme", ["ecim", "trim"])
    @pytest.mark.parametrize("inputs", ALL_AND2_INPUTS, ids=lambda v: str(sorted(v.values())))
    def test_k1_equals_single_fault_sweep(self, backend_name, scheme, inputs):
        backend = make_backend(backend_name, AND2, scheme)
        single = exhaustive_single_fault_injection(backend, inputs)
        multi = exhaustive_multi_fault_injection(backend, inputs, k=1)
        assert _outcome_tuples(multi) == [
            (
                (outcome.site,),
                outcome.final_outputs_correct,
                outcome.error_detected,
                outcome.corrections,
                outcome.uncorrectable_levels,
            )
            for outcome in single.outcomes
        ]

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_k1_coverage_row_matches_single_sweep_counts(self, backend_name):
        backend = make_backend(backend_name, AND2, "ecim")
        single = exhaustive_single_fault_injection(backend, AND2_INPUTS)
        table = multi_fault_coverage_table(backend, AND2_INPUTS, max_faults=2)
        row = table[0].coverage_row()
        assert row["k"] == 1
        assert row["combinations"] == single.total_sites
        assert row["sep_guaranteed"] + row["code_corrected"] == single.protected_sites
        assert table[0].sep_guaranteed == single.sep_guaranteed

    def test_k1_chunking_is_invisible(self):
        backend = make_backend("batched", AND2, "ecim")
        whole = exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=2)
        chunked = exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=2, chunk_size=7)
        assert _outcome_tuples(whole) == _outcome_tuples(chunked)


class TestBackendParity:
    """Scalar and batched k = 2 executions are bit-exact, per combination."""

    @pytest.mark.parametrize("scheme", ["ecim", "trim"])
    def test_and2_k2_scalar_equals_batched(self, scheme):
        analyses = [
            exhaustive_multi_fault_injection(make_backend(name, AND2, scheme), AND2_INPUTS, k=2)
            for name in ("scalar", "batched")
        ]
        assert analyses[0].total_combinations > 0
        assert _outcome_tuples(analyses[0]) == _outcome_tuples(analyses[1])

    @pytest.mark.parametrize("scheme", ["ecim", "trim"])
    def test_dot21_k2_scalar_equals_batched(self, scheme):
        scalar = make_backend("scalar", DOT21, scheme)
        batched = make_backend("batched", DOT21, scheme)
        sites = scalar.enumerate_sites(DOT21_INPUTS)
        assert sites == batched.enumerate_sites(DOT21_INPUTS)
        subset = sites[::SITE_STRIDE]
        assert len(subset) >= 3
        results = [
            exhaustive_multi_fault_injection(backend, DOT21_INPUTS, k=2, sites=subset)
            for backend in (scalar, batched)
        ]
        assert results[0].total_combinations == len(subset) * (len(subset) - 1) // 2
        assert _outcome_tuples(results[0]) == _outcome_tuples(results[1])

    def test_two_flips_in_one_firing_count_two_faults(self):
        # A multi-output ECiM gate firing exposes several output positions
        # under one operation index; a pair within that firing must inject
        # two faults (not one) on both backends and agree on the outcome.
        backends = {
            name: make_backend(name, AND2, "ecim") for name in ("scalar", "batched")
        }
        sites = backends["scalar"].enumerate_sites(AND2_INPUTS)
        by_op = {}
        for site in sites:
            by_op.setdefault(site.operation_index, []).append(site)
        pair = next(group for group in by_op.values() if len(group) >= 2)[:2]
        outcomes = {}
        for name, backend in backends.items():
            analysis = exhaustive_multi_fault_injection(
                backend, AND2_INPUTS, k=2, sites=pair
            )
            assert analysis.total_combinations == 1
            outcomes[name] = _outcome_tuples(analysis)
        assert outcomes["scalar"] == outcomes["batched"]


class TestBudgetVsCodeStrength:
    """The Fig. 8 claim as a computed artefact: BCH-t recovers multi-fault
    coverage the single-error budget loses."""

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_bch_t2_corrects_pairs_hamming_misses(self, backend_name):
        hamming = exhaustive_multi_fault_injection(
            make_backend(backend_name, AND2, "ecim"), AND2_INPUTS, k=2
        )
        bch = exhaustive_multi_fault_injection(
            make_backend(backend_name, AND2, "ecim", code_factory=bch_code_factory(2)),
            AND2_INPUTS,
            k=2,
            correction_budget=2,
        )
        # Hamming-protected ECiM provably misses some double faults...
        hamming_missed = hamming.total_combinations - hamming.corrected_combinations
        assert hamming_missed > 0
        assert hamming.coverage < 1.0
        # ...while BCH t=2 corrects every pair: with a per-level budget of 2,
        # all k=2 combinations are within budget, so full coverage is the
        # *guarantee*, not luck.
        assert bch.sep_guaranteed
        assert bch.coverage == 1.0
        assert bch.silent_combinations == bch.detected_combinations == 0

    @pytest.mark.parametrize("backend_name", BACKEND_NAMES)
    def test_within_budget_combinations_never_corrupt(self, backend_name):
        for code_factory, budget in ((None, 1), (bch_code_factory(2), 2)):
            backend = make_backend(
                backend_name, AND2, "ecim", code_factory=code_factory
            )
            for k in (1, 2):
                analysis = exhaustive_multi_fault_injection(
                    backend, AND2_INPUTS, k=k, correction_budget=budget
                )
                assert analysis.budget_violations == 0

    def test_bch_scalar_equals_batched(self):
        # The batched multi-error decode LUT must mirror the algebraic
        # Berlekamp-Massey decoder per combination, not just in aggregate.
        results = [
            exhaustive_multi_fault_injection(
                make_backend(name, AND2, "ecim", code_factory=bch_code_factory(2)),
                AND2_INPUTS,
                k=2,
                correction_budget=2,
            )
            for name in ("scalar", "batched")
        ]
        assert _outcome_tuples(results[0]) == _outcome_tuples(results[1])


class TestApiContracts:
    def test_k_must_be_positive(self):
        backend = make_backend("batched", AND2, "ecim")
        with pytest.raises(ProtectionError):
            exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=0)

    def test_k_beyond_site_count_fails_loudly(self):
        backend = make_backend("batched", AND2, "ecim")
        n_sites = len(backend.enumerate_sites(AND2_INPUTS))
        with pytest.raises(ProtectionError):
            exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=n_sites + 1)

    def test_chunk_size_must_be_positive(self):
        backend = make_backend("batched", AND2, "ecim")
        with pytest.raises(ProtectionError):
            exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=1, chunk_size=0)

    def test_keep_outcomes_false_keeps_counters_only(self):
        backend = make_backend("batched", AND2, "ecim")
        kept = exhaustive_multi_fault_injection(backend, AND2_INPUTS, k=2)
        counted = exhaustive_multi_fault_injection(
            backend, AND2_INPUTS, k=2, keep_outcomes=False
        )
        assert counted.outcomes == []
        assert counted.coverage_row() == kept.coverage_row()

    def test_code_factory_rejected_off_ecim(self):
        for name in BACKEND_NAMES:
            with pytest.raises(ProtectionError):
                make_backend(name, AND2, "trim", code_factory=bch_code_factory(2))

    def test_smallest_bch_code_covers_width(self):
        code = smallest_bch_code(2, 2)
        assert code.k >= 2 and code.t == 2
        wider = smallest_bch_code(8, 2)
        assert wider.k >= 8
        assert wider.n > code.n


def _level_outcome(levels):
    """A combination outcome whose sites sit on ``levels``."""
    return MultiFaultOutcome(
        sites=tuple(
            FaultSite(
                operation_index=index,
                output_position=0,
                gate="nor",
                is_metadata=False,
                logic_level=level,
                column=index,
            )
            for index, level in enumerate(levels)
        ),
        final_outputs_correct=True,
        error_detected=False,
        corrections=0,
        uncorrectable_levels=0,
    )


class TestSweepShortcuts:
    """The sweep's array shortcuts against what they stand for."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_within_budget_equals_max_faults_per_level(self, k):
        rng = np.random.default_rng(k)
        unsorted = rng.integers(0, 4, size=(300, k))
        rows = np.sort(unsorted, axis=1)
        assert not np.array_equal(unsorted, rows) or k == 1
        for budget in range(k + 2):
            expected = [
                _level_outcome(levels).within_budget(budget) for levels in unsorted.tolist()
            ]
            assert _within_budget(unsorted, budget).tolist() == expected
            assert _within_budget(rows, budget).tolist() == expected
            assert _within_budget(rows, budget, rows_sorted=True).tolist() == expected

    @pytest.mark.parametrize("k, budget", [(2, 1), (3, 2)], ids=["hamming-k2", "bch2-k3"])
    def test_a_shuffled_site_list_gives_the_same_counters(self, k, budget):
        # Combination rows of a shuffled list read their levels unsorted,
        # so the sweep takes the path that sorts them.
        factory = {"code_factory": bch_code_factory(budget)} if budget > 1 else {}
        backend = make_backend("bitpacked", AND2, "ecim", **factory)
        sites = backend.enumerate_sites(AND2_INPUTS)
        shuffled = [sites[index] for index in np.random.default_rng(5).permutation(len(sites))]
        levels = [site.logic_level for site in shuffled]
        assert levels != sorted(levels)
        runs = [
            exhaustive_multi_fault_injection(
                backend, AND2_INPUTS, k=k, sites=site_list, chunk_size=512,
                correction_budget=budget, keep_outcomes=False,
            )
            for site_list in (sites, shuffled)
        ]
        counters = [[getattr(run, name) for name in _SHARD_COUNTERS] for run in runs]
        assert counters[0] == counters[1]
        # Both sides of the budget occur, so the check decides something.
        assert runs[0].sep_guaranteed_combinations > 0
        assert runs[0].total_combinations > runs[0].sep_guaranteed_combinations

    def test_a_pool_runs_about_two_contiguous_shard_runs_per_worker(self, monkeypatch):
        backend = make_backend("bitpacked", AND2, "ecim", code_factory=bch_code_factory(2))
        kwargs = {"k": 2, "chunk_size": 64, "correction_budget": 2}
        serial = exhaustive_multi_fault_injection(backend, AND2_INPUTS, **kwargs)
        runs = []

        class InlinePool:
            """Runs each task when it is submitted, on a pickled copy of
            its arguments, as a worker process would receive them."""

            def __init__(self, max_workers):
                assert max_workers == 3

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                runs.append(list(args[1]))
                future = Future()
                future.set_result(fn(*pickle.loads(pickle.dumps(args))))
                return future

        monkeypatch.setattr(sep_module, "ProcessPoolExecutor", InlinePool)
        pooled = exhaustive_multi_fault_injection(backend, AND2_INPUTS, jobs=3, **kwargs)
        total = serial.total_combinations
        assert len(runs) == 6 and all(runs)
        assert [shard for run in runs for shard in run] == [
            (start, min(64, total - start)) for start in range(0, total, 64)
        ]
        assert [getattr(pooled, name) for name in _SHARD_COUNTERS] == [
            getattr(serial, name) for name in _SHARD_COUNTERS
        ]
        assert _outcome_tuples(pooled) == _outcome_tuples(serial)
