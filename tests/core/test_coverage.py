"""Tests for the analytic multi-error coverage model."""

import pytest

from repro.core.coverage import (
    binomial_tail,
    coverage_table,
    expected_uncorrectable_levels,
    level_failure_probability,
    run_survival_probability,
)
from repro.errors import EvaluationError


class TestBinomialTail:
    def test_zero_probability(self):
        assert binomial_tail(100, 0.0, 1) == 0.0

    def test_certain_errors(self):
        assert binomial_tail(10, 1.0, 5) == pytest.approx(1.0)

    def test_known_value(self):
        # P[X > 1] for X ~ Bin(2, 0.5) = P[X = 2] = 0.25.
        assert binomial_tail(2, 0.5, 1) == pytest.approx(0.25)

    def test_k_at_least_n_gives_zero(self):
        assert binomial_tail(3, 0.2, 3) == 0.0

    def test_small_rate_dominated_by_first_excess_term(self):
        n, p = 200, 1e-5
        # P[X > 1] ~ C(n,2) p^2
        approximation = (n * (n - 1) / 2) * p**2
        assert binomial_tail(n, p, 1) == pytest.approx(approximation, rel=0.05)

    def test_invalid_parameters(self):
        with pytest.raises(EvaluationError):
            binomial_tail(-1, 0.5, 0)
        with pytest.raises(EvaluationError):
            binomial_tail(10, 1.5, 0)


class TestAnalyticCoverage:
    SITES = [32] * 40  # 40 logic levels of 32 protected sites each

    def test_stronger_codes_survive_better(self):
        rate = 1e-3
        s1 = run_survival_probability(self.SITES, rate, correctable_errors=1)
        s2 = run_survival_probability(self.SITES, rate, correctable_errors=2)
        s3 = run_survival_probability(self.SITES, rate, correctable_errors=3)
        assert s1 < s2 < s3

    def test_lower_rates_survive_better(self):
        assert run_survival_probability(self.SITES, 1e-5) > run_survival_probability(
            self.SITES, 1e-3
        )

    def test_single_error_correction_handles_realistic_rates(self):
        # At memory-class error rates, SEP is effectively sufficient.
        assert run_survival_probability(self.SITES, 1e-7, 1) > 0.999999

    def test_expected_bad_levels_consistent_with_failure_probability(self):
        rate = 5e-3
        expected = expected_uncorrectable_levels(self.SITES, rate, 1)
        single = level_failure_probability(32, rate, 1)
        assert expected == pytest.approx(40 * single)

    def test_coverage_table_structure(self):
        rows = coverage_table(self.SITES, gate_error_rates=(1e-4, 1e-3), correction_strengths=(1, 2))
        assert len(rows) == 2
        for row in rows:
            assert row["survival_t2"] >= row["survival_t1"]
            assert 0.0 <= row["survival_t1"] <= 1.0
