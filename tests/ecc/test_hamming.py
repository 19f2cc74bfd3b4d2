"""Tests for Hamming codes, including the paper's Hamming(7,4) and Hamming(255,247)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.hamming import (
    HAMMING_7_4,
    HAMMING_255_247,
    HammingCode,
    hamming_parameters_for_data_bits,
    hamming_parity_bits_for,
)
from repro.errors import CodeConstructionError


class TestParameterSelection:
    @pytest.mark.parametrize(
        "k,expected_r", [(1, 2), (4, 3), (11, 4), (26, 5), (57, 6), (120, 7), (247, 8)]
    )
    def test_minimum_parity_bits(self, k, expected_r):
        assert hamming_parity_bits_for(k) == expected_r

    def test_parameters_for_data_bits(self):
        assert hamming_parameters_for_data_bits(4) == (7, 4)
        assert hamming_parameters_for_data_bits(247) == (255, 247)

    def test_parity_bits_grow_logarithmically(self):
        # log(n+1)-style growth (Section II-C): doubling k adds one bit.
        assert hamming_parity_bits_for(200) == hamming_parity_bits_for(120) + 1

    def test_invalid_k(self):
        with pytest.raises(CodeConstructionError):
            hamming_parity_bits_for(0)


class TestCanonicalCodes:
    def test_hamming_7_4_dimensions(self):
        assert HAMMING_7_4.n == 7
        assert HAMMING_7_4.k == 4
        assert HAMMING_7_4.r == 3
        assert HAMMING_7_4.is_full_length

    def test_hamming_255_247_dimensions(self):
        assert HAMMING_255_247.n == 255
        assert HAMMING_255_247.k == 247
        assert HAMMING_255_247.r == 8
        assert HAMMING_255_247.is_full_length

    def test_both_single_error_correcting(self):
        assert HAMMING_7_4.is_single_error_correcting()
        assert HAMMING_255_247.is_single_error_correcting()

    def test_correctable_errors(self):
        assert HAMMING_7_4.correctable_errors() == 1

    def test_hamming_7_4_minimum_distance(self):
        assert HAMMING_7_4.minimum_distance() == 3

    def test_average_parity_updates_255_247(self):
        # Column weights of the (255,247) code: all 8-bit patterns of weight
        # >= 2; total weight = 1024 - 8 ones = 1016, so the mean is ~4.11.
        assert HAMMING_255_247.average_parity_updates_per_data_bit() == pytest.approx(
            1016 / 247, abs=1e-6
        )


class TestShortenedCodes:
    def test_shortened_code_for_arbitrary_k(self):
        code = HammingCode(k=20)
        assert code.k == 20
        assert code.r == 5
        assert not code.is_full_length
        assert code.is_single_error_correcting()

    def test_overprovisioned_parity(self):
        code = HammingCode(k=4, r=5)
        assert code.n == 9
        assert code.is_single_error_correcting()

    def test_insufficient_parity_rejected(self):
        with pytest.raises(CodeConstructionError):
            HammingCode(k=5, r=3)

    def test_from_codeword_length_validates(self):
        with pytest.raises(CodeConstructionError):
            HammingCode.from_codeword_length(10, 12)

    def test_single_data_bit_code(self):
        code = HammingCode(k=1)
        word = code.encode([1])
        corrupted = word.copy()
        corrupted[0] ^= 1
        assert list(code.decode(corrupted).corrected) == list(word)


class TestErrorCorrection:
    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_hamming_7_4_corrects_single_errors(self, position):
        word = HAMMING_7_4.encode([1, 0, 0, 1])
        corrupted = word.copy()
        corrupted[position] ^= 1
        result = HAMMING_7_4.decode(corrupted)
        assert result.error_corrected
        assert np.array_equal(result.corrected, word)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**16 - 1),
        st.integers(min_value=0, max_value=254),
    )
    def test_hamming_255_247_corrects_any_single_error(self, seed, position):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, size=247).astype(np.uint8)
        word = HAMMING_255_247.encode(data)
        corrupted = word.copy()
        corrupted[position] ^= 1
        result = HAMMING_255_247.decode(corrupted)
        assert result.error_corrected
        assert np.array_equal(result.corrected, word)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_clean_codewords_pass(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, size=247).astype(np.uint8)
        result = HAMMING_255_247.decode(HAMMING_255_247.encode(data))
        assert not result.error_detected
        assert np.array_equal(result.data, data)

    def test_parity_bit_error_does_not_corrupt_data(self):
        data = np.ones(247, dtype=np.uint8)
        word = HAMMING_255_247.encode(data)
        corrupted = word.copy()
        corrupted[250] ^= 1  # a parity position
        result = HAMMING_255_247.decode(corrupted)
        assert np.array_equal(result.data, data)


class TestLevelWidthCodes:
    """ECiM protects each logic level with the (shortened) Hamming code for
    that level's width: every one of them corrects any single flipped bit,
    data or parity."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 11, 16, 26, 57])
    def test_every_single_error_is_corrected(self, k):
        code = HammingCode(k)
        data = np.random.default_rng(k).integers(0, 2, size=k).astype(np.uint8)
        word = code.encode(data)
        assert not (code.parity_check_matrix.astype(int) @ word % 2).any()
        for position in range(code.n):
            corrupted = word.copy()
            corrupted[position] ^= 1
            result = code.decode(corrupted)
            assert result.error_corrected
            assert np.array_equal(result.corrected, word)
            assert np.array_equal(result.data, data)
