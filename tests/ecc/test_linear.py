"""Tests for the generic systematic linear block code."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ecc import gf2
from repro.ecc.bch import smallest_bch_code
from repro.ecc.hamming import HammingCode
from repro.ecc.linear import SystematicLinearCode
from repro.errors import CodeConstructionError

# The Hamming(7,4) A submatrix (weight >= 2 columns of 3 bits).
A_7_4 = [
    [1, 1, 0, 1],
    [1, 0, 1, 1],
    [0, 1, 1, 1],
]


@pytest.fixture
def code():
    return SystematicLinearCode(A_7_4, name="Hamming(7,4)")


def build_g(code):
    """G = [I_k | A^T], built from the code's A submatrix."""
    return gf2.hstack([gf2.identity(code.k), code.a_matrix.T])


class TestConstruction:
    def test_dimensions(self, code):
        assert code.n == 7
        assert code.k == 4
        assert code.n_parity == 3
        assert code.rate == pytest.approx(4 / 7)

    def test_generator_is_systematic(self, code):
        g = build_g(code)
        assert g.shape == (4, 7)
        assert np.array_equal(g[:, :4], np.eye(4, dtype=np.uint8))
        # Encoding is multiplication by G.
        data = np.array([1, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(code.encode(data), data @ g % 2)

    def test_parity_check_is_systematic(self, code):
        h = code.parity_check_matrix
        assert h.shape == (3, 7)
        assert np.array_equal(h[:, 4:], np.eye(3, dtype=np.uint8))

    def test_gh_orthogonality(self, code):
        product = (build_g(code).astype(int) @ code.parity_check_matrix.T.astype(int)) % 2
        assert not product.any()

    def test_rejects_non_2d_a(self):
        with pytest.raises(CodeConstructionError):
            SystematicLinearCode([1, 0, 1])

    def test_rejects_non_binary_a(self):
        with pytest.raises(CodeConstructionError):
            SystematicLinearCode([[2, 0], [0, 1]])


class TestEncoding:
    def test_codeword_starts_with_data(self, code):
        word = code.encode([1, 0, 1, 1])
        assert list(word[:4]) == [1, 0, 1, 1]

    def test_all_zero_data_gives_all_zero_codeword(self, code):
        assert not code.encode([0, 0, 0, 0]).any()

    def test_parity_matches_a_matrix(self, code):
        data = [1, 0, 0, 0]
        parity = code.parity_bits(data)
        assert list(parity) == [1, 1, 0]  # first column of A

    def test_wrong_length_rejected(self, code):
        with pytest.raises(CodeConstructionError):
            code.encode([1, 0])

    def test_linearity(self, code):
        a = np.array([1, 0, 1, 0], dtype=np.uint8)
        b = np.array([0, 1, 1, 1], dtype=np.uint8)
        assert np.array_equal(code.encode(a ^ b), code.encode(a) ^ code.encode(b))


class TestDecoding:
    def test_clean_word_has_zero_syndrome(self, code):
        word = code.encode([1, 1, 0, 1])
        assert not code.syndrome(word).any()
        result = code.decode(word)
        assert not result.error_detected
        assert list(result.data) == [1, 1, 0, 1]

    @pytest.mark.parametrize("position", range(7))
    def test_corrects_any_single_error(self, code, position):
        word = code.encode([1, 0, 1, 1])
        corrupted = word.copy()
        corrupted[position] ^= 1
        result = code.decode(corrupted)
        assert result.error_corrected
        assert result.error_positions == (position,)
        assert np.array_equal(result.corrected, word)

    def test_double_error_detected_not_corrected_to_original(self, code):
        word = code.encode([1, 0, 1, 1])
        corrupted = word.copy()
        corrupted[0] ^= 1
        corrupted[1] ^= 1
        result = code.decode(corrupted)
        # A distance-3 code cannot correct a double error; it either flags it
        # or miscorrects — it must never silently return the original word.
        assert result.error_detected

    def test_extract_data(self, code):
        word = code.encode([0, 1, 1, 0])
        assert list(code.extract_data(word)) == [0, 1, 1, 0]

    def test_minimum_distance_is_three(self, code):
        assert code.minimum_distance() == 3

    def test_is_single_error_correcting(self, code):
        assert code.is_single_error_correcting()


def matvec_syndrome_table(code):
    """The table by its definition: one ``H @ e_p`` per position, with
    colliding syndromes dropped."""
    h = code.parity_check_matrix
    table, collisions = {}, set()
    for position in range(code.n):
        error = np.zeros(code.n, dtype=np.uint8)
        error[position] = 1
        syndrome = tuple(int(b) for b in gf2.gf2_matvec(h, error))
        if syndrome in table or syndrome in collisions:
            collisions.add(syndrome)
            table.pop(syndrome, None)
        else:
            table[syndrome] = position
    return table


class TestSyndromeTable:
    """The table read off H's columns equals the per-position definition."""

    def test_hamming_codes(self):
        for k in range(1, 301):
            code = HammingCode(k)
            table = code.single_error_syndrome_table()
            assert table == matvec_syndrome_table(code), k
            assert len(table) == code.n

    @pytest.mark.parametrize("width,t", [(1, 2), (2, 2), (16, 2), (40, 2), (9, 3), (30, 3)])
    def test_bch_a_matrices(self, width, t):
        code = SystematicLinearCode(smallest_bch_code(width, t).a_matrix)
        table = code.single_error_syndrome_table()
        assert table == matvec_syndrome_table(code)
        assert code.is_single_error_correcting()

    def test_repeated_and_zero_columns_drop_out(self):
        # Data bits 0 and 2 share a column, so their syndromes collide and
        # both leave the table; data bit 3 has none, so its syndrome is zero.
        a = [[1, 0, 1, 0], [1, 1, 1, 0], [0, 1, 0, 0]]
        code = SystematicLinearCode(a)
        table = code.single_error_syndrome_table()
        assert table == matvec_syndrome_table(code)
        assert sorted(table.values()) == [1, 3, 4, 5, 6]
        assert (1, 1, 0) not in table
        assert table[(0, 0, 0)] == 3
        assert not code.is_single_error_correcting()
        word = np.zeros(code.n, dtype=np.uint8)
        word[0] = 1
        assert code.decode(word).detected_uncorrectable


class TestEcimFacingHelpers:
    def test_parity_bits_affected_by_matches_a_columns(self, code):
        assert code.parity_bits_affected_by(0) == (0, 1)
        assert code.parity_bits_affected_by(3) == (0, 1, 2)

    def test_parity_bits_affected_by_range_check(self, code):
        with pytest.raises(CodeConstructionError):
            code.parity_bits_affected_by(4)

    def test_average_parity_updates(self, code):
        total_ones = sum(sum(row) for row in A_7_4)
        assert code.average_parity_updates_per_data_bit() == pytest.approx(total_ones / 4)

    def test_incremental_parity_update_matches_reencoding(self, code):
        data = np.array([1, 0, 1, 0], dtype=np.uint8)
        parity = code.parity_bits(data)
        flipped = data.copy()
        flipped[2] ^= 1
        updated = code.update_parity_for_bit_change(parity, 2)
        assert np.array_equal(updated, code.parity_bits(flipped))

    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=3))
    def test_incremental_update_property(self, value, bit):
        code = SystematicLinearCode(A_7_4)
        data = np.array([(value >> i) & 1 for i in range(4)], dtype=np.uint8)
        parity = code.parity_bits(data)
        flipped = data.copy()
        flipped[bit] ^= 1
        assert np.array_equal(
            code.update_parity_for_bit_change(parity, bit), code.parity_bits(flipped)
        )
