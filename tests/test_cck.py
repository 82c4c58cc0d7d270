"""Codebook construction, complementary pairs, distances and subset search."""

import hashlib
import itertools

import numpy as np
import pytest

from scckm.cck import (Codebook, cck2_codebook, cck4_enumerate,
                       cck4_reference_codebook, cck8_codebook, cck8_codeword,
                       dmin_closed_form, golay_pair, min_distance, pack_bits,
                       select_cck4_subset, select_min_distance_subset,
                       unpack_bits)


def aperiodic_autocorr(seq, shift):
    n = len(seq)
    return sum(int(seq[i]) * int(seq[i + shift]) for i in range(n - shift))


class TestGolayPairs:
    def test_lengths_and_alphabet(self):
        for k in range(1, 7):
            a, b = golay_pair(k)
            assert len(a) == len(b) == 2 ** (k - 1)
            assert set(np.concatenate([a, b]).tolist()) <= {1, -1}

    def test_zero_sidelobes_exact(self):
        # integer arithmetic end to end: sums must be exactly zero
        for k in range(1, 7):
            a, b = golay_pair(k)
            for shift in range(1, len(a)):
                assert aperiodic_autocorr(a, shift) + aperiodic_autocorr(b, shift) == 0

    def test_zero_shift_energy(self):
        a, b = golay_pair(5)
        assert aperiodic_autocorr(a, 0) + aperiodic_autocorr(b, 0) == 2 * len(a)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            golay_pair(0)
        for depth in (True, 2.5):
            with pytest.raises(ValueError, match="^recursion depth must be an integer"):
                golay_pair(depth)


class TestCodebook:
    @pytest.mark.parametrize("shape", [(4,), (3, 2), (1, 2), (0, 2), (4, 2, 1)])
    def test_rejects_entries_that_are_not_a_codeword_table(self, shape):
        with pytest.raises(ValueError, match="power-of-two row count"):
            Codebook(np.ones(shape, dtype=complex))

    def test_entries_are_read_only(self):
        cb = cck2_codebook()
        with pytest.raises(ValueError, match="read-only"):
            cb.entries[0, 0] = 0
        # a list is taken too, and the caller's own array stays writable
        chips = np.array([[1, 1], [1, -1]], dtype=complex)
        for entries in (chips.tolist(), chips):
            cb = Codebook(entries)
            with pytest.raises(ValueError, match="read-only"):
                cb.entries[0, 0] = 0
        chips[0, 0] = 0
        assert np.array_equal(cb.entries, [[1, 1], [1, -1]])

    def test_equality_is_identity(self):
        cb = cck8_codebook()
        assert cb == cb
        assert cb != cck8_codebook()
        assert {cb} == {cb}


class TestCck2:
    def test_table(self):
        cb = cck2_codebook()
        expected = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=complex)
        assert cb.entries.shape == (4, 2)
        assert np.array_equal(cb.entries, expected)

    def test_min_distance(self):
        cb = cck2_codebook()
        assert abs(min_distance(cb) - 2.0) < 1e-12
        assert abs(min_distance(cb) - dmin_closed_form(2, 2)) < 1e-12


class TestCck4:
    def test_enumeration_count_and_modulus(self):
        words = cck4_enumerate()
        assert words.shape == (27, 4)
        assert np.allclose(np.abs(words), 1.0, atol=1e-12)
        # all distinct
        rounded = {tuple(np.round(w, 9)) for w in words}
        assert len(rounded) == 27

    def test_reference_rows_are_enumerated_words(self):
        words = cck4_enumerate()
        ref = cck4_reference_codebook()
        assert ref.entries.shape == (16, 4)
        pool = {tuple(np.round(w, 9)) for w in words}
        for row in ref.entries:
            assert tuple(np.round(row, 9)) in pool

    def test_reference_min_distance(self):
        ref = cck4_reference_codebook()
        d = min_distance(ref)
        assert abs(d - np.sqrt(6)) < 1e-9
        assert abs(d - dmin_closed_form(4, 3)) < 1e-9

    def test_exact_chip_values(self):
        ref = cck4_reference_codebook()
        w = -0.5 + 0.5j * np.sqrt(3)
        # first row is the all-zero-phase word, fourth chip carries the minus
        assert np.array_equal(ref.entries[0], np.array([1, 1, 1, -1], dtype=complex))
        assert ref.entries[2][0] == w


class TestCck8:
    def test_size(self):
        cb = cck8_codebook()
        assert cb.entries.shape == (256, 8)
        assert np.allclose(np.abs(cb.entries), 1.0, atol=1e-12)

    def test_worked_byte(self):
        chips = cck8_codeword("00111011")
        expected = np.array([-1j, 1, -1, 1j, 1, 1j, 1j, 1], dtype=complex)
        assert np.array_equal(chips, expected)

    def test_all_zero_byte(self):
        chips = cck8_codeword("00000000")
        expected = np.array([1, 1, 1, -1, 1, 1, -1, 1], dtype=complex)
        assert np.array_equal(chips, expected)

    def test_codebook_row_matches_codeword(self):
        cb = cck8_codebook()
        for idx in (0, 59, 128, 255):
            assert np.array_equal(cb.entries[idx], cck8_codeword(format(idx, "08b")))

    def test_min_distance(self):
        cb = cck8_codebook()
        d = min_distance(cb)
        assert abs(d - 2 * np.sqrt(2)) < 1e-9
        assert abs(d - dmin_closed_form(8, 4)) < 1e-9

    @pytest.mark.parametrize("bad", ["0011101", "001110110", "0011101a", ""])
    def test_rejects_malformed_bytes(self, bad):
        with pytest.raises(ValueError):
            cck8_codeword(bad)

    def test_orthogonal_subsets_of_size_eight_exist(self):
        # binary-phase words (every phase 0 or pi) give +-1 chip vectors;
        # pairwise inner products over those come out exactly zero often
        # enough to assemble an orthogonal set of 8, the dimension limit.
        cb = cck8_codebook()
        picked = [0]
        for idx in range(1, 256):
            cand = cb.entries[idx]
            if all(abs(np.vdot(cb.entries[j], cand)) < 1e-9 for j in picked):
                picked.append(idx)
            if len(picked) == 8:
                break
        assert len(picked) == 8
        gram = cb.entries[picked] @ cb.entries[picked].conj().T
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-9


class TestBitPacking:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, size=(8, 64))
        assert np.array_equal(unpack_bits(pack_bits(bits), 8), bits)

    def test_first_row_is_msb(self):
        bits = np.array([[1], [0], [0]])
        assert pack_bits(bits)[0] == 4


class TestSubsetSearch:
    def test_exhaustive_matches_brute_force(self):
        words = cck4_enumerate()[:6]
        # asking for C(6, 4) = 15 subsets draws every one of them
        idx = select_min_distance_subset(words, 4, num_random_subsets=15,
                                         rng=np.random.default_rng(0))
        found = min(np.linalg.norm(words[i] - words[j])
                    for i, j in itertools.combinations(idx, 2))
        best = max(
            min(np.linalg.norm(words[i] - words[j])
                for i, j in itertools.combinations(combo, 2))
            for combo in itertools.combinations(range(6), 4))
        assert abs(found - best) < 1e-9

    def test_sampled_search_is_seeded(self):
        words = cck4_enumerate()
        a = select_min_distance_subset(words, 16, 500, np.random.default_rng(11))
        b = select_min_distance_subset(words, 16, 500, np.random.default_rng(11))
        assert a == b

    def test_selected_codebook_shape(self):
        cb = select_cck4_subset(cck4_enumerate(), 200, np.random.default_rng(0))
        assert isinstance(cb, Codebook)
        assert cb.entries.shape == (16, 4)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            select_cck4_subset(cck4_enumerate(), 0, np.random.default_rng(0))

    def test_rejects_subset_larger_than_candidates(self):
        with pytest.raises(ValueError, match="^subset size 6 out of range for 5 candidates$"):
            select_min_distance_subset(cck4_enumerate()[:5], 6, 1, np.random.default_rng(0))

    def test_rejects_non_integer_sample_count(self):
        with pytest.raises(ValueError, match="integer"):
            select_cck4_subset(cck4_enumerate(), 2.5, np.random.default_rng(0))
        with pytest.raises(ValueError, match="^number of random subsets must be an integer"):
            select_cck4_subset(cck4_enumerate(), True, np.random.default_rng(0))


def test_dmin_closed_form_rejects_non_integers():
    with pytest.raises(ValueError, match="integer"):
        dmin_closed_form(4, 2.5)
    with pytest.raises(ValueError, match="power of two"):
        dmin_closed_form(4.0, 4)


def test_codebook_bytes_are_pinned():
    # the digest covers every chip byte, so also the sign of each zero chip
    # part, which no value comparison sees
    digest = hashlib.sha256()
    for factory in (cck2_codebook, cck4_reference_codebook, cck8_codebook):
        digest.update(factory().entries.tobytes())
    digest.update(cck4_enumerate().tobytes())
    assert digest.hexdigest() == \
        "a72cbb9d01c1f34bb03388ece5c2025a65af031b84be1dbada1c1622c77b442e"
