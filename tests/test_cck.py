"""Codebook construction, complementary pairs, distances and subset search."""

import hashlib
import io
import itertools

import numpy as np
import pytest

from scckm.cck import (Codebook, cck2_codebook, cck4_enumerate,
                       cck4_reference_codebook, cck8_codebook, cck8_codeword,
                       dmin_closed_form, export_codebook_csv, golay_pair,
                       min_distance, pack_bits, select_cck4_subset,
                       select_min_distance_subset, unpack_bits)


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


class TestCck2:
    def test_table(self):
        cb = cck2_codebook()
        expected = np.array([[1, 1], [-1, 1], [-1, -1], [1, -1]], dtype=complex)
        assert cb.entries.shape == (4, 2)
        assert np.array_equal(cb.entries, expected)

    def test_bit_patterns(self):
        cb = cck2_codebook()
        assert [cb.bit_pattern(i) for i in range(4)] == ["00", "01", "10", "11"]

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
        assert cb.bits_per_codeword == 8
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
        assert cb.bits_per_codeword == 4

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ValueError):
            select_cck4_subset(cck4_enumerate(), 0, np.random.default_rng(0))

    def test_rejects_non_integer_sample_count(self):
        with pytest.raises(ValueError, match="integer"):
            select_cck4_subset(cck4_enumerate(), 2.5, np.random.default_rng(0))


def test_dmin_closed_form_rejects_non_integers():
    with pytest.raises(ValueError, match="integer"):
        dmin_closed_form(4, 2.5)
    with pytest.raises(ValueError, match="power of two"):
        dmin_closed_form(4.0, 4)


def test_export_codebook_csv_round_trip():
    cb = cck2_codebook()
    buf = io.StringIO()
    export_codebook_csv(cb, buf)
    lines = buf.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["index", "bit_pattern"]
    assert len(lines) == 1 + len(cb)
    row = lines[2].split(",")
    assert row[0] == "1" and row[1] == "01"
    chips = np.array([float(row[2]) + 1j * float(row[3]),
                      float(row[4]) + 1j * float(row[5])])
    assert np.array_equal(chips, cb.entries[1])


def test_codebook_bytes_are_pinned():
    # the digest covers the sign of every zero chip part (-0.0 prints as such
    # in the CSV), which no value comparison sees
    digest = hashlib.sha256()
    for factory in (cck2_codebook, cck4_reference_codebook, cck8_codebook):
        buf = io.StringIO()
        export_codebook_csv(factory(), buf)
        digest.update(buf.getvalue().encode("utf-8"))
    digest.update(cck4_enumerate().tobytes())
    assert digest.hexdigest() == \
        "83bf7253bedc05f0238068e645a375ec3fe5e41eced7a4c7c40ba062ebb4e39c"
