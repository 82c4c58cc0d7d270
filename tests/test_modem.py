"""Mapping, equalization and detection."""

import numpy as np
import pytest

from scckm.cck import (cck2_codebook, cck4_reference_codebook, cck8_codebook, pack_bits,
                       unpack_bits)
from scckm.channel import freq_response, generate_channel, gram_response
from scckm.modem import (BPSK, QAM4, _closest_rows, ml_detect_scck_grid,
                         ml_detect_sm_equalized_grid, scck_map, sm_map, sm_table, zf_equalize,
                         zf_equalize_grid)
from scckm.ofdm import OfdmParams


class TestMapping:
    def test_scck_map_scaling(self):
        cb = cck2_codebook()
        bits = np.array([[0, 1], [1, 0]])
        grid = scck_map(bits, cb)
        assert grid.shape == (2, 2)
        idx = pack_bits(bits)
        assert np.allclose(grid[:, 0], cb.entries[idx[0]] / np.sqrt(2))
        # per-subcarrier transmit energy is 1 regardless of codeword length
        assert np.allclose(np.sum(np.abs(grid) ** 2, axis=0), 1.0)

    def test_scck_map_rejects_non_bits(self):
        for bad in (2, -1, 0.5):
            with pytest.raises(ValueError, match="must be 0 or 1"):
                scck_map(np.array([[0, bad], [1, 0]]), cck2_codebook())

    def test_scck_map_rejects_wrong_row_count(self):
        with pytest.raises(ValueError, match="^bit matrix must have 2 rows, got shape \\(3, 4\\)$"):
            scck_map(np.zeros((3, 4), dtype=np.uint8), cck2_codebook())

    def test_sm_map_single_active_antenna(self):
        bits = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [1, 1, 0, 0]])
        grid = sm_map(bits, 4, "bpsk")
        assert grid.shape == (4, 4)
        active = np.abs(grid) > 0
        assert np.all(active.sum(axis=0) == 1)
        # leading bits choose the antenna in natural binary
        assert np.array_equal(np.argmax(active, axis=0), [0, 1, 2, 3])
        assert np.allclose(np.sum(np.abs(grid) ** 2, axis=0), 1.0)

    def test_sm_map_symbol_labels(self):
        bits = np.array([[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]])
        grid = sm_map(bits, 2, "4qam")
        assert np.allclose(grid[0], QAM4[[0, 1, 2, 3]])

    def test_sm_map_rejects_non_power_of_two(self):
        # the mapper and the detector share one SM table, and so one check
        with pytest.raises(ValueError, match="power of two"):
            sm_map(np.array([[0], [0]]), 3, "bpsk")
        with pytest.raises(ValueError, match="^transmit antenna count must be an integer"):
            sm_map(np.array([[0], [0]]), 2.7, "bpsk")
        with pytest.raises(ValueError, match="power of two"):
            ml_detect_sm_equalized_grid(np.zeros((2, 3), dtype=complex), 3, "bpsk")

    def test_constellation_energy(self):
        assert np.allclose(np.abs(BPSK), 1.0)
        assert np.allclose(np.abs(QAM4), 1.0)

    def test_sm_table_cache_keeps_the_count_check(self):
        table = sm_table(2, "bpsk")
        # the count is checked before the cache: 2.0 == 2 and True == 1 hash
        # alike, and a list or an array does not hash at all
        for bad in (2.0, True, [2], np.array(2)):
            with pytest.raises(ValueError, match="^transmit antenna count must be an integer"):
                sm_table(bad, "bpsk")
        assert sm_table(2, "bpsk") is table
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 5


class TestZeroForcing:
    def test_grid_needs_enough_receivers(self):
        with pytest.raises(ValueError, match="^need n_rx >= n_tx, got channel shape \\(2, 3\\)$"):
            zf_equalize_grid(np.zeros((4, 2), dtype=complex), np.zeros((4, 2, 3), dtype=complex))

    def test_square_recovery(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        z = zf_equalize(h @ x, h)
        assert np.max(np.abs(z - x)) < 1e-9

    def test_tall_least_squares(self):
        rng = np.random.default_rng(1)
        h = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        x = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert np.max(np.abs(zf_equalize(h @ x, h) - x)) < 1e-9

    def test_wide_rejected(self):
        with pytest.raises(ValueError):
            zf_equalize(np.ones(2), np.ones((2, 3)))

    def test_grid_matches_per_subcarrier(self):
        rng = np.random.default_rng(2)
        hk = rng.normal(size=(8, 4, 2)) + 1j * rng.normal(size=(8, 4, 2))
        r = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        batched = zf_equalize_grid(r, hk)
        for k in range(8):
            assert np.max(np.abs(batched[k] - zf_equalize(r[k], hk[k]))) < 1e-10

    def test_grid_falls_back_on_rank_deficient_subcarrier(self):
        # a plain normal-equations solve returns a wrong finite answer on
        # subcarrier 5 without raising; its Cholesky pivot flags it, and the
        # whole symbol goes to the pseudo-inverse instead
        rng = np.random.default_rng(5)
        hk = rng.normal(size=(8, 16, 8)) + 1j * rng.normal(size=(8, 16, 8))
        hk[5, :, 3] = 0.3 * hk[5, :, 1]
        r = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
        batched = zf_equalize_grid(r, hk)
        assert np.all(np.isfinite(batched))
        for k in range(8):
            assert np.max(np.abs(batched[k] - zf_equalize(r[k], hk[k]))) < 1e-10
        # the flagged symbol takes the batched pseudo-inverse, bit for bit
        assert np.array_equal(batched, zf_equalize(r, hk))

    # a rejected or flagged stack skips the substitutions, so no division by zero warns
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n_tx,n_rx", [(2, 2), (4, 8), (8, 16)])
    def test_grid_matches_pinv_oracle(self, n_tx, n_rx):
        rng = np.random.default_rng(n_rx)
        hk = rng.normal(size=(40, n_rx, n_tx)) + 1j * rng.normal(size=(40, n_rx, n_tx))
        r = rng.normal(size=(40, n_rx)) + 1j * rng.normal(size=(40, n_rx))
        singular = hk.copy()
        # a zero column: numpy's Cholesky rejects the whole stack, so the grid
        # sends every subcarrier of the symbol through the pseudo-inverse
        singular[7, :, 0] = 0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.conj(np.swapaxes(singular, 1, 2)) @ singular)
        for stack in (hk, singular):
            batched = zf_equalize_grid(r, stack)
            for k in range(40):
                expected = zf_equalize(r[k], stack[k])
                assert np.max(np.abs(batched[k] - expected)) <= 1e-9 * np.max(np.abs(expected))
        # the rejected stack takes the batched pseudo-inverse, bit for bit
        assert np.array_equal(zf_equalize_grid(r, singular), zf_equalize(r, singular))

    @pytest.mark.parametrize("n_tx,n_rx", [(4, 8), (8, 16)])
    def test_grid_with_gram_from_taps_matches_two_argument_call(self, n_tx, n_rx):
        rng = np.random.default_rng(n_tx)
        params = OfdmParams()
        taps = generate_channel(n_tx, n_rx, 2, rng)
        hk = freq_response(taps, params)
        r = rng.normal(size=(256, n_rx)) + 1j * rng.normal(size=(256, n_rx))
        expected = zf_equalize_grid(r, hk)
        assert np.max(np.abs(zf_equalize_grid(r, hk, gram_response(taps, params))
                             - expected)) <= 1e-9 * np.max(np.abs(expected))

    def test_grid_factors_the_given_gram(self):
        # (2 H^H H) x = H^H y halves the answer, so the gram is not recomputed from hk
        rng = np.random.default_rng(6)
        hk = rng.normal(size=(8, 4, 2)) + 1j * rng.normal(size=(8, 4, 2))
        r = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
        gram = np.conj(np.swapaxes(hk, 1, 2)) @ hk
        np.testing.assert_allclose(zf_equalize_grid(r, hk, 2 * gram),
                                   zf_equalize_grid(r, hk) / 2, rtol=1e-12)
        with pytest.raises(ValueError, match="gram shape"):
            zf_equalize_grid(r, hk, gram[:, :1, :1])

    def test_pivot_ratio_is_taken_per_subcarrier(self):
        # subcarrier 0 is 1e6 times stronger than the rest and each subcarrier
        # is well conditioned: the ratio across subcarriers (1e-12) is no
        # reason to leave the Cholesky path, whose answer is not the
        # pseudo-inverse's bit for bit
        rng = np.random.default_rng(8)
        hk = rng.normal(size=(8, 16, 8)) + 1j * rng.normal(size=(8, 16, 8))
        hk[0] *= 1e6
        r = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
        batched = zf_equalize_grid(r, hk)
        pinv = zf_equalize(r, hk)
        assert np.max(np.abs(batched - pinv)) <= 1e-9 * np.max(np.abs(pinv))
        assert not np.array_equal(batched, pinv)

    # an equal pair of transmit columns is singular on every subcarrier: the
    # factorization is rejected or flagged before any substitution divides
    @pytest.mark.filterwarnings("error")
    def test_grid_with_gram_of_equal_columns_takes_the_pseudo_inverse(self):
        rng = np.random.default_rng(7)
        params = OfdmParams()
        taps = generate_channel(8, 16, 2, rng)
        taps[:, 1] = taps[:, 0]
        hk = freq_response(taps, params)
        r = rng.normal(size=(256, 16)) + 1j * rng.normal(size=(256, 16))
        assert np.array_equal(zf_equalize_grid(r, hk, gram_response(taps, params)),
                              zf_equalize(r, hk))

    def test_degenerate_channel_still_returns(self):
        # rank-deficient matrices go through the truncated pseudo-inverse
        h = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
        z = zf_equalize(np.array([2.0, 2.0], dtype=complex), h)
        assert np.all(np.isfinite(z))


class TestScckDetection:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for cb in (cck2_codebook(), cck4_reference_codebook(), cck8_codebook()):
            scaled = cb.entries / np.sqrt(cb.length_n)
            sent = rng.integers(0, len(cb), size=64)
            noise = rng.normal(size=(64, cb.length_n)) + 1j * rng.normal(size=(64, cb.length_n))
            z = scaled[sent] + 0.3 * noise
            det = ml_detect_scck_grid(z, cb)
            for k in range(64):
                d2 = np.sum(np.abs(z[k] - scaled) ** 2, axis=1)
                assert det.indices[k] == np.argmin(d2)
                chosen = np.sum(np.abs(z[k] - scaled[det.indices[k]]) ** 2)
                assert abs(chosen - d2.min()) < 1e-9

    def test_noiseless_exact(self):
        cb = cck8_codebook()
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 256, size=64)
        z = cb.entries[idx] / np.sqrt(8)
        det = ml_detect_scck_grid(z, cb)
        assert np.array_equal(det.indices, idx)

    def test_tie_breaks_low(self):
        cb = cck2_codebook()
        # the origin is equidistant from every scaled codeword
        det = ml_detect_scck_grid(np.zeros((3, 2), dtype=complex), cb)
        assert np.array_equal(det.indices, [0, 0, 0])

class TestSmDetection:
    def test_equalized_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for n_tx, name in ((2, "bpsk"), (8, "bpsk"), (4, "4qam")):
            points = BPSK if name == "bpsk" else QAM4
            z = rng.normal(size=(32, n_tx)) + 1j * rng.normal(size=(32, n_tx))
            det = ml_detect_sm_equalized_grid(z, n_tx, name)
            for k in range(32):
                cands = []
                for a in range(n_tx):
                    for s in range(len(points)):
                        hyp = np.zeros(n_tx, dtype=complex)
                        hyp[a] = points[s]
                        cands.append(((a, s), np.sum(np.abs(z[k] - hyp) ** 2)))
                (a, s), d = min(cands, key=lambda c: c[1])
                assert divmod(int(det.indices[k]), len(points)) == (a, s)
                chosen = z[k].copy()
                chosen[a] -= points[s]
                assert abs(np.sum(np.abs(chosen) ** 2) - d) < 1e-9

    def test_equalized_noiseless_exact(self):
        z = np.zeros((4, 4), dtype=complex)
        ant = np.array([0, 1, 2, 3])
        z[np.arange(4), ant] = QAM4[[3, 2, 1, 0]]
        det = ml_detect_sm_equalized_grid(z, 4, "4qam")
        antennas, labels = divmod(det.indices, 4)
        assert np.array_equal(antennas, ant)
        assert np.array_equal(labels, [3, 2, 1, 0])

    def test_equalized_tie_breaks_low(self):
        # the origin is equidistant from every (antenna, point) hypothesis
        det = ml_detect_sm_equalized_grid(np.zeros((3, 4), dtype=complex), 4, "4qam")
        antennas, labels = divmod(det.indices, 4)
        assert np.array_equal(antennas, [0, 0, 0])
        assert np.array_equal(labels, [0, 0, 0])

    def test_equalized_shape_check(self):
        with pytest.raises(ValueError):
            ml_detect_sm_equalized_grid(np.zeros((4, 2), dtype=complex), 4, "bpsk")

    def test_unknown_constellation(self):
        with pytest.raises(ValueError):
            ml_detect_sm_equalized_grid(np.zeros((1, 2), dtype=complex), 2, "8psk")


@pytest.mark.parametrize("n_sub", [1, 63, 64, 65, 200])
def test_blocked_search_matches_brute_force(n_sub):
    # sizes below, at and across the detection block, with a partial last block
    rng = np.random.default_rng(n_sub)
    cb = cck8_codebook()
    points = np.zeros((8, 2, 8), dtype=complex)
    points[np.arange(8), :, np.arange(8)] = BPSK
    for table, detect in ((cb.entries / np.sqrt(8), lambda z: ml_detect_scck_grid(z, cb)),
                          (points.reshape(16, 8),
                           lambda z: ml_detect_sm_equalized_grid(z, 8, "bpsk"))):
        noise = rng.normal(size=(n_sub, 8)) + 1j * rng.normal(size=(n_sub, 8))
        z = table[rng.integers(0, len(table), size=n_sub)] + 0.4 * noise
        # every table row has unit energy, so the origin ties them all: row 0
        z[3::7] = 0
        d2 = np.sum(np.abs(z[:, None, :] - table[None]) ** 2, axis=2)
        expected = np.argmin(d2, axis=1)
        def chosen(indices):
            return np.sum(np.abs(z - table[indices]) ** 2, axis=1)

        indices = _closest_rows(z, table)
        assert np.array_equal(indices, expected)
        assert np.max(np.abs(chosen(indices) - d2.min(axis=1))) < 1e-9
        det = detect(z)
        assert np.array_equal(det.indices, expected)
        assert np.array_equal(det.bits, unpack_bits(expected, len(table).bit_length() - 1))
        assert np.max(np.abs(chosen(det.indices) - d2.min(axis=1))) < 1e-9


class TestLoopback:
    """bits -> map -> identity channel -> detect -> same bits."""

    def test_scck(self):
        rng = np.random.default_rng(12)
        for cb in (cck2_codebook(), cck4_reference_codebook(), cck8_codebook()):
            bits = rng.integers(0, 2, size=(len(cb).bit_length() - 1, 128))
            det = ml_detect_scck_grid(scck_map(bits, cb).T, cb)
            assert np.array_equal(det.bits, bits)

    def test_sm(self):
        rng = np.random.default_rng(13)
        for n_tx, name, nbits in ((2, "bpsk", 2), (4, "4qam", 4), (8, "bpsk", 4)):
            bits = rng.integers(0, 2, size=(nbits, 128))
            det = ml_detect_sm_equalized_grid(sm_map(bits, n_tx, name).T, n_tx, name)
            assert np.array_equal(det.bits, bits)
