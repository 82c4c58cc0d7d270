"""Tap-delay channel model: statistics, convolution, and frequency response."""

import math

import numpy as np
import pytest
from scipy import stats

from scckm.channel import apply_channel, freq_response, generate_channel, gram_response
from scckm.ofdm import OfdmParams, ofdm_demodulate, ofdm_modulate


def test_shape_and_dtype():
    taps = generate_channel(2, 4, 3, np.random.default_rng(0))
    assert taps.shape == (4, 2, 3)  # (n_rx, n_tx, p)
    assert taps.dtype == np.complex128


def test_rejects_non_integer_counts():
    with pytest.raises(ValueError, match="^tap count must be an integer"):
        generate_channel(2, 4, 2.5, np.random.default_rng(0))
    # bool is a subclass of int
    with pytest.raises(ValueError, match="^transmit antenna count must be an integer"):
        generate_channel(True, 2, 1, np.random.default_rng(0))


def test_tap_power_normalization():
    """Total power across taps is 1 per antenna pair, split evenly."""
    rng = np.random.default_rng(1)
    p = 2
    taps = np.stack([generate_channel(1, 1, p, rng)[0, 0] for _ in range(20000)])
    per_tap = np.mean(np.abs(taps) ** 2, axis=0)
    assert np.allclose(per_tap, 1 / p, rtol=0.05)
    assert abs(np.mean(np.sum(np.abs(taps) ** 2, axis=1)) - 1.0) < 0.03


def test_tap_magnitude_is_rayleigh():
    rng = np.random.default_rng(2)
    taps = generate_channel(4, 4, 2, rng)
    sample = np.abs(np.stack([generate_channel(4, 4, 2, rng)
                              for _ in range(400)])).ravel()
    sigma = np.sqrt(0.5 / 2)  # per-component std at p=2
    _, pvalue = stats.kstest(sample, "rayleigh", args=(0, sigma))
    assert pvalue > 0.01
    assert taps.shape == (4, 4, 2)


def test_real_imag_components_independent_gaussian():
    rng = np.random.default_rng(3)
    taps = np.stack([generate_channel(2, 2, 2, rng) for _ in range(4000)])
    re, im = taps.real.ravel(), taps.imag.ravel()
    assert abs(np.corrcoef(re, im)[0, 1]) < 0.02
    _, pvalue = stats.kstest(re / np.sqrt(0.25), "norm")
    assert pvalue > 0.01


def test_noiseless_convolution_matches_loop_oracle():
    rng = np.random.default_rng(4)
    taps = generate_channel(2, 3, 2, rng)
    tx = rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))
    out = apply_channel(tx, taps, 0.0)
    expected = np.zeros((3, 11), dtype=complex)
    for m in range(3):
        for n in range(2):
            for i in range(2):
                for t in range(10):
                    expected[m, t + i] += taps[m, n, i] * tx[n, t]
    assert np.max(np.abs(out - expected)) < 1e-12


def test_output_length():
    rng = np.random.default_rng(5)
    taps = generate_channel(2, 2, 4, rng)
    out = apply_channel(np.ones((2, 16), dtype=complex), taps, 0.0)
    assert out.shape == (2, 19)


def test_noise_variance_calibration():
    rng = np.random.default_rng(6)
    taps = np.zeros((2, 2, 1), dtype=complex)
    n0 = 0.3
    out = apply_channel(np.zeros((2, 4096), dtype=complex), taps, n0, rng)
    measured = np.mean(np.abs(out) ** 2)
    assert abs(measured - n0) / n0 < 0.05


def test_noise_is_the_convolution_plus_scaled_draws():
    # the real part takes the first draw and the imaginary part the second
    rng = np.random.default_rng(10)
    taps = generate_channel(2, 3, 2, rng)
    tx = rng.normal(size=(2, 20)) + 1j * rng.normal(size=(2, 20))
    n0 = 0.7
    out = apply_channel(tx, taps, n0, np.random.default_rng(11))
    draws = np.random.default_rng(11)
    a = draws.standard_normal(out.shape)
    b = draws.standard_normal(out.shape)
    expected = apply_channel(tx, taps, 0.0) + math.sqrt(n0 / 2) * (a + 1j * b)
    assert np.array_equal(out, expected)


def test_noise_requires_rng():
    taps = np.ones((1, 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        apply_channel(np.ones((1, 4), dtype=complex), taps, 0.1)


def test_rejects_mismatched_tx_shape():
    taps = np.ones((2, 2, 1), dtype=complex)
    with pytest.raises(ValueError):
        apply_channel(np.ones((3, 4), dtype=complex), taps, 0.0)


def test_rejects_negative_variance():
    # NaN fails every comparison, so a "> 0" test alone would skip the noise
    taps = np.ones((1, 1, 1), dtype=complex)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise variance"):
            apply_channel(np.ones((1, 4), dtype=complex), taps, bad,
                          np.random.default_rng(0))


def test_rejects_taps_that_are_not_3d():
    taps = np.ones((2, 2), dtype=complex)
    with pytest.raises(ValueError, match="3-d"):
        apply_channel(np.ones((2, 4), dtype=complex), taps, 0.0)
    with pytest.raises(ValueError, match="3-d"):
        freq_response(taps, OfdmParams(n_sub=16, cp_len=4))


def test_freq_response_matches_dft_oracle():
    rng = np.random.default_rng(7)
    params = OfdmParams(n_sub=16, cp_len=4)
    taps = generate_channel(2, 3, 3, rng)
    hk = freq_response(taps, params)
    assert hk.shape == (16, 3, 2)
    for k in (0, 5, 15):
        expected = sum(taps[:, :, i] * np.exp(-2j * np.pi * k * i / 16)
                       for i in range(3))
        assert np.max(np.abs(hk[k] - expected)) < 1e-12


def test_freq_response_rejects_long_channels():
    """Delay spread must fit inside the cyclic prefix."""
    rng = np.random.default_rng(8)
    taps = generate_channel(2, 2, 6, rng)
    with pytest.raises(ValueError):
        freq_response(taps, OfdmParams(n_sub=64, cp_len=4))


@pytest.mark.parametrize("n_tx,n_rx,p,cp_len", [(2, 4, 1, 4), (4, 8, 3, 4), (8, 16, 2, 16),
                                                (2, 2, 17, 16)])
def test_gram_response_is_the_gram_of_freq_response(n_tx, n_rx, p, cp_len):
    rng = np.random.default_rng(n_tx * 100 + p)
    params = OfdmParams(n_sub=64, cp_len=cp_len)
    taps = generate_channel(n_tx, n_rx, p, rng)
    hk = freq_response(taps, params)
    expected = np.conj(np.swapaxes(hk, 1, 2)) @ hk
    gram = gram_response(taps, params)
    assert gram.shape == (64, n_tx, n_tx)
    assert np.max(np.abs(gram - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_gram_response_rejects_long_channels():
    taps = generate_channel(2, 2, 6, np.random.default_rng(8))
    params = OfdmParams(n_sub=64, cp_len=4)
    message = "^6 taps exceed cyclic prefix length 4 \\+ 1$"
    for response in (freq_response, gram_response):
        with pytest.raises(ValueError, match=message):
            response(taps, params)
    with pytest.raises(ValueError, match="3-d"):
        gram_response(taps[0], params)


def test_per_subcarrier_multiplicative_model():
    # after modulate -> convolve -> demodulate, each subcarrier sees H(k)X(k)
    rng = np.random.default_rng(9)
    params = OfdmParams(n_sub=64, cp_len=8)
    taps = generate_channel(2, 2, 2, rng)
    grid = rng.normal(size=(2, 64)) + 1j * rng.normal(size=(2, 64))
    rx = apply_channel(ofdm_modulate(grid, params), taps, 0.0)
    rx_grid = ofdm_demodulate(rx[:, :params.n_sub + params.cp_len], params)
    hk = freq_response(taps, params)
    expected = np.einsum("kmn,nk->mk", hk, grid)
    assert np.max(np.abs(rx_grid - expected)) < 1e-10
