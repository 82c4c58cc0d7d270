"""OFDM modulator/demodulator: unitary transforms and cyclic prefix handling."""

import numpy as np
import pytest

from scckm.ofdm import OfdmParams, ofdm_demodulate, ofdm_modulate


def test_round_trip_identity():
    params = OfdmParams(n_sub=256, cp_len=16)
    rng = np.random.default_rng(1)
    grid = rng.normal(size=256) + 1j * rng.normal(size=256)
    out = ofdm_demodulate(ofdm_modulate(grid, params), params)
    assert np.max(np.abs(out - grid)) < 1e-12


@pytest.mark.parametrize("field,value,name", [
    ("n_sub", 32.0, "subcarrier count"),
    ("cp_len", 2.5, "cyclic prefix length"),
    ("cp_len", False, "cyclic prefix length"),  # bool is a subclass of int
])
def test_params_reject_non_integer_sizes(field, value, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        OfdmParams(**{field: value})


def test_output_length_includes_prefix():
    params = OfdmParams(n_sub=64, cp_len=8)
    samples = ofdm_modulate(np.ones(64, dtype=complex), params)
    assert samples.shape == (72,)


def test_prefix_copies_tail():
    params = OfdmParams(n_sub=64, cp_len=8)
    rng = np.random.default_rng(2)
    samples = ofdm_modulate(rng.normal(size=64) + 0j, params)
    assert np.array_equal(samples[:8], samples[-8:])


def test_unitary_scaling_known_vector():
    # flat grid of ones concentrates on the first time sample with gain sqrt(n)*...
    params = OfdmParams(n_sub=4, cp_len=1)
    samples = ofdm_modulate(np.ones(4, dtype=complex), params)
    assert np.allclose(samples, [0, 2, 0, 0, 0], atol=1e-12)


def test_energy_preserved_without_prefix():
    params = OfdmParams(n_sub=128, cp_len=0)
    rng = np.random.default_rng(3)
    grid = rng.normal(size=128) + 1j * rng.normal(size=128)
    samples = ofdm_modulate(grid, params)
    assert abs(np.sum(np.abs(samples) ** 2) - np.sum(np.abs(grid) ** 2)) < 1e-9


def test_grid_batch_shapes():
    params = OfdmParams(n_sub=32, cp_len=4)
    rng = np.random.default_rng(4)
    grid = rng.normal(size=(3, 32)) + 1j * rng.normal(size=(3, 32))
    tx = ofdm_modulate(grid, params)
    assert tx.shape == (3, 36)
    back = ofdm_demodulate(tx, params)
    assert np.max(np.abs(back - grid)) < 1e-12


@pytest.mark.parametrize("n_sub,cp", [(0, 0), (100, 4), (64, 64), (64, -1)])
def test_invalid_params(n_sub, cp):
    with pytest.raises(ValueError):
        OfdmParams(n_sub=n_sub, cp_len=cp)


def test_default_params():
    params = OfdmParams()
    assert params.n_sub == 256
    assert params.cp_len == 16
