"""Frequency-selective Rayleigh MIMO channel with additive white Gaussian noise.

Each transmit-receive antenna pair carries p sample-spaced taps drawn i.i.d.
circularly-symmetric complex Gaussian with variance 1/p (unit total power per
pair).  Block fading: one realization is drawn per OFDM symbol and held for
its duration.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .cck import require_count
from .ofdm import OfdmParams


def _taps_shape(taps: np.ndarray) -> tuple[int, int, int]:
    """(n_rx, n_tx, p) of a tap array, which must be 3-d."""
    if np.ndim(taps) != 3:
        raise ValueError(f"taps must be 3-d (n_rx, n_tx, p), got {np.shape(taps)}")
    return np.shape(taps)


def generate_channel(n_tx: int, n_rx: int, p: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. CN(0, 1/p) taps for every antenna pair, shape (n_rx, n_tx, p)."""
    require_count("transmit antenna count", n_tx)
    require_count("receive antenna count", n_rx)
    require_count("tap count", p)
    scale = math.sqrt(0.5 / p)
    return scale * (rng.standard_normal((n_rx, n_tx, p))
                    + 1j * rng.standard_normal((n_rx, n_tx, p)))


def apply_channel(tx_samples: np.ndarray, taps: np.ndarray,
                  noise_variance: float,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Convolve antenna streams with the channel taps and add receiver noise.

    tx_samples (n_tx, T) and taps (n_rx, n_tx, p) give (n_rx, T + p - 1): each
    receive stream sums the linear convolutions over transmit antennas.
    noise_variance is the total variance N0 per complex sample, an int, float
    or numpy real that is not a bool; the noise is
    sqrt(N0/2) * (randn + j*randn) per sample, independent across antennas.
    """
    n_rx, n_tx, p = _taps_shape(taps)
    tx_samples = np.asarray(tx_samples)
    if tx_samples.ndim != 2 or tx_samples.shape[0] != n_tx:
        raise ValueError(
            f"tx samples shape {tx_samples.shape} does not match "
            f"{n_tx} transmit antennas"
        )
    if isinstance(noise_variance, bool) or not isinstance(
            noise_variance, (int, float, np.integer, np.floating)):
        raise ValueError(f"noise variance must be a real number, got {noise_variance!r}")
    try:  # a float32 compared with a float bound rounds it to inf; a huge int overflows
        finite = 0 <= float(noise_variance) < math.inf
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"noise variance must be finite and >= 0, got {noise_variance}")
    t = tx_samples.shape[1]
    out = np.zeros((n_rx, t + p - 1), dtype=np.complex128)
    for i in range(p):
        out[:, i:i + t] += taps[:, :, i] @ tx_samples
    if noise_variance > 0:
        if rng is None:
            raise ValueError("noise requires an rng")
        sigma = math.sqrt(noise_variance / 2.0)
        # in place, real then imaginary part: the values of
        # out += sigma * (a + 1j*b) without its three complex temporaries
        out.real += sigma * rng.standard_normal(out.shape)
        out.imag += sigma * rng.standard_normal(out.shape)
    return out


@functools.lru_cache(maxsize=None)
def _twiddles(params: OfdmParams, p: int) -> np.ndarray:
    """[Re w, Im w] of w[k, i] = exp(-2j*pi*k*i / n_sub), shape (n_sub, 2p),
    read-only.  Requires p <= cp_len + 1 so the cyclic prefix absorbs the
    delay spread.

    A product with w runs as one real product on interleaved real and
    imaginary columns: the complex product was about 25% slower at 8x16
    (frequency response 232 against 186 us, Gram 157 against 123 us).
    """
    if p > params.cp_len + 1:
        raise ValueError(
            f"{p} taps exceed cyclic prefix length {params.cp_len} + 1"
        )
    w = np.exp(-2j * np.pi * np.outer(np.arange(params.n_sub), np.arange(p)) / params.n_sub)
    table = np.concatenate([w.real, w.imag], axis=1)
    table.flags.writeable = False
    return table


def freq_response(taps: np.ndarray, params: OfdmParams) -> np.ndarray:
    """Per-subcarrier channel matrices, shape (n_sub, n_rx, n_tx).

    H(k)[m, n] = sum_i taps[m, n, i] * exp(-2j*pi*k*i / n_sub).  Requires
    p <= cp_len + 1 so the cyclic prefix absorbs the delay spread.
    """
    n_rx, n_tx, p = _taps_shape(taps)
    twiddles = _twiddles(params, p)
    # w @ x for the (p, n_rx*n_tx) taps x is [Re w, Im w] @ [x; j*x]
    x = np.empty((2 * p, n_rx * n_tx), dtype=np.complex128)
    x[:p] = np.reshape(taps, (-1, p)).T
    x[p:] = 1j * x[:p]
    h = twiddles @ x.view(np.float64)
    return h.view(np.complex128).reshape(params.n_sub, n_rx, n_tx)


def gram_response(taps: np.ndarray, params: OfdmParams) -> np.ndarray:
    """Per-subcarrier Gram matrices H(k)^H H(k), shape (n_sub, n_tx, n_tx).

    With T_i = taps[:, :, i] and the lag products R_d = sum_i T_i^H T_(i+d),
    H(k)^H H(k) = sum_d w^(kd) R_d over d = -(p-1)..p-1, w = exp(-2j*pi/n_sub),
    and R_(-d) = R_d^H.  Pairing d with -d gives
    sum_d Re w^(kd) (R_d + R_d^H) + Im w^(kd) j(R_d - R_d^H) over d = 0..p-1
    with R_0 halved: one small GEMM for the p^2 products and one with the
    twiddles of freq_response, instead of one product per subcarrier.  Taps
    are checked as freq_response checks them.
    """
    n_rx, n_tx, p = _taps_shape(taps)
    twiddles = _twiddles(params, p)
    # blocks[i, :, j, :] = T_i^H T_j
    stacked = np.swapaxes(taps, 1, 2).reshape(n_rx, p * n_tx)
    blocks = (stacked.conj().T @ stacked).reshape(p, n_tx, p, n_tx)
    lags = np.stack([np.diagonal(blocks, d, 0, 2).sum(axis=-1) for d in range(p)])
    lags[0] /= 2
    lags_h = np.conj(np.swapaxes(lags, 1, 2))
    x = np.concatenate([lags + lags_h, 1j * (lags - lags_h)]).reshape(2 * p, -1)
    g = twiddles @ x.view(np.float64)
    return g.view(np.complex128).reshape(params.n_sub, n_tx, n_tx)
