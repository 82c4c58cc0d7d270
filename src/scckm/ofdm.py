"""OFDM modulation and demodulation with a cyclic prefix.

Both transforms use unitary normalization (1/sqrt(n_sub) each way) so
frequency-domain symbol energy equals time-domain sample energy, which keeps
the Eb/N0 accounting flat.  Functions act on the last axis, so a whole
antenna-by-subcarrier grid transforms in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OfdmParams:
    n_sub: int = 256
    cp_len: int = 16

    def __post_init__(self):
        if self.n_sub < 1 or self.n_sub & (self.n_sub - 1):
            raise ValueError(f"subcarrier count must be a power of two, got {self.n_sub}")
        if not 0 <= self.cp_len < self.n_sub:
            raise ValueError(
                f"cyclic prefix length must lie in [0, {self.n_sub}), got {self.cp_len}"
            )


def ofdm_modulate(grid_row: np.ndarray, params: OfdmParams) -> np.ndarray:
    """Unitary IDFT of each last-axis row, prepended with its last cp_len samples."""
    grid_row = np.asarray(grid_row)
    if grid_row.shape[-1] != params.n_sub:
        raise ValueError(
            f"expected {params.n_sub} subcarriers, got {grid_row.shape[-1]}"
        )
    time = np.fft.ifft(grid_row, axis=-1) * math.sqrt(params.n_sub)
    if params.cp_len == 0:
        return time
    return np.concatenate([time[..., -params.cp_len:], time], axis=-1)


def ofdm_demodulate(samples: np.ndarray, params: OfdmParams) -> np.ndarray:
    """Drop the cyclic prefix, then unitary DFT of each last-axis row."""
    samples = np.asarray(samples)
    expected = params.n_sub + params.cp_len
    if samples.shape[-1] != expected:
        raise ValueError(f"expected {expected} samples, got {samples.shape[-1]}")
    body = samples[..., params.cp_len:]
    return np.fft.fft(body, axis=-1) / math.sqrt(params.n_sub)
