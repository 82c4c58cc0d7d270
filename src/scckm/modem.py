"""Transmit mapping, zero-forcing equalization and ML detection per subcarrier.

SCCKM places one codeword per subcarrier with its N chips spread across N
transmit antennas, scaled by 1/sqrt(N_t) so total transmit energy per
subcarrier is 1.  SM activates a single antenna per subcarrier: the leading
log2(N_t) bits pick the antenna (natural binary), the rest pick a unit-energy
constellation point (Gray labeled).  Zero forcing solves the normal
equations of every subcarrier in one batch and falls back to the
pseudo-inverse where the Gram matrix is ill-conditioned.  Detection is
exhaustive minimum squared Euclidean distance with ties resolved to the
lowest index.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cck import Codebook, pack_bits, unpack_bits

BPSK = np.array([1.0, -1.0], dtype=np.complex128)
# Gray labeling: first bit flips the real sign, second bit the imaginary sign
QAM4 = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / math.sqrt(2)

CONSTELLATIONS = {"bpsk": BPSK, "4qam": QAM4}

ZF_RCOND = 1e-10


class ScckDetection(NamedTuple):
    indices: np.ndarray
    bits: np.ndarray
    distances: np.ndarray


class SmDetection(NamedTuple):
    antennas: np.ndarray
    labels: np.ndarray
    bits: np.ndarray
    distances: np.ndarray


def _check_bits(bits: np.ndarray, rows: int) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[0] != rows:
        raise ValueError(f"bit matrix must have {rows} rows, got shape {bits.shape}")
    if not np.isin(bits, (0, 1)).all():
        raise ValueError("bit matrix entries must be 0 or 1")
    return bits


def _constellation(name) -> np.ndarray:
    if isinstance(name, str):
        try:
            return CONSTELLATIONS[name.lower()]
        except KeyError:
            raise ValueError(f"unknown constellation {name!r}") from None
    return np.asarray(name, dtype=np.complex128)


def scck_map(bits: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Map an (m, n_sub) bit matrix to an (N_t, n_sub) symbol grid."""
    bits = _check_bits(bits, codebook.bits_per_codeword)
    indices = pack_bits(bits)
    return codebook.entries[indices].T / math.sqrt(codebook.length_n)


def sm_map(bits: np.ndarray, n_tx: int, constellation) -> np.ndarray:
    """Map bits to a single active antenna plus constellation point per column."""
    n_tx = int(n_tx)
    if n_tx < 2 or n_tx & (n_tx - 1):
        raise ValueError(f"transmit antenna count must be a power of two >= 2, got {n_tx}")
    points = _constellation(constellation)
    ant_bits = n_tx.bit_length() - 1
    sym_bits = len(points).bit_length() - 1
    bits = _check_bits(bits, ant_bits + sym_bits)
    antennas = pack_bits(bits[:ant_bits])
    labels = pack_bits(bits[ant_bits:])
    n_sub = bits.shape[1]
    grid = np.zeros((n_tx, n_sub), dtype=np.complex128)
    grid[antennas, np.arange(n_sub)] = points[labels]
    return grid


def zf_equalize(received: np.ndarray, h_k: np.ndarray) -> np.ndarray:
    """Least-squares channel inversion for one subcarrier.

    Uses the SVD-based pseudo-inverse with relative cutoff ZF_RCOND; a
    rank-deficient matrix is truncated rather than rejected, so the caller
    always gets the least-squares solution.
    """
    h_k = np.asarray(h_k)
    if h_k.shape[0] < h_k.shape[1]:
        raise ValueError(f"need n_rx >= n_tx, got channel shape {h_k.shape}")
    return np.linalg.pinv(h_k, rcond=ZF_RCOND) @ np.asarray(received)


def _ill_conditioned(gram: np.ndarray) -> np.ndarray:
    """Flag each Gram matrix of a stack whose Cholesky factorization fails or
    whose smallest pivot |L_ii|^2 is below ZF_RCOND times its largest."""
    try:
        factor = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        # numpy rejects the whole stack, so find the failures one at a time
        if len(gram) == 1:
            return np.ones(1, dtype=bool)
        return np.concatenate([_ill_conditioned(g[None]) for g in gram])
    pivots = np.diagonal(factor, axis1=1, axis2=2).real ** 2
    return pivots.min(axis=1) < ZF_RCOND * pivots.max(axis=1)


def zf_equalize_grid(received: np.ndarray, hk: np.ndarray) -> np.ndarray:
    """Batched ZF: received (n_sub, n_rx), hk (n_sub, n_rx, n_tx) -> (n_sub, n_tx).

    Solves the normal equations (H^H H) x = H^H y on every subcarrier in one
    batch.  A subcarrier whose Gram matrix fails the Cholesky test of
    _ill_conditioned goes through the pseudo-inverse of zf_equalize instead,
    so a rank-deficient channel still gets the truncated least-squares answer.
    """
    received = np.asarray(received)
    if hk.shape[1] < hk.shape[2]:
        raise ValueError(f"need n_rx >= n_tx, got channel shape {hk.shape[1:]}")
    hk_h = np.conj(np.swapaxes(hk, 1, 2))
    gram = hk_h @ hk
    rhs = hk_h @ received[:, :, None]
    bad = _ill_conditioned(gram)
    gram[bad] = np.eye(hk.shape[2])  # placeholder, so the batched solve cannot fail
    equalized = np.linalg.solve(gram, rhs)[:, :, 0]
    if bad.any():
        pinv = np.linalg.pinv(hk[bad], rcond=ZF_RCOND)
        equalized[bad] = np.einsum("kij,kj->ki", pinv, received[bad])
    return equalized


def ml_detect_scck_grid(equalized: np.ndarray, codebook: Codebook) -> ScckDetection:
    """Closest power-normalized codeword per row of an (n_sub, N_t) grid.

    ||z - c||^2 = ||z||^2 - score with score = 2 Re(z c^H) - ||c||^2, so the
    search is one real GEMM over the interleaved real/imaginary parts.  argmax
    takes the first maximum, so ties resolve to the lowest codeword index.
    """
    normalized = (np.asarray(codebook.entries, dtype=np.complex128)
                  / math.sqrt(codebook.length_n))
    z = np.ascontiguousarray(equalized, dtype=np.complex128)
    # Re(z c^H) as a dot product of the float64 views, doubled exactly
    twice = 2.0 * normalized.view(np.float64)
    score = z.view(np.float64) @ twice.T
    score -= np.sum(np.abs(normalized) ** 2, axis=1)
    indices = np.argmax(score, axis=1)
    bits = unpack_bits(indices, codebook.bits_per_codeword)
    offset = np.sum(np.abs(z) ** 2, axis=1)
    return ScckDetection(indices=indices, bits=bits,
                         distances=offset - score[np.arange(len(indices)), indices])


def ml_detect_sm_equalized_grid(equalized: np.ndarray, n_tx: int,
                                constellation) -> SmDetection:
    """SM detection on the equalized grid: argmin ||z - s*e_a||^2.

    equalized is (n_sub, n_tx), one zero-forced stream per transmit antenna.
    The hypothesis for (antenna a, point s) puts s on stream a and zero on the
    rest, so only |z_a - s|^2 - |z_a|^2 varies across hypotheses.  Reported
    distances are the full squared distances ||z - s*e_a||^2.  The BER harness
    uses this detector so both schemes share one equalize-then-detect chain.
    """
    equalized = np.asarray(equalized)
    if equalized.ndim != 2 or equalized.shape[1] != n_tx:
        raise ValueError(
            f"equalized grid must be (n_sub, {n_tx}), got {equalized.shape}")
    points = _constellation(constellation)
    # |z_a - s|^2 - |z_a|^2 per (subcarrier, antenna, point), antenna-major so
    # ties resolve to the lower antenna, then the lower point label
    dr = equalized.real[:, :, None] - points.real[None, None, :]
    di = equalized.imag[:, :, None] - points.imag[None, None, :]
    zp = equalized.real * equalized.real + equalized.imag * equalized.imag
    metric = ((dr * dr + di * di) - zp[:, :, None]).reshape(len(equalized), -1)
    best = np.argmin(metric, axis=1)
    ant, labels = best // len(points), best % len(points)
    offset = np.sum(np.abs(equalized) ** 2, axis=1)
    ant_bits = int(n_tx).bit_length() - 1
    sym_bits = len(points).bit_length() - 1
    bits = np.vstack([unpack_bits(ant, ant_bits), unpack_bits(labels, sym_bits)])
    return SmDetection(antennas=ant, labels=labels, bits=bits,
                       distances=metric[np.arange(len(best)), best] + offset)
