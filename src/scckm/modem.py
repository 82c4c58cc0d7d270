"""Transmit mapping, zero-forcing equalization and ML detection per subcarrier.

Both schemes send one row of a unit-energy transmit table per subcarrier;
the bits, read as a number with the first bit most significant, pick the row.
SCCKM's table is its codebook scaled by 1/sqrt(N_t), one chip per transmit
antenna.  SM's table holds each constellation point on each single antenna:
the leading log2(N_t) bits pick the antenna (natural binary), the rest pick a
unit-energy point (Gray labeled).  Zero forcing solves the normal equations
of every subcarrier in one batch through their Cholesky factors; when the
batched factorization fails or any subcarrier's Gram matrix is
ill-conditioned, the whole symbol goes through the pseudo-inverse instead.
Detection is one exhaustive minimum squared Euclidean distance search over
the table rows, the same GEMM for both schemes: every table's rows have one
energy, so the closest row is the one with the highest Re(z c^H).
Ties resolve to the lowest row: the lowest codeword index, or the lowest
antenna and then the lowest point label.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .cck import Codebook, pack_bits, require_count, unpack_bits

BPSK = np.array([1.0, -1.0], dtype=np.complex128)
# Gray labeling: first bit flips the real sign, second bit the imaginary sign
QAM4 = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / math.sqrt(2)

CONSTELLATIONS = {"bpsk": BPSK, "4qam": QAM4}

ZF_RCOND = 1e-10


class Detection(NamedTuple):
    """Per subcarrier: the detected table row, and its bits (m, n_sub), first row MSB."""

    indices: np.ndarray
    bits: np.ndarray


def _check_bits(bits: np.ndarray, rows: int) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[0] != rows:
        raise ValueError(f"bit matrix must have {rows} rows, got shape {bits.shape}")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError("bit matrix entries must be 0 or 1")
    return bits


def scck_table(codebook: Codebook) -> np.ndarray:
    """Transmit table of a codebook: row i is codeword i at unit energy."""
    return np.asarray(codebook.entries, dtype=np.complex128) / math.sqrt(codebook.length_n)


def sm_table(n_tx: int, constellation: str) -> np.ndarray:
    """Transmit table of SM: row a*M + l puts point l on antenna a, so the row
    index is the antenna bits followed by the label bits.  Read-only, and
    built once per checked antenna count and constellation."""
    return _sm_table(require_count("transmit antenna count", n_tx, low=2, power_of_two=True),
                     constellation)


@functools.lru_cache(maxsize=None)
def _sm_table(n_tx: int, constellation: str) -> np.ndarray:
    if constellation not in CONSTELLATIONS:
        raise ValueError(f"unknown constellation {constellation!r}")
    points = CONSTELLATIONS[constellation]
    table = np.zeros((n_tx, len(points), n_tx), dtype=np.complex128)
    antennas = np.arange(n_tx)
    table[antennas, :, antennas] = points
    table = table.reshape(-1, n_tx)
    table.flags.writeable = False
    return table


def _map(bits: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Map an (m, n_sub) bit matrix to the (n_tx, n_sub) grid of table rows."""
    bits = _check_bits(bits, len(table).bit_length() - 1)
    return table[pack_bits(bits)].T


def scck_map(bits: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Map an (m, n_sub) bit matrix to an (N_t, n_sub) symbol grid."""
    return _map(bits, scck_table(codebook))


def sm_map(bits: np.ndarray, n_tx: int, constellation: str) -> np.ndarray:
    """Map bits to a single active antenna plus constellation point per column."""
    return _map(bits, sm_table(n_tx, constellation))


def zf_equalize(received: np.ndarray, h_k: np.ndarray) -> np.ndarray:
    """Least-squares channel inversion for one subcarrier, or a stack of them:
    received (..., n_rx), h_k (..., n_rx, n_tx) -> (..., n_tx).

    Uses the SVD-based pseudo-inverse with relative cutoff ZF_RCOND; a
    rank-deficient matrix is truncated rather than rejected, so the caller
    always gets the least-squares solution.
    """
    h_k = np.asarray(h_k)
    if h_k.shape[-2] < h_k.shape[-1]:
        raise ValueError(f"need n_rx >= n_tx, got channel shape {h_k.shape}")
    return (np.linalg.pinv(h_k, rcond=ZF_RCOND) @ np.asarray(received)[..., None])[..., 0]


def zf_equalize_grid(received: np.ndarray, hk: np.ndarray,
                     gram: np.ndarray | None = None) -> np.ndarray:
    """Batched ZF: received (n_sub, n_rx), hk (n_sub, n_rx, n_tx) -> (n_sub, n_tx).

    Solves the normal equations (H^H H) x = H^H y on every subcarrier in one
    batch through their Cholesky factors.  gram, the (n_sub, n_tx, n_tx)
    stack of H^H H, is factored when given (channel.gram_response builds it
    from the taps without a product per subcarrier); otherwise it is formed
    from hk.  When numpy rejects the batched factorization, or any
    subcarrier's smallest pivot |L_ii|^2 is below ZF_RCOND times its largest,
    the whole symbol goes through the pseudo-inverse of zf_equalize instead,
    so a rank-deficient channel still gets the truncated least-squares answer.
    """
    received = np.asarray(received)
    n_sub, n_rx, n_tx = hk.shape
    if n_rx < n_tx:
        raise ValueError(f"need n_rx >= n_tx, got channel shape {hk.shape[1:]}")
    if gram is not None and gram.shape != (n_sub, n_tx, n_tx):
        raise ValueError(f"gram shape {gram.shape} does not match channel shape {hk.shape}")
    try:
        factor = np.linalg.cholesky(np.conj(np.swapaxes(hk, 1, 2)) @ hk if gram is None
                                    else gram)
    except np.linalg.LinAlgError:
        return zf_equalize(received, hk)
    # L L^H x = H^H y: forward then back substitution, one row of the factor
    # at a time, on (n_tx, n_tx, n_sub) and (n_tx, n_sub) copies so that each
    # step runs over contiguous subcarriers
    factor = np.ascontiguousarray(np.moveaxis(factor, 0, 2))
    diagonal = np.diagonal(factor).T  # (n_tx, n_sub), each row contiguous
    pivots = diagonal.real ** 2
    if (pivots.min(axis=0) < ZF_RCOND * pivots.max(axis=0)).any():
        return zf_equalize(received, hk)
    # H^H y as conj(y^H H): the same products, without a conjugate copy of hk
    equalized = np.conj((np.conj(received)[:, None, :] @ hk)[:, 0].T, order="C")
    for i in range(n_tx):
        equalized[i] /= diagonal[i]
        equalized[i + 1:] -= factor[i + 1:, i] * equalized[i]
    for i in reversed(range(n_tx)):
        equalized[i] /= diagonal[i]
        equalized[:i] -= factor[i, :i].conj() * equalized[i]
    return equalized.T


def _ml_search(equalized: np.ndarray, table: np.ndarray) -> Detection:
    """The closest table row to each row of an (n_sub, n_tx) grid, and its bits.

    ||z - c||^2 = ||z||^2 - 2 Re(z c^H) + ||c||^2, and every table's rows have
    one energy, so the closest row is the one with the highest Re(z c^H): one
    real product over the interleaved real and imaginary parts.  argmax takes
    the first maximum, so ties resolve to the lowest row.  A table whose rows
    differ in energy needs the -||c||^2 term back.
    """
    z = np.ascontiguousarray(equalized, dtype=np.complex128)
    if z.ndim != 2 or z.shape[1] != table.shape[1]:
        raise ValueError(
            f"equalized grid must be (n_sub, {table.shape[1]}), got {z.shape}")
    indices = np.argmax(z.view(np.float64) @ table.view(np.float64).T, axis=1)
    return Detection(indices=indices, bits=unpack_bits(indices, len(table).bit_length() - 1))


def ml_detect_scck_grid(equalized: np.ndarray, codebook: Codebook) -> Detection:
    """Closest power-normalized codeword per row of an (n_sub, N_t) grid."""
    return _ml_search(equalized, scck_table(codebook))


def ml_detect_sm_equalized_grid(equalized: np.ndarray, n_tx: int,
                                constellation: str) -> Detection:
    """SM detection on the equalized grid: argmin ||z - s*e_a||^2.

    equalized is (n_sub, n_tx), one zero-forced stream per transmit antenna.
    The hypotheses are the rows of the SM transmit table, antenna-major (row
    antenna * M + label for M points), so ties resolve to the lower antenna,
    then the lower point label.
    """
    return _ml_search(equalized, sm_table(n_tx, constellation))
