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
the table rows, the same blocked GEMM for both schemes, with ties resolved to
the lowest row: the lowest codeword index, or the lowest antenna and then the
lowest point label.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .cck import Codebook, pack_bits, require_count, unpack_bits

BPSK = np.array([1.0, -1.0], dtype=np.complex128)
# Gray labeling: first bit flips the real sign, second bit the imaginary sign
QAM4 = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / math.sqrt(2)

CONSTELLATIONS = {"bpsk": BPSK, "4qam": QAM4}

ZF_RCOND = 1e-10

# the largest real GEMM, in M*N*K multiply-adds, that OpenBLAS runs on the
# calling thread alone (4 x 65536 in its default build).  Detection searches in blocks of rows that stay within
# it: scck8 8x16 in 64-row blocks (64 x 16 x 256), where one 256-row GEMM woke
# helper threads every call and wrote a fresh 512 KB score every symbol; the
# smaller tables in one block
_ONE_THREAD_GEMM = 4 * 65536


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
    index is the antenna bits followed by the label bits."""
    n_tx = require_count("transmit antenna count", n_tx, low=2, power_of_two=True)
    if constellation not in CONSTELLATIONS:
        raise ValueError(f"unknown constellation {constellation!r}")
    points = CONSTELLATIONS[constellation]
    table = np.zeros((n_tx, len(points), n_tx), dtype=np.complex128)
    antennas = np.arange(n_tx)
    table[antennas, :, antennas] = points
    return table.reshape(-1, n_tx)


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


def zf_equalize_grid(received: np.ndarray, hk: np.ndarray) -> np.ndarray:
    """Batched ZF: received (n_sub, n_rx), hk (n_sub, n_rx, n_tx) -> (n_sub, n_tx).

    Solves the normal equations (H^H H) x = H^H y on every subcarrier in one
    batch through their Cholesky factors.  When numpy rejects the batched
    factorization, or any subcarrier's smallest pivot |L_ii|^2 is below
    ZF_RCOND times its largest, the whole symbol goes through the
    pseudo-inverse of zf_equalize instead, so a rank-deficient channel still
    gets the truncated least-squares answer.
    """
    received = np.asarray(received)
    if hk.shape[1] < hk.shape[2]:
        raise ValueError(f"need n_rx >= n_tx, got channel shape {hk.shape[1:]}")
    hk_h = np.conj(np.swapaxes(hk, 1, 2))
    try:
        factor = np.linalg.cholesky(hk_h @ hk)
    except np.linalg.LinAlgError:
        flagged = True
    else:
        pivots = np.diagonal(factor, axis1=1, axis2=2).real ** 2
        flagged = (pivots.min(axis=1) < ZF_RCOND * pivots.max(axis=1)).any()
    if flagged:
        return zf_equalize(received, hk)
    # L L^H x = H^H y: forward then back substitution, one column at a time
    # across the whole stack
    equalized = (hk_h @ received[:, :, None])[:, :, 0]
    for i in range(hk.shape[2]):
        equalized[:, i] /= factor[:, i, i]
        equalized[:, i + 1:] -= factor[:, i + 1:, i] * equalized[:, i, None]
    for i in reversed(range(hk.shape[2])):
        equalized[:, i] /= factor[:, i, i]
        equalized[:, :i] -= factor[:, i, :i].conj() * equalized[:, i, None]
    return equalized


def _closest_rows(equalized: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Index of the closest table row to each row of an (n_sub, n_tx) grid.

    ||z - c||^2 = ||z||^2 - score with score = 2 Re(z c^H) - ||c||^2, so the
    closest row scores highest: one real GEMM over the interleaved real and
    imaginary parts, run in blocks of rows small enough for one thread
    (_ONE_THREAD_GEMM) that share one score buffer.  argmax takes the first
    maximum, so ties resolve to the lowest row index.
    """
    z = np.ascontiguousarray(equalized, dtype=np.complex128)
    if z.ndim != 2 or z.shape[1] != table.shape[1]:
        raise ValueError(
            f"equalized grid must be (n_sub, {table.shape[1]}), got {z.shape}")
    # Re(z c^H) as a dot product of the float64 views, doubled exactly
    twice = 2.0 * table.view(np.float64)
    energy = np.sum(np.abs(table) ** 2, axis=1)
    rows = z.view(np.float64)
    indices = np.empty(len(z), dtype=np.intp)
    block_rows = max(1, _ONE_THREAD_GEMM // twice.size)
    score = np.empty((min(len(z), block_rows), len(table)))
    for start in range(0, len(z), block_rows):
        part = slice(start, start + block_rows)
        block = np.matmul(rows[part], twice.T, out=score[:len(rows[part])])
        block -= energy
        indices[part] = np.argmax(block, axis=1)
    return indices


def _ml_search(equalized: np.ndarray, table: np.ndarray) -> Detection:
    # unpack only once _closest_rows has freed its score matrix: unpacking
    # while it lived made scck8 8x16 about 3% slower end to end
    indices = _closest_rows(equalized, table)
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
