"""Complementary-code-keying codebooks of lengths 2, 4 and 8.

Codewords are polyphase: every chip is a unit-magnitude complex exponential
whose phase is a sum of per-bit-group phases.  One rule, _cck_chips, builds
all three lengths from integer phase indices, exact unit-root lookup tables
and the signs of the first Golay sequence, so chips that are mathematically
integers (or Gaussian integers) come out bit-exact.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

SQRT3_2 = math.sqrt(3.0) / 2.0

# e^{j*pi*n}, e^{j*2pi*n/3}, e^{j*pi*n/2} for integer n
_HALF_UNITS = np.array([1.0, -1.0], dtype=np.complex128)
_THIRD_UNITS = np.array(
    [1.0, complex(-0.5, SQRT3_2), complex(-0.5, -SQRT3_2)], dtype=np.complex128
)
_QUARTER_UNITS = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)

# 2-bit group -> phase in units of pi/2: 00 -> 0, 01 -> pi, 10 -> pi/2, 11 -> -pi/2
_GROUP_QUARTER_PHASE = np.array([[0, 2], [1, 3]])


@dataclass(frozen=True)
class Codebook:
    """An ordered codeword set plus the bit-pattern bijection.

    Entry i encodes the bit pattern whose natural-binary value is i
    (first written bit = most significant).  entries has shape
    (2**bits_per_codeword, length_n).
    """

    length_n: int
    bits_per_codeword: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        expected = 2 ** self.bits_per_codeword
        if self.entries.shape != (expected, self.length_n):
            raise ValueError(
                f"codebook shape {self.entries.shape} does not match "
                f"({expected}, {self.length_n})"
            )
        self.entries.setflags(write=False)

    def __len__(self):
        return self.entries.shape[0]

    def bit_pattern(self, index: int) -> str:
        return format(index, f"0{self.bits_per_codeword}b")


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Collapse a (m, n) bit matrix to n codeword indices, first row = MSB."""
    bits = np.asarray(bits)
    m = bits.shape[0]
    weights = 2 ** np.arange(m - 1, -1, -1, dtype=np.int64)
    return weights @ bits.astype(np.int64)


def unpack_bits(indices: np.ndarray, m: int) -> np.ndarray:
    """Inverse of pack_bits: n indices to a (m, n) bit matrix."""
    indices = np.asarray(indices, dtype=np.int64)
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    return ((indices[None, :] >> shifts[:, None]) & 1).astype(np.uint8)


def golay_pair(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Complementary pair of length 2**(k-1) with +/-1 integer elements.

    Built by the concatenation recursion A_k = A_{k-1} B_{k-1},
    B_k = A_{k-1} (-B_{k-1}) from the kernel A_1 = B_1 = (+1,).  The sum of
    the pair's aperiodic autocorrelations is zero at every non-zero shift.
    """
    if k < 1:
        raise ValueError(f"recursion depth must be >= 1, got {k}")
    a = np.array([1], dtype=np.int64)
    b = np.array([1], dtype=np.int64)
    for _ in range(k - 1):
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return a, b


def _cck_chips(phases: np.ndarray, units: np.ndarray) -> np.ndarray:
    """Length-N codewords, N = 2**(k-1), from (rows, k) phase indices.

    Chip j is units[(phi1 + sum_i phi_{i+2} * bit_i(N-1-j)) mod M] with M =
    len(units), negated where the first sequence of golay_pair(k) is -1.
    """
    phases = np.asarray(phases, dtype=np.int64)
    k = phases.shape[1]
    n = 2 ** (k - 1)
    # row i holds bit i of N-1-j for every chip j
    selects = unpack_bits(np.arange(n - 1, -1, -1), k - 1)[::-1]
    chips = units[(phases[:, 0:1] + phases[:, 1:] @ selects) % len(units)]
    negated = golay_pair(k)[0] < 0
    # unary minus, unlike * -1, turns a zero imaginary part into -0.0
    chips[:, negated] = -chips[:, negated]
    return chips


def cck2_codebook() -> Codebook:
    """Four 2-bit codewords (e^{j(phi1+phi2)}, e^{j phi1}), bit 1 -> phase pi."""
    phases = unpack_bits(np.arange(4), 2).T  # first written bit -> phi1
    return Codebook(length_n=2, bits_per_codeword=2,
                    entries=_cck_chips(phases, _HALF_UNITS))


def cck4_enumerate() -> np.ndarray:
    """All 27 length-4 codewords, phase triples in lexicographic order."""
    return _cck_chips(np.array(list(product(range(3), repeat=3))), _THIRD_UNITS)


# Phase triples (units of 2pi/3) of the fixed 16-row reference matrix, row order
# = bit patterns 0000..1111.
_CCK4_REFERENCE_TRIPLES = np.array(
    [
        (0, 0, 0), (0, 2, 1), (0, 0, 1), (0, 0, 2),
        (0, 2, 0), (0, 1, 1), (0, 2, 2), (1, 1, 1),
        (1, 0, 2), (1, 1, 2), (1, 1, 0), (1, 0, 0),
        (2, 1, 0), (2, 2, 0), (2, 2, 1), (2, 1, 1),
    ]
)


def cck4_reference_codebook() -> Codebook:
    """The fixed sub-optimum 16-entry 4-bit codebook."""
    entries = _cck_chips(_CCK4_REFERENCE_TRIPLES, _THIRD_UNITS)
    return Codebook(length_n=4, bits_per_codeword=4, entries=entries)


def _sq_distances(entries: np.ndarray) -> np.ndarray:
    """Squared chip-wise distances between every pair of rows, (rows, rows)."""
    diff = entries[:, None, :] - entries[None, :, :]
    return np.sum(np.abs(diff) ** 2, axis=-1)


def min_distance(codebook: Codebook) -> float:
    """Minimum chip-wise Euclidean distance over all unordered codeword pairs."""
    if len(codebook) < 2:
        raise ValueError("min distance needs at least 2 codewords")
    d2 = _sq_distances(codebook.entries)
    return float(np.sqrt(np.min(d2[np.triu_indices(len(d2), k=1)])))


def dmin_closed_form(n: int, m: int) -> float:
    """sqrt(N/2) * |1 - e^{j*2pi/M}| for codeword length N, phase alphabet M."""
    if not isinstance(n, (int, np.integer)) or n < 2 or n & (n - 1):
        raise ValueError(f"codeword length must be a power of two >= 2, got {n}")
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"phase alphabet size must be an integer >= 2, got {m}")
    return math.sqrt(n / 2.0) * abs(1.0 - complex(math.cos(2 * math.pi / m),
                                                  math.sin(2 * math.pi / m)))


def select_min_distance_subset(candidates: np.ndarray, subset_size: int,
                               num_random_subsets: int,
                               rng: np.random.Generator):
    """Three-stage subset search over candidate codewords.

    Stage 1 draws min(num_random_subsets, C(n, subset_size)) distinct subsets
    uniformly, so asking for at least C(n, subset_size) draws every subset.
    Stage 2 keeps the subsets maximizing the minimum pairwise chip distance;
    stage 3 keeps those with the fewest pairs at that minimum.  Remaining ties
    break to the lexicographically smallest sorted index tuple.  Returns the
    index tuple.
    """
    candidates = np.asarray(candidates)
    n = len(candidates)
    if not isinstance(subset_size, (int, np.integer)) or not 2 <= subset_size <= n:
        raise ValueError(f"subset size {subset_size} out of range for {n} candidates")
    if not isinstance(num_random_subsets, (int, np.integer)) or num_random_subsets < 1:
        raise ValueError(
            f"number of random subsets must be an integer >= 1, got {num_random_subsets}")

    # squared distances, quantized so symbolically equal values compare equal
    d2 = np.round(_sq_distances(candidates), 9)

    target = min(num_random_subsets, math.comb(n, subset_size))
    seen = set()
    while len(seen) < target:
        seen.add(tuple(sorted(rng.choice(n, size=subset_size, replace=False))))
    subsets = np.array(sorted(seen), dtype=np.intp)

    pair_i, pair_j = np.triu_indices(subset_size, k=1)
    sub = d2[subsets[:, pair_i], subsets[:, pair_j]]  # (subsets, pairs)
    dmin = sub.min(axis=1)
    counts = np.count_nonzero(sub == dmin[:, None], axis=1)
    # largest minimum first, then fewest pairs at it; the stable sort keeps
    # the sorted subset order among the rest
    best = np.lexsort((counts, -dmin))[0]
    return tuple(int(v) for v in subsets[best])


def select_cck4_subset(candidates: np.ndarray, num_random_subsets: int,
                       rng: np.random.Generator) -> Codebook:
    """Randomized search for a 16-of-27 subset maximizing minimum distance."""
    candidates = np.asarray(candidates)
    idx = select_min_distance_subset(candidates, 16, num_random_subsets, rng)
    return Codebook(length_n=4, bits_per_codeword=4,
                    entries=candidates[list(idx)].copy())


def cck8_codeword(byte: str) -> np.ndarray:
    """Length-8 codeword for an 8-bit string: row int(byte, 2) of cck8_codebook.

    The written string splits into four consecutive 2-bit groups left to
    right, giving (phi1..phi4) via 00 -> 0, 01 -> pi, 10 -> pi/2, 11 -> -pi/2.
    Chips follow (e^{j(p1+p2+p3+p4)}, e^{j(p1+p3+p4)}, e^{j(p1+p2+p4)},
    -e^{j(p1+p4)}, e^{j(p1+p2+p3)}, e^{j(p1+p3)}, -e^{j(p1+p2)}, e^{j p1}).
    """
    if len(byte) != 8 or set(byte) - {"0", "1"}:
        raise ValueError(f"expected an 8-bit string, got {byte!r}")
    return cck8_codebook().entries[int(byte, 2)].copy()


def cck8_codebook() -> Codebook:
    """All 256 length-8 codewords indexed by byte value."""
    bits = unpack_bits(np.arange(256), 8).T  # (256, 8)
    phases = _GROUP_QUARTER_PHASE[bits[:, 0::2], bits[:, 1::2]]
    return Codebook(length_n=8, bits_per_codeword=8,
                    entries=_cck_chips(phases, _QUARTER_UNITS))


@contextlib.contextmanager
def open_text(target, mode: str):
    """Yield target itself if it is a file object, else open it as a UTF-8 path."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield target


def export_codebook_csv(codebook: Codebook, destination) -> None:
    """Write a codebook as CSV: index, bit_pattern, then chip re/im columns."""
    with open_text(destination, "w") as fh:
        chip_cols = ",".join(
            f"chip_{j}_re,chip_{j}_im" for j in range(codebook.length_n)
        )
        fh.write(f"index,bit_pattern,{chip_cols}\n")
        for i, row in enumerate(codebook.entries):
            chips = ",".join(f"{float(c.real)!r},{float(c.imag)!r}" for c in row)
            fh.write(f"{i},{codebook.bit_pattern(i)},{chips}\n")
