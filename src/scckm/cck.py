"""Complementary-code-keying codebooks of lengths 2, 4 and 8.

Codewords are polyphase: every chip is a unit-magnitude complex exponential
whose phase is a sum of per-bit-group phases.  All constructions below work on
integer phase indices and exact unit-root lookup tables, so chips that are
mathematically integers (or Gaussian integers) come out bit-exact.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from itertools import combinations, islice

import numpy as np

SQRT3_2 = math.sqrt(3.0) / 2.0

# e^{j*pi*n}, e^{j*2pi*n/3}, e^{j*pi*n/2} for integer n
_HALF_UNITS = np.array([1.0, -1.0], dtype=np.complex128)
_THIRD_UNITS = np.array(
    [1.0, complex(-0.5, SQRT3_2), complex(-0.5, -SQRT3_2)], dtype=np.complex128
)
_QUARTER_UNITS = np.array([1.0, 1.0j, -1.0, -1.0j], dtype=np.complex128)

# 2-bit group -> phase in units of pi/2: 00 -> 0, 01 -> pi, 10 -> pi/2, 11 -> -pi/2
_GROUP_QUARTER_PHASE = {(0, 0): 0, (0, 1): 2, (1, 0): 1, (1, 1): 3}


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


def cck2_codebook() -> Codebook:
    """Four 2-bit codewords (e^{j(phi1+phi2)}, e^{j phi1}), bit 1 -> phase pi."""
    entries = np.empty((4, 2), dtype=np.complex128)
    for idx in range(4):
        b1, b0 = (idx >> 1) & 1, idx & 1  # first written bit -> phi1
        entries[idx, 0] = _HALF_UNITS[(b1 + b0) % 2]
        entries[idx, 1] = _HALF_UNITS[b1]
    return Codebook(length_n=2, bits_per_codeword=2, entries=entries)


def _cck4_from_phase_triples(triples: np.ndarray) -> np.ndarray:
    """Length-4 codewords from phase indices in units of 2pi/3.

    Chips: (e^{j(p1+p2+p3)}, e^{j(p1+p3)}, e^{j(p1+p2)}, -e^{j p1}).
    """
    p1, p2, p3 = triples[:, 0], triples[:, 1], triples[:, 2]
    out = np.empty((len(triples), 4), dtype=np.complex128)
    out[:, 0] = _THIRD_UNITS[(p1 + p2 + p3) % 3]
    out[:, 1] = _THIRD_UNITS[(p1 + p3) % 3]
    out[:, 2] = _THIRD_UNITS[(p1 + p2) % 3]
    out[:, 3] = -_THIRD_UNITS[p1 % 3]
    return out


def cck4_enumerate() -> np.ndarray:
    """All 27 length-4 codewords, phase triples in lexicographic order."""
    grid = np.array(
        [(p1, p2, p3) for p1 in range(3) for p2 in range(3) for p3 in range(3)]
    )
    return _cck4_from_phase_triples(grid)


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
    entries = _cck4_from_phase_triples(_CCK4_REFERENCE_TRIPLES)
    return Codebook(length_n=4, bits_per_codeword=4, entries=entries)


def _pairwise_sq_distances(entries: np.ndarray) -> np.ndarray:
    """Condensed vector of squared chip-wise distances over unordered pairs."""
    diff = entries[:, None, :] - entries[None, :, :]
    d2 = np.sum(np.abs(diff) ** 2, axis=-1)
    iu = np.triu_indices(len(entries), k=1)
    return d2[iu]


def min_distance(codebook: Codebook) -> float:
    """Minimum chip-wise Euclidean distance over all unordered codeword pairs."""
    if len(codebook) < 2:
        raise ValueError("min distance needs at least 2 codewords")
    return float(np.sqrt(np.min(_pairwise_sq_distances(codebook.entries))))


def dmin_closed_form(n: int, m: int) -> float:
    """sqrt(N/2) * |1 - e^{j*2pi/M}| for codeword length N, phase alphabet M."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"codeword length must be a power of two >= 2, got {n}")
    if m < 2:
        raise ValueError(f"phase alphabet size must be >= 2, got {m}")
    return math.sqrt(n / 2.0) * abs(1.0 - complex(math.cos(2 * math.pi / m),
                                                  math.sin(2 * math.pi / m)))


def select_min_distance_subset(candidates: np.ndarray, subset_size: int,
                               num_random_subsets: int | None = None,
                               rng: np.random.Generator | None = None):
    """Three-stage subset search over candidate codewords.

    Stage 1 draws num_random_subsets distinct subsets uniformly (or enumerates
    every subset when num_random_subsets is None).  Stage 2 keeps the subsets
    maximizing the minimum pairwise chip distance; stage 3 keeps those with the
    fewest pairs at that minimum.  Remaining ties break to the
    lexicographically smallest sorted index tuple.  Returns the index tuple.
    """
    candidates = np.asarray(candidates)
    n = len(candidates)
    if subset_size < 2 or subset_size > n:
        raise ValueError(f"subset size {subset_size} out of range for {n} candidates")

    # squared distances, quantized so symbolically equal values compare equal
    diff = candidates[:, None, :] - candidates[None, :, :]
    d2 = np.round(np.sum(np.abs(diff) ** 2, axis=-1), 9)

    if num_random_subsets is None:
        pool = combinations(range(n), subset_size)
    else:
        if num_random_subsets < 1:
            raise ValueError("number of random subsets must be >= 1")
        if rng is None:
            raise ValueError("random sampling requires an rng")
        target = min(num_random_subsets, math.comb(n, subset_size))
        seen = set()
        while len(seen) < target:
            seen.add(tuple(sorted(rng.choice(n, size=subset_size, replace=False))))
        pool = iter(sorted(seen))

    pair_i, pair_j = np.triu_indices(subset_size, k=1)
    best = None  # (min pair d2, count at that min, index tuple)
    while True:
        chunk = np.array(list(islice(pool, 100_000)), dtype=np.intp)
        if chunk.size == 0:
            break
        sub = d2[chunk[:, pair_i], chunk[:, pair_j]]  # (chunk, pairs)
        dmin = sub.min(axis=1)
        counts = np.count_nonzero(sub == dmin[:, None], axis=1)
        top = dmin.max()
        at_top = np.flatnonzero(dmin == top)
        fewest = counts[at_top].min()
        cand = (top, int(fewest),
                min(tuple(int(v) for v in chunk[i])
                    for i in at_top if counts[i] == fewest))
        if best is None:
            best = cand
            continue
        if (cand[0] > best[0]
                or (cand[0] == best[0] and cand[1] < best[1])
                or (cand[0] == best[0] and cand[1] == best[1]
                    and cand[2] < best[2])):
            best = cand
    return best[2]


def select_cck4_subset(candidates: np.ndarray, num_random_subsets: int,
                       rng: np.random.Generator) -> Codebook:
    """Randomized search for a 16-of-27 subset maximizing minimum distance."""
    candidates = np.asarray(candidates)
    if num_random_subsets < 1:
        raise ValueError("number of random subsets must be >= 1")
    idx = select_min_distance_subset(candidates, 16, num_random_subsets, rng)
    return Codebook(length_n=4, bits_per_codeword=4,
                    entries=candidates[list(idx)].copy())


def cck8_codeword(byte: str) -> np.ndarray:
    """Length-8 codeword for an 8-bit string.

    The written string splits into four consecutive 2-bit groups left to
    right, giving (phi1..phi4) via 00 -> 0, 01 -> pi, 10 -> pi/2, 11 -> -pi/2.
    Chips follow (e^{j(p1+p2+p3+p4)}, e^{j(p1+p3+p4)}, e^{j(p1+p2+p4)},
    -e^{j(p1+p4)}, e^{j(p1+p2+p3)}, e^{j(p1+p3)}, -e^{j(p1+p2)}, e^{j p1}).
    """
    if len(byte) != 8 or set(byte) - {"0", "1"}:
        raise ValueError(f"expected an 8-bit string, got {byte!r}")
    groups = [(int(byte[i]), int(byte[i + 1])) for i in range(0, 8, 2)]
    p = [_GROUP_QUARTER_PHASE[g] for g in groups]
    return _cck8_from_quarter_phases(np.array([p]))[0]


def _cck8_from_quarter_phases(phases: np.ndarray) -> np.ndarray:
    p1, p2, p3, p4 = phases[:, 0], phases[:, 1], phases[:, 2], phases[:, 3]
    out = np.empty((len(phases), 8), dtype=np.complex128)
    out[:, 0] = _QUARTER_UNITS[(p1 + p2 + p3 + p4) % 4]
    out[:, 1] = _QUARTER_UNITS[(p1 + p3 + p4) % 4]
    out[:, 2] = _QUARTER_UNITS[(p1 + p2 + p4) % 4]
    out[:, 3] = -_QUARTER_UNITS[(p1 + p4) % 4]
    out[:, 4] = _QUARTER_UNITS[(p1 + p2 + p3) % 4]
    out[:, 5] = _QUARTER_UNITS[(p1 + p3) % 4]
    out[:, 6] = -_QUARTER_UNITS[(p1 + p2) % 4]
    out[:, 7] = _QUARTER_UNITS[p1 % 4]
    return out


def cck8_codebook() -> Codebook:
    """All 256 length-8 codewords indexed by byte value."""
    bits = unpack_bits(np.arange(256), 8).T  # (256, 8)
    groups = bits.reshape(256, 4, 2)
    lut = np.zeros((2, 2), dtype=np.int64)
    for (b1, b0), ph in _GROUP_QUARTER_PHASE.items():
        lut[b1, b0] = ph
    phases = lut[groups[:, :, 0], groups[:, :, 1]]
    entries = _cck8_from_quarter_phases(phases)
    return Codebook(length_n=8, bits_per_codeword=8, entries=entries)


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
