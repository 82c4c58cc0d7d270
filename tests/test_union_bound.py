"""A union bound on the BER of ZF then ML detection, as an oracle for the chain.

After zero forcing, the noise on subcarrier k is CN(0, N0 G^-1) with
G = H^H H.  For iid CN(0, 1) entries of H, ||d||^2 / (d^H G^-1 d) is
Gamma(L, 1) with L = n_rx - n_tx + 1, so the average pairwise error
t_i -> t_j is the L-branch MRC BPSK form at gamma = ||t_i - t_j||^2 / (4 N0):

    P_L(gamma) = ((1 - mu)/2)^L * sum_{k<L} C(L-1+k, k) ((1 + mu)/2)^k,
    mu = sqrt(gamma / (1 + gamma)),

and BER <= sum_{i != j} hamming(i, j) P_L(gamma_ij) / (m 2^m).  The bound
reads only the transmit table the chain sends and the chain's N0, not the
simulator, and it is tight for L >= 3.
"""

import math

import numpy as np
import pytest

from scckm.cck import unpack_bits
from scckm.sim import SCHEMES, SimConfig, noise_variance, run_point


def union_bound(scheme: str, n_tx: int, n_rx: int, ebn0_db: float) -> float:
    table = SCHEMES[scheme].table(n_tx)
    rows = len(table)
    m = rows.bit_length() - 1
    n0 = noise_variance(SimConfig(scheme, n_tx, n_rx, (ebn0_db,), frames=1, seed=1), ebn0_db)
    order = n_rx - n_tx + 1
    bits = unpack_bits(np.arange(rows), m)
    hamming = np.count_nonzero(bits[:, :, None] != bits[:, None, :], axis=0)
    off = ~np.eye(rows, dtype=bool)
    gamma = np.sum(np.abs(table[:, None] - table[None]) ** 2, axis=-1)[off] / (4 * n0)
    mu = np.sqrt(gamma / (1 + gamma))
    pairwise = ((1 - mu) / 2) ** order * sum(
        math.comb(order - 1 + k, k) * ((1 + mu) / 2) ** k for k in range(order))
    return float(np.sum(hamming[off] * pairwise) / (m * rows))


# every row but the one at 6 dB is a bound README gives for acceptance
# criteria 8a, 8c and 8d: at 2 tx both schemes gain 214x from 2x2 to 2x4, and
# at 4x8 and 8x16 both lie far below the SM floors of 2e-4 and 5e-4
@pytest.mark.parametrize("scheme, n_tx, n_rx, ebn0_db, bound", [
    ("scck2", 2, 4, 10.0, 1.9103e-4),
    ("sm-bpsk", 2, 4, 10.0, 1.9103e-4),
    ("scck4", 4, 8, 6.0, 3.0879e-5),
    ("scck2", 2, 2, 10.0, 4.0928e-2),
    ("sm-bpsk", 2, 2, 10.0, 4.0928e-2),
    ("scck4", 4, 8, 9.0, 1.3526e-6),
    ("sm-4qam", 4, 8, 9.0, 6.9098e-7),
    ("scck8", 8, 16, 8.0, 5.7050e-11),
    ("sm-bpsk", 8, 16, 8.0, 4.6141e-11),
])
def test_bound_values(scheme, n_tx, n_rx, ebn0_db, bound):
    assert union_bound(scheme, n_tx, n_rx, ebn0_db) == pytest.approx(bound, rel=5e-5)


@pytest.mark.parametrize("n_rx", [2, 4])
def test_scck2_and_sm_bpsk_share_a_bound(n_rx):
    # at two transmit antennas a unitary map and a bit swap take one table
    # to the other, so the two distance spectra, and bounds, are equal
    scck2 = union_bound("scck2", 2, n_rx, 10.0)
    sm_bpsk = union_bound("sm-bpsk", 2, n_rx, 10.0)
    assert abs(scck2 - sm_bpsk) <= 1e-12 * scck2


@pytest.mark.parametrize("scheme, n_tx, n_rx, ebn0_db, taps", [
    pytest.param(*case, 2, id="-".join(map(str, case))) for case in [
        ("scck2", 2, 4, 8.0),
        ("sm-bpsk", 2, 4, 8.0),
        ("scck4", 4, 8, 4.0),
        ("sm-4qam", 4, 8, 4.0),
        ("scck8", 8, 16, -2.0),
        ("sm-bpsk", 8, 16, -2.0),
    ]] + [
    # cp + 1 taps: every H(k) is still iid CN(0, 1), so the bound is the
    # same; only the spread of the BER around it narrows
    pytest.param("scck2", 2, 4, 8.0, 17, id="scck2-2-4-8.0-17taps"),
])
def test_ber_lies_near_the_bound(scheme, n_tx, n_rx, ebn0_db, taps):
    config = SimConfig(scheme, n_tx, n_rx, (ebn0_db,), frames=300, seed=1, taps=taps,
                       max_bit_errors=200)
    point = run_point(config, ebn0_db)
    ratio = point.ber / union_bound(scheme, n_tx, n_rx, ebn0_db)
    # errors cluster by channel draw, so a BER from about 200 errors is not
    # binomially precise; the fixed 1.5 stands in for a confidence interval
    # over frames until the simulator reports one
    assert 0.4 <= ratio <= 1.5, (
        f"{scheme} {n_tx}x{n_rx}, {taps} taps, at {ebn0_db} dB: BER {point.ber:.4e} "
        f"({point.bit_errors} errors), ratio to the bound {ratio:.3f}")
