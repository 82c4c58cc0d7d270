"""Bit and error counts of fixed points of the chain, one row per point.

count_matrix.csv holds, for every point, its config (scheme, antennas,
Eb/N0, seed, frames, symbols per frame and error budget) and the bits and
bit errors run_point gave for it.  A change that keeps the chain's decisions
keeps every row; a failure names each point that moved.  Regenerate the file
only in a change that moves counts on purpose, and list the moved points in
CHANGES.md:

    PYTHONPATH=src python tests/test_count_matrix.py --write
"""

import csv
import sys
from pathlib import Path

import pytest

from scckm.sim import SimConfig, run_point

DATA = Path(__file__).with_name("count_matrix.csv")
FIELDS = ("scheme", "n_tx", "n_rx", "ebn0_db", "seed", "frames", "symbols", "budget",
          "bits", "errors")
CONFIGS = (("scck2", 2, 2), ("scck2", 2, 4), ("scck4", 4, 4), ("scck4", 4, 8),
           ("scck8", 8, 8), ("scck8", 8, 16), ("sm-bpsk", 2, 4), ("sm-bpsk", 8, 16),
           ("sm-4qam", 4, 4), ("sm-4qam", 4, 8))


def points():
    """(scheme, n_tx, n_rx, ebn0_db, seed, frames, symbols, budget) of every row."""
    # every config from many errors at -6 dB to few or none at 10 dB
    for scheme, n_tx, n_rx in CONFIGS:
        for ebn0_db in (-6.0, 0.0, 6.0, 10.0):
            for seed in (1, 2017, 5):
                yield scheme, n_tx, n_rx, ebn0_db, seed, 3, 20, None
    # early stop: budgets met in a point's first frame, in a later frame of
    # either process, and not at all
    for scheme, n_tx, n_rx in CONFIGS:
        for budget in (1, 500, 2000, 5000):
            yield scheme, n_tx, n_rx, 0.0, 3, 7, 4, budget
    # past 8x16, where the channel's products are largest
    yield "scck8", 8, 32, -10.0, 1, 2, 5, None


def counts(scheme, n_tx, n_rx, ebn0_db, seed, frames, symbols, budget):
    """(bits, errors) of one point."""
    config = SimConfig(scheme=scheme, n_tx=n_tx, n_rx=n_rx, ebn0_db=(ebn0_db,),
                       frames=frames, seed=seed, symbols_per_frame=symbols,
                       max_bit_errors=budget)
    point = run_point(config, ebn0_db)
    return point.bits_simulated, point.bit_errors


def read_rows():
    """(point, (bits, errors)) of every row of the data file."""
    with open(DATA, newline="") as fh:
        for row in csv.DictReader(fh):
            point = (row["scheme"], int(row["n_tx"]), int(row["n_rx"]),
                     float(row["ebn0_db"]), int(row["seed"]), int(row["frames"]),
                     int(row["symbols"]), int(row["budget"]) if row["budget"] else None)
            yield point, (int(row["bits"]), int(row["errors"]))


def row_id(point):
    scheme, n_tx, n_rx, ebn0_db, seed, frames, symbols, budget = point
    budget = "" if budget is None else f"-budget{budget}"
    return f"{scheme}-{n_tx}x{n_rx}-{ebn0_db:g}dB-seed{seed}{budget}"


def pytest_generate_tests(metafunc):
    # at collection, not import, so that --write runs without the file
    metafunc.parametrize("point, expected", [
        pytest.param(point, expected, id=row_id(point)) for point, expected in read_rows()])


def test_counts_are_unchanged(point, expected):
    assert counts(*point) == expected


def write():
    with open(DATA, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(FIELDS)
        for point in points():
            budget = point[-1]
            out.writerow(point[:-1] + ("" if budget is None else budget, *counts(*point)))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write()
