"""Monte Carlo BER sweep engine.

One experiment is a SimConfig: a scheme, a MIMO size, an Eb/N0 list, frame
counts and a master seed.  Every (frame, symbol) pair owns its own RNG
substream derived from the master seed by counter-based spawning, so error
counts depend only on the config.  Frames run in index order on the calling
thread and the early-stop check runs at frame boundaries.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .cck import (Codebook, cck2_codebook, cck4_reference_codebook, cck8_codebook,
                  require_count)
from .channel import apply_channel, freq_response, generate_channel, gram_response
from .modem import (ml_detect_scck_grid, ml_detect_sm_equalized_grid, scck_map,
                    scck_table, sm_map, sm_table, zf_equalize_grid)
from .ofdm import OfdmParams, ofdm_demodulate, ofdm_modulate

# glibc's mallopt parameter, and the free space it keeps above the heap top
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 4 << 20


def _keep_heap_top_pad() -> None:
    """Keep 4 MB free above the heap top instead of returning it to the OS.

    Each OFDM symbol frees about 1 MB of temporaries (channel matrices, Gram
    stacks, factors, detection scores).  With glibc's default pad the heap
    top is trimmed after every symbol and the next symbol faults those pages
    in again: about 280 minor faults per scck8 8x16 symbol, 120-160 with a
    1 MB pad, 3-20 with 2 MB and none with 4 MB.  The setting is
    process-wide; off Linux, or where mallopt is missing, nothing changes.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


_keep_heap_top_pad()


class Scheme(NamedTuple):
    """What a scheme name fixes: a CCK codebook or an SM constellation.

    The rest follows from the transmit table: its row count is 2**(bits per
    subcarrier), and an SCCK table's width, the codeword length, fixes n_tx.
    """

    codebook: Callable[[], Codebook] | None = None
    constellation: str | None = None

    def table(self, n_tx: int | None = None) -> np.ndarray:
        """The unit-energy (2**m, n_tx) transmit table; SCCK ignores n_tx."""
        if self.codebook is not None:
            return scck_table(self.codebook())
        return sm_table(n_tx, self.constellation)


SCHEMES = {
    "scck2": Scheme(codebook=cck2_codebook),
    "scck4": Scheme(codebook=cck4_reference_codebook),
    "scck8": Scheme(codebook=cck8_codebook),
    "sm-bpsk": Scheme(constellation="bpsk"),
    "sm-4qam": Scheme(constellation="4qam"),
}


@dataclass(frozen=True)
class SimConfig:
    scheme: str
    n_tx: int
    n_rx: int
    ebn0_db: tuple
    frames: int
    seed: int
    symbols_per_frame: int = 20
    ofdm: OfdmParams = field(default_factory=OfdmParams)
    taps: int = 2
    max_bit_errors: int | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}, expected one of {tuple(SCHEMES)}")
        counts = {"transmit antenna count": self.n_tx, "receive antenna count": self.n_rx,
                  "frame count": self.frames, "symbols per frame": self.symbols_per_frame,
                  "tap count": self.taps}
        if self.max_bit_errors is not None:
            counts["max bit errors"] = self.max_bit_errors
        for name, value in counts.items():
            require_count(name, value)
        if (isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer))
                or not 0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        # SM's table rejects a count that is not a power of two
        required = SCHEMES[self.scheme].table(self.n_tx).shape[1]
        if self.n_tx != required:
            raise ValueError(
                f"{self.scheme} requires {required} transmit antennas, got {self.n_tx}")
        if self.n_rx < self.n_tx:
            raise ValueError(
                f"zero forcing needs n_rx >= n_tx, got {self.n_rx} < {self.n_tx}"
            )
        # a string is 0-d to numpy too: "10" would otherwise run 1 dB and 0 dB
        if np.ndim(self.ebn0_db) != 1:
            raise ValueError(f"ebn0 must be a sequence of numbers, got {self.ebn0_db!r}")
        if not len(self.ebn0_db):
            raise ValueError("ebn0 list must be non-empty")
        for value in self.ebn0_db:
            noise_variance(self, value)  # raises ValueError where there is none
        ebn0_db = tuple(map(float, self.ebn0_db))
        if not isinstance(self.ofdm, OfdmParams):
            raise ValueError(f"ofdm must be an OfdmParams, got {self.ofdm!r}")
        if self.taps > self.ofdm.cp_len + 1:
            raise ValueError(
                f"{self.taps} taps exceed cyclic prefix length {self.ofdm.cp_len} + 1"
            )
        object.__setattr__(self, "ebn0_db", ebn0_db)

    @cached_property
    def bits_per_subcarrier(self) -> int:
        """log2 of the row count of the scheme's transmit table."""
        return len(SCHEMES[self.scheme].table(self.n_tx)).bit_length() - 1


class BerPoint(NamedTuple):
    ebn0_db: float
    bits_simulated: int
    bit_errors: int
    ber: float


class BerCurve(NamedTuple):
    config: SimConfig
    points: tuple


def canonical_config_string(config: SimConfig) -> str:
    """Fixed-order key=value rendering of the experiment (scheduling excluded)."""
    ebn0 = ",".join(repr(e) for e in config.ebn0_db)
    mbe = "none" if config.max_bit_errors is None else str(config.max_bit_errors)
    return (
        f"scheme={config.scheme} ntx={config.n_tx} nrx={config.n_rx} "
        f"ebn0={ebn0} frames={config.frames} "
        f"symbols_per_frame={config.symbols_per_frame} "
        f"nsub={config.ofdm.n_sub} cp={config.ofdm.cp_len} "
        f"taps={config.taps} seed={config.seed} max_bit_errors={mbe}"
    )


def noise_variance(config: SimConfig, ebn0_db: float) -> float:
    """N0 = E_s,total / (eta * 10^(EbN0/10)); E_s,total = 1 per subcarrier.

    ebn0_db must be an int, a float or a numpy real, not a bool.  +inf gives
    0.0 (noiseless); NaN, -inf and a finite value whose N0 is not a finite
    positive float (beyond about +-3000 dB) raise ValueError."""
    if isinstance(ebn0_db, bool) or not isinstance(ebn0_db, (int, float, np.integer,
                                                              np.floating)):
        raise ValueError(f"ebn0 values must be real numbers, got {ebn0_db!r}")
    # ebn0_db != ebn0_db is NaN; math.isnan would overflow on an int past float range
    if ebn0_db != ebn0_db or ebn0_db == -math.inf:
        raise ValueError(f"ebn0 values must be finite or +inf, got {ebn0_db}")
    if ebn0_db == math.inf:
        return 0.0
    try:
        n0 = 1.0 / (config.bits_per_subcarrier * 10.0 ** (ebn0_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10 ** (ebn0_db / 10) overflowed or hit 0
        n0 = math.nan
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"ebn0 {ebn0_db} dB is out of range: its noise variance "
                         f"is not a finite positive float")
    return n0


def _symbol_rng(seed: int, frame: int, symbol: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(frame, symbol)))


def _scheme_ops(config: SimConfig):
    """(map, detect) for the config's scheme; detect takes the ZF grid.

    The stage functions are looked up as module globals at call time, so a
    tool that swaps them in this namespace (perfbench's tracer) sees each call.
    """
    scheme = SCHEMES[config.scheme]
    if scheme.codebook is not None:
        book = scheme.codebook()
        return (lambda bits: scck_map(bits, book),
                lambda equalized: ml_detect_scck_grid(equalized, book).bits)
    n_tx, name = config.n_tx, scheme.constellation
    return (lambda bits: sm_map(bits, n_tx, name),
            lambda equalized: ml_detect_sm_equalized_grid(equalized, n_tx, name).bits)


def run_point(config: SimConfig, ebn0_db: float, workers: int = 1) -> BerPoint:
    """Simulate one Eb/N0 point, early-stopping at max_bit_errors if set.

    workers must be an integer >= 1 and has no other effect: frames run in
    order on the calling thread.
    """
    require_count("worker count", workers)
    n0 = noise_variance(config, ebn0_db)
    ebn0_db = float(ebn0_db)
    map_bits, detect = _scheme_ops(config)
    params = config.ofdm
    m = config.bits_per_subcarrier
    limit = config.max_bit_errors
    errors = 0
    frames_run = 0
    for frame in range(config.frames):
        for symbol in range(config.symbols_per_frame):
            rng = _symbol_rng(config.seed, frame, symbol)
            bits = rng.integers(0, 2, size=(m, params.n_sub), dtype=np.uint8)
            channel = generate_channel(config.n_tx, config.n_rx, config.taps, rng)
            tx = ofdm_modulate(map_bits(bits), params)
            rx = apply_channel(tx, channel, n0, rng)
            received = ofdm_demodulate(rx[:, : params.n_sub + params.cp_len], params).T
            hk = freq_response(channel, params)
            gram = gram_response(channel, params)
            decoded = detect(zf_equalize_grid(received, hk, gram))
            errors += int(np.count_nonzero(decoded != bits))
        frames_run += 1
        if limit is not None and errors >= limit:
            break
    simulated = frames_run * config.symbols_per_frame * params.n_sub * m
    return BerPoint(ebn0_db=ebn0_db, bits_simulated=simulated,
                    bit_errors=errors, ber=errors / simulated)


def run_sweep(config: SimConfig, workers: int = 1) -> BerCurve:
    """Run every configured Eb/N0 point, ordered ascending.

    workers is passed to run_point and has no other effect.
    """
    points = tuple(
        run_point(config, e, workers=workers) for e in sorted(config.ebn0_db)
    )
    return BerCurve(config=config, points=points)


@contextlib.contextmanager
def open_text(target, mode: str):
    """Yield target itself if it is a file object, else open it as a UTF-8 path."""
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, encoding="utf-8", newline="") as fh:
            yield fh
    else:
        yield target


def emit_csv(curve: BerCurve, destination) -> None:
    """Write a BER curve as CSV with config and seed comment lines."""
    with open_text(destination, "w") as fh:
        fh.write(f"# config: {canonical_config_string(curve.config)}\n")
        fh.write(f"# seed: {curve.config.seed}\n")
        fh.write("ebn0_db,bits_simulated,bit_errors,ber\n")
        for pt in curve.points:
            fh.write(f"{pt.ebn0_db!r},{pt.bits_simulated},{pt.bit_errors},{pt.ber!r}\n")


def read_csv(source):
    """Parse emit_csv output: returns (config string, seed, list of BerPoint)."""
    config_str = None
    seed = None
    points = []
    with open_text(source, "r") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("# config:"):
                config_str = line[len("# config:"):].strip()
            elif line.startswith("# seed:"):
                seed = int(line[len("# seed:"):].strip())
            elif line.startswith("#") or line.startswith("ebn0_db"):
                continue
            else:
                e, b, n, r = line.split(",")
                points.append(BerPoint(float(e), int(b), int(n), float(r)))
    return config_str, seed, points
