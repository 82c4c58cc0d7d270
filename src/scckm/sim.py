"""Monte Carlo BER sweep engine.

One experiment is a SimConfig: a scheme, a MIMO size, an Eb/N0 list, frame
counts and a master seed.  Every (frame, symbol) pair owns its own RNG
substream derived from the master seed by counter-based spawning, so error
counts do not depend on scheduling or worker count.  Frames accumulate in
index order and the early-stop check runs at frame boundaries, which keeps
CSV output byte-identical across thread counts.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .cck import (Codebook, cck2_codebook, cck4_reference_codebook, cck8_codebook,
                  open_text)
from .channel import apply_channel, freq_response, generate_channel
from .modem import (ml_detect_scck_grid, ml_detect_sm_equalized_grid, scck_map,
                    sm_map, zf_equalize_grid)
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
    """What a scheme name fixes.

    SCCK spreads one codeword over the antennas, so its length fixes n_tx.  SM
    takes any power-of-two n_tx and adds log2(n_tx) antenna bits per subcarrier
    to the symbol_bits of its constellation point.
    """

    symbol_bits: int
    fixed_n_tx: int | None = None
    codebook: Callable[[], Codebook] | None = None
    constellation: str | None = None


SCHEMES = {
    "scck2": Scheme(2, fixed_n_tx=2, codebook=cck2_codebook),
    "scck4": Scheme(4, fixed_n_tx=4, codebook=cck4_reference_codebook),
    "scck8": Scheme(8, fixed_n_tx=8, codebook=cck8_codebook),
    "sm-bpsk": Scheme(1, constellation="bpsk"),
    "sm-4qam": Scheme(2, constellation="4qam"),
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
        required = SCHEMES[self.scheme].fixed_n_tx
        if required is not None and self.n_tx != required:
            raise ValueError(
                f"{self.scheme} requires {required} transmit antennas, got {self.n_tx}")
        if required is None and (self.n_tx < 2 or self.n_tx & (self.n_tx - 1)):
            raise ValueError(
                f"transmit antenna count must be a power of two >= 2, got {self.n_tx}")
        if self.n_rx < self.n_tx:
            raise ValueError(
                f"zero forcing needs n_rx >= n_tx, got {self.n_rx} < {self.n_tx}"
            )
        if isinstance(self.ebn0_db, str):
            raise ValueError(f"ebn0 must be a sequence of numbers, got {self.ebn0_db!r}")
        if not self.ebn0_db:
            raise ValueError("ebn0 list must be non-empty")
        for e in self.ebn0_db:
            value = float(e)
            if math.isnan(value) or (math.isinf(value) and value < 0):
                raise ValueError(f"ebn0 values must be finite or +inf, got {value}")
        if self.frames < 1:
            raise ValueError(f"frame count must be >= 1, got {self.frames}")
        if self.symbols_per_frame < 1:
            raise ValueError(f"symbols per frame must be >= 1, got {self.symbols_per_frame}")
        if self.taps < 1:
            raise ValueError(f"tap count must be >= 1, got {self.taps}")
        if self.taps > self.ofdm.cp_len + 1:
            raise ValueError(
                f"{self.taps} taps exceed cyclic prefix length {self.ofdm.cp_len} + 1"
            )
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.max_bit_errors is not None and self.max_bit_errors < 1:
            raise ValueError(f"max bit errors must be >= 1, got {self.max_bit_errors}")
        object.__setattr__(self, "ebn0_db", tuple(float(e) for e in self.ebn0_db))

    @property
    def bits_per_subcarrier(self) -> int:
        scheme = SCHEMES[self.scheme]
        if scheme.fixed_n_tx is not None:
            return scheme.symbol_bits
        return self.n_tx.bit_length() - 1 + scheme.symbol_bits


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
    """N0 = E_s,total / (eta * 10^(EbN0/10)); E_s,total = 1 per subcarrier."""
    if math.isinf(ebn0_db) and ebn0_db > 0:
        return 0.0
    return 1.0 / (config.bits_per_subcarrier * 10.0 ** (ebn0_db / 10.0))


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


def _run_frame(config: SimConfig, ops, frame: int, n0: float) -> int:
    """Simulate one frame and return its bit error count."""
    map_bits, detect = ops
    params = config.ofdm
    m = config.bits_per_subcarrier
    errors = 0
    for symbol in range(config.symbols_per_frame):
        rng = _symbol_rng(config.seed, frame, symbol)
        bits = rng.integers(0, 2, size=(m, params.n_sub), dtype=np.uint8)
        channel = generate_channel(config.n_tx, config.n_rx, config.taps, rng)
        tx = ofdm_modulate(map_bits(bits), params)
        rx = apply_channel(tx, channel, n0, rng)
        received = ofdm_demodulate(rx[:, : params.n_sub + params.cp_len], params).T
        hk = freq_response(channel, params)
        decoded = detect(zf_equalize_grid(received, hk))
        errors += int(np.count_nonzero(decoded != bits))
    return errors


def _in_order(pool: ThreadPoolExecutor, run, frames, window: int):
    """Yield run(frame) for each frame in frame order, with at most window
    frames submitted and not yet yielded.

    Frames may finish out of order, but their counts come out in frame order,
    so worker count cannot change the counts; the window bounds the work and
    memory an early stop leaves queued.
    """
    submitted = (pool.submit(run, frame) for frame in frames)
    ahead = deque(itertools.islice(submitted, window))
    while ahead:
        yield ahead.popleft().result()
        ahead.extend(itertools.islice(submitted, 1))


def run_point(config: SimConfig, ebn0_db: float, workers: int = 1) -> BerPoint:
    """Simulate one Eb/N0 point, early-stopping at max_bit_errors if set."""
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    n0 = noise_variance(config, ebn0_db)
    ops = _scheme_ops(config)
    limit = config.max_bit_errors
    errors = 0
    frames_run = 0
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        run = functools.partial(_run_frame, config, ops, n0=n0)
        frames = range(config.frames)
        counts = map(run, frames) if workers == 1 else _in_order(pool, run, frames, 4 * workers)
        for frame_errors in counts:
            errors += frame_errors
            frames_run += 1
            if limit is not None and errors >= limit:
                break
    finally:
        # frames not yet started are dropped instead of run on the way out
        pool.shutdown(cancel_futures=True)
    bits = frames_run * config.symbols_per_frame * config.ofdm.n_sub \
        * config.bits_per_subcarrier
    return BerPoint(ebn0_db=float(ebn0_db), bits_simulated=bits,
                    bit_errors=errors, ber=errors / bits)


def run_sweep(config: SimConfig, workers: int = 1) -> BerCurve:
    """Run every configured Eb/N0 point, ordered ascending."""
    points = tuple(
        run_point(config, e, workers=workers) for e in sorted(config.ebn0_db)
    )
    return BerCurve(config=config, points=points)


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
