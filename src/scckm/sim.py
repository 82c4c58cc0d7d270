"""Monte Carlo BER sweep engine.

One experiment is a SimConfig: a scheme, a MIMO size, an Eb/N0 list, frame
counts and a master seed.  Every (frame, symbol) pair owns its own RNG
substream derived from the master seed by counter-based spawning, so error
counts depend only on the config.  A point's frames run in pairs, one frame
in the calling process and the next in one helper process, forked on the
first call made with no other Python thread when the affinity mask has a
second CPU.  The caller and the helper make the same call,
_frame_errors(config, n0, frame), for frames f and f + 1.  Both counts of a
pair are read before either is added, so no count is left in a pipe when a
point stops; counts are added in frame order and the early-stop check runs
at frame boundaries, so the result is the same for any CPU count.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import math
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .cck import (Codebook, cck2_codebook, cck4_reference_codebook, cck8_codebook,
                  require_count)
from .channel import (_twiddles, apply_channel, freq_response, generate_channel,
                      gram_response)
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
        _twiddles(self.ofdm, self.taps)  # raises where the prefix cannot hold the taps
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
        # in double precision whatever the input's: np.float16(60) would overflow
        n0 = 1.0 / (config.bits_per_subcarrier * 10.0 ** (float(ebn0_db) / 10.0))
    except (OverflowError, ZeroDivisionError):  # 10 ** (ebn0_db / 10) overflowed or hit 0
        n0 = math.nan
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"ebn0 {ebn0_db} dB is out of range: its noise variance "
                         f"is not a finite positive float")
    return n0


def _symbol_rng(seed: int, frame: int, symbol: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(frame, symbol)))


def _frame_errors(config: SimConfig, n0: float, frame: int) -> int:
    """Bit errors of one frame, each symbol drawn from its own substream.

    The stage names are read from scckm.sim at each call: perfbench's tracer
    swaps them around run_point.
    """
    scheme = SCHEMES[config.scheme]
    if scheme.codebook is not None:
        map_bits, detect, args = scck_map, ml_detect_scck_grid, (scheme.codebook(),)
    else:
        map_bits, detect = sm_map, ml_detect_sm_equalized_grid
        args = (config.n_tx, scheme.constellation)
    params = config.ofdm
    m = config.bits_per_subcarrier
    errors = 0
    for symbol in range(config.symbols_per_frame):
        rng = _symbol_rng(config.seed, frame, symbol)
        bits = rng.integers(0, 2, size=(m, params.n_sub), dtype=np.uint8)
        channel = generate_channel(config.n_tx, config.n_rx, config.taps, rng)
        tx = ofdm_modulate(map_bits(bits, *args), params)
        rx = apply_channel(tx, channel, n0, rng)
        received = ofdm_demodulate(rx[:, : params.n_sub + params.cp_len], params).T
        hk = freq_response(channel, params)
        gram = gram_response(channel, params)
        decoded = detect(zf_equalize_grid(received, hk, gram), *args).bits
        errors += int(np.count_nonzero(decoded != bits))
    return errors


class _Helper:
    """The calling process's one helper: a forked process that runs the
    frames it is sent, one at a time.

    start forks it on a call made while the process has one Python thread
    and its affinity mask has a second CPU; there is none without fork or an
    affinity mask.  owner is the pid that forked it: a process forked from
    the owner inherits this object and must neither use nor reap its helper.
    One call at a time holds lock; a call on another thread meanwhile runs
    its frames alone.
    """

    def __init__(self):
        self.pid = 0  # 0: no helper
        # pickled (config, n0, frame) jobs out, pickled bit-error counts back
        self.jobs = self.counts = None
        self.owner = 0
        self.lock = threading.Lock()

    def start(self) -> bool:
        """Whether this process has a helper, forking it on the first call."""
        if self.owner != os.getpid():
            self.stop()
            # fork copies only the calling thread: a lock another Python
            # thread holds would stay held in the helper forever
            if threading.active_count() == 1:
                self.owner = os.getpid()
                if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                        and len(os.sched_getaffinity(0)) > 1):
                    with contextlib.suppress(OSError):  # out of processes: run alone
                        self._fork()
        return self.pid != 0

    def _fork(self) -> None:
        job_read, job_write = os.pipe()
        count_read, count_write = os.pipe()
        try:
            # Python 3.12+ warns from os.fork in the parent, after the child
            # exists, while other OS threads (OpenBLAS's) run; the warning is
            # issued once the helper is recorded, so an error cannot lose it
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                pid = os.fork()
        except BaseException:
            for fd in (job_read, job_write, count_read, count_write):
                os.close(fd)
            raise
        if pid == 0:
            # the helper keeps only its two pipes, so no descriptor of the
            # caller's outlives its close there; it runs frames until its job
            # pipe closes, and never returns
            try:
                low, high = sorted((job_read, count_write))
                os.closerange(3, low)
                os.closerange(low + 1, high)
                os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
                with open(job_read, "rb") as jobs, open(count_write, "wb") as counts:
                    while True:
                        pickle.dump(_frame_errors(*pickle.load(jobs)), counts)
                        counts.flush()
            finally:
                os._exit(0)
        os.close(job_read)
        os.close(count_write)
        self.pid, self.jobs, self.counts = pid, open(job_write, "wb"), open(count_read, "rb")
        for warning in caught:
            warnings.warn_explicit(warning.message, warning.category, warning.filename,
                                   warning.lineno)

    def stop(self) -> None:
        """Close the pipes to the helper, and kill and reap it if this process
        forked it.  The next call forks a fresh one."""
        if self.pid:
            if self.owner == os.getpid():
                import signal  # not at import time: it would add to every import of scckm
                with contextlib.suppress(OSError):
                    os.kill(self.pid, signal.SIGKILL)
                    os.waitpid(self.pid, 0)
            for end in (self.jobs, self.counts):
                with contextlib.suppress(OSError):  # a job the dead helper never read
                    end.close()
        self.pid = self.owner = 0


_helper = _Helper()
atexit.register(_helper.stop)

# the module names a frame reads, as bound at import: while any is rebound
# (perfbench's tracer, tests), frames run in the calling process
_FRAME_NAMES = {name: fn for name, fn in globals().items()
                if name == "_frame_errors" or name in _frame_errors.__code__.co_names}


def _frame_counts(config: SimConfig, n0: float):
    """Bit errors of each frame, in frame order, paired as the module
    docstring says."""
    as_imported = all(globals()[name] is fn for name, fn in _FRAME_NAMES.items())
    held = as_imported and _helper.lock.acquire(blocking=False)
    try:
        paired = held and _helper.start()
        frame = 0
        while frame < config.frames:
            if not (paired and frame + 1 < config.frames):
                counts = [_frame_errors(config, n0, frame)]
            else:
                try:
                    pickle.dump((config, n0, frame + 1), _helper.jobs)
                    _helper.jobs.flush()
                    counts = [_frame_errors(config, n0, frame),
                              pickle.load(_helper.counts)]
                except (EOFError, BrokenPipeError):
                    # the helper died: this pair and the rest of the point run here
                    _helper.stop()
                    paired = False
                    continue
                except BaseException:
                    # the helper may still be sending a count that no later call must read
                    _helper.stop()
                    raise
            yield from counts
            frame += len(counts)
    finally:
        if held:
            _helper.lock.release()


def run_point(config: SimConfig, ebn0_db: float, workers: int = 1) -> BerPoint:
    """Simulate one Eb/N0 point, early-stopping at max_bit_errors if set.

    Frames run on the calling process and its one helper (see the module
    docstring); they run here alone while any stage name of this module is
    rebound, as perfbench's tracer does.  The early stop comes at the same
    frame for any CPU count; at most the helper's frame of the stopping pair
    is computed and thrown away.  A call waits for the helper's count
    without a time limit: a stopped helper stalls it, a killed one makes it
    run the rest of the point here.  workers must be an integer >= 1 and has
    no other effect.
    """
    require_count("worker count", workers)
    n0 = noise_variance(config, ebn0_db)
    limit = config.max_bit_errors
    errors = 0
    frames_run = 0
    for frame_errors in _frame_counts(config, n0):
        errors += frame_errors
        frames_run += 1
        if limit is not None and errors >= limit:
            break
    frame_bits = config.symbols_per_frame * config.ofdm.n_sub * config.bits_per_subcarrier
    simulated = frames_run * frame_bits
    return BerPoint(ebn0_db=float(ebn0_db), bits_simulated=simulated,
                    bit_errors=errors, ber=errors / simulated)


def run_sweep(config: SimConfig, workers: int = 1) -> BerCurve:
    """Run every configured Eb/N0 point, ordered ascending, each through
    run_point.  workers is passed to run_point and has no other effect.
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
