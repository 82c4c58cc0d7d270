"""The simulator's per-symbol chain, rebuilt from scckm's public functions.

``run_sweep_replica`` follows the call order of ``scckm.sim._run_frame`` and
the early-stop loop of ``scckm.sim.run_point``, one public call per stage.
It serves two purposes:

* its counts are the reference the timed run is checked against when no
  golden values exist for the seed, and must equal ``run_point``'s in every
  traced pass;
* its spans time the two steps the program does inline rather than through
  a call the benchmark can wrap: the bit draw and the codebook build.
"""

from __future__ import annotations

import numpy as np

from scckm import cck
from scckm.channel import apply_channel, freq_response, generate_channel
from scckm.modem import (CONSTELLATIONS, ml_detect_scck_grid,
                         ml_detect_sm_equalized_grid, scck_map, sm_map,
                         zf_equalize_grid)
from scckm.ofdm import ofdm_demodulate, ofdm_modulate
from scckm.sim import noise_variance
from tracing import Tracer

# the scheme facts the simulator uses, stated independently of its tables
SCCK_CODEBOOKS = {
    "scck2": cck.cck2_codebook,
    "scck4": cck.cck4_reference_codebook,
    "scck8": cck.cck8_codebook,
}
SM_CONSTELLATIONS = {"sm-bpsk": "bpsk", "sm-4qam": "4qam"}

# per-symbol stages in call order; "replica.run_point" is the parent of them all
STAGES = (
    "sim.substream", "sim.bits", "channel.generate", "modem.map",
    "ofdm.modulate", "channel.apply", "ofdm.demodulate",
    "channel.freq_response", "modem.zf", "modem.detect",
)


def _scheme_ops(config, trace, parent):
    """Return (map, detect) callables for the config's scheme."""
    if config.scheme in SCCK_CODEBOOKS:
        book = trace.call("cck.codebook", parent, (-1, -1, -1),
                          SCCK_CODEBOOKS[config.scheme])
        return (lambda bits: scck_map(bits, book),
                lambda eq: ml_detect_scck_grid(eq, book).bits)
    # SM builds no codebook; its span covers the constellation lookup instead
    name = SM_CONSTELLATIONS[config.scheme]
    trace.call("cck.codebook", parent, (-1, -1, -1), CONSTELLATIONS.__getitem__, name)
    n_tx = config.n_tx
    return (lambda bits: sm_map(bits, n_tx, name),
            lambda eq: ml_detect_sm_equalized_grid(eq, n_tx, name).bits)


def _substream(seed, frame, symbol):
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(frame, symbol)))


def _draw_bits(rng, m, n_sub):
    return rng.integers(0, 2, size=(m, n_sub), dtype=np.uint8)


def _count_errors(decoded, bits):
    return int(np.count_nonzero(decoded != bits))


def run_point_replica(config, ebn0_db, point, trace: Tracer):
    """(bits_simulated, bit_errors) for one Eb/N0 point, as run_point gives
    them with one worker."""
    root = trace.open("replica.run_point", -1, point)
    map_bits, detect = _scheme_ops(config, trace, root)
    params = config.ofdm
    m = config.bits_per_subcarrier
    n0 = noise_variance(config, ebn0_db)
    used = params.n_sub + params.cp_len
    errors = 0
    frames_run = 0
    for frame in range(config.frames):
        for symbol in range(config.symbols_per_frame):
            key = (point, frame, symbol)
            rng = trace.call("sim.substream", root, key, _substream,
                             config.seed, frame, symbol)
            bits = trace.call("sim.bits", root, key, _draw_bits, rng, m, params.n_sub)
            channel = trace.call("channel.generate", root, key, generate_channel,
                                 config.n_tx, config.n_rx, config.taps, rng)
            grid = trace.call("modem.map", root, key, map_bits, bits)
            tx = trace.call("ofdm.modulate", root, key, ofdm_modulate, grid, params)
            rx = trace.call("channel.apply", root, key, apply_channel,
                            tx, channel, n0, rng)
            received = trace.call("ofdm.demodulate", root, key, ofdm_demodulate,
                                  rx[:, :used], params).T
            hk = trace.call("channel.freq_response", root, key, freq_response,
                            channel, params)
            equalized = trace.call("modem.zf", root, key, zf_equalize_grid,
                                   received, hk)
            decoded = trace.call("modem.detect", root, key, detect, equalized)
            errors += _count_errors(decoded, bits)
        frames_run += 1
        if config.max_bit_errors is not None and errors >= config.max_bit_errors:
            break
    trace.close(root)
    bits_simulated = frames_run * config.symbols_per_frame * params.n_sub * m
    return bits_simulated, errors


def run_sweep_replica(config, trace: Tracer):
    """[(ebn0_db, bits_simulated, bit_errors)] for every point, ascending."""
    return [(float(e), *run_point_replica(config, e, i, trace))
            for i, e in enumerate(sorted(config.ebn0_db))]


def hypotheses_per_subcarrier(config) -> int:
    """ML candidates the detector scores on one subcarrier."""
    if config.scheme in SCCK_CODEBOOKS:
        return 2 ** config.bits_per_subcarrier
    return config.n_tx * len(CONSTELLATIONS[SM_CONSTELLATIONS[config.scheme]])
