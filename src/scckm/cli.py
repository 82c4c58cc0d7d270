"""Command line front end for BER sweeps.

Flags mirror an optional key=value config file (--config); explicit flags win.
The Eb/N0 grid accepts either a comma list ("0,2,4", "inf" allowed) or an
inclusive start:step:stop range ("0:2:10").  Output goes to --out or stdout.
"""

from __future__ import annotations

import argparse
import math
import sys

from .ofdm import OfdmParams
from .sim import SCHEMES, SimConfig, emit_csv, run_sweep

_INT_KEYS = ("ntx", "nrx", "frames", "seed", "taps", "nsub", "cp",
             "symbols_per_frame", "max_bit_errors", "workers")
_KEYS = _INT_KEYS + ("scheme", "ebn0", "out")


def parse_ebn0(text: str) -> tuple:
    """Parse '0:2:10' (inclusive) or a comma list like '0,2.5,inf'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, step, stop))):
            raise ValueError(f"ebn0 range needs finite start:step:stop, got {text!r}")
        if step <= 0:
            raise ValueError(f"ebn0 step must be positive, got {step}")
        count = int(round((stop - start) / step)) + 1
        values = [start + i * step for i in range(max(count, 0))]
        values = [v for v in values if v <= stop + 1e-9]
        if not values:
            raise ValueError(f"empty ebn0 range {text!r}")
        return tuple(values)
    values = tuple(float(p) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError(f"empty ebn0 list {text!r}")
    return values


def read_config_file(path: str) -> dict:
    """key=value lines keyed by long flag name; # comments ignored, unknown keys rejected."""
    settings = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            name = key.strip().replace("-", "_")
            if name not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            settings[name] = value.strip()
    return settings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scckm", description="Monte Carlo BER sweeps for SCCKM and SM over MIMO-OFDM"
    )
    parser.add_argument("--config", help="key=value settings file; flags override it")
    parser.add_argument("--scheme", choices=SCHEMES)
    parser.add_argument("--ntx", type=int, help="transmit antennas (implied for scck*)")
    parser.add_argument("--nrx", type=int, help="receive antennas")
    parser.add_argument("--ebn0", help="comma list or start:step:stop, in dB")
    parser.add_argument("--frames", type=int, help="frames per point (default 1000)")
    parser.add_argument("--seed", type=int, help="master seed (default 1)")
    parser.add_argument("--out", help="output CSV path (default stdout)")
    parser.add_argument("--taps", type=int, help="channel tap count (default 2)")
    parser.add_argument("--nsub", type=int, help="subcarriers (default 256)")
    parser.add_argument("--cp", type=int, help="cyclic prefix length (default 16)")
    parser.add_argument("--symbols-per-frame", type=int, dest="symbols_per_frame",
                        help="OFDM symbols per frame (default 20)")
    parser.add_argument("--max-bit-errors", type=int, dest="max_bit_errors",
                        help="early-stop threshold per point (default off)")
    parser.add_argument("--workers", type=int,
                        help="an integer >= 1 (default 1) with no other effect: "
                             "frames run in order on one thread")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    settings: dict = {}
    if args.config:
        settings.update(read_config_file(args.config))
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            settings[key] = value
    # flags arrive as ints from argparse; strings come from the config file
    for key in _INT_KEYS:
        value = settings.get(key)
        if isinstance(value, str):
            try:
                settings[key] = int(value)
            except ValueError:
                raise ValueError(f"{args.config}: key {key!r} expects an integer, "
                                 f"got {value!r}") from None
    if isinstance(settings.get("ebn0"), str):
        settings["ebn0"] = parse_ebn0(settings["ebn0"])
    return settings


def build_config(settings: dict) -> SimConfig:
    scheme = settings.get("scheme")
    if not scheme:
        raise ValueError("a scheme is required (--scheme or scheme= in the config file)")
    ntx = settings.get("ntx")
    if ntx is None and scheme in SCHEMES:
        ntx = SCHEMES[scheme].fixed_n_tx
    if ntx is None:
        raise ValueError(f"{scheme} requires --ntx")
    nrx = settings.get("nrx")
    if nrx is None:
        raise ValueError("--nrx is required")
    ebn0 = settings.get("ebn0")
    if not ebn0:
        raise ValueError("--ebn0 is required")
    ofdm = OfdmParams(n_sub=settings.get("nsub", 256), cp_len=settings.get("cp", 16))
    return SimConfig(
        scheme=scheme,
        n_tx=ntx,
        n_rx=nrx,
        ebn0_db=tuple(ebn0),
        frames=settings.get("frames", 1000),
        seed=settings.get("seed", 1),
        symbols_per_frame=settings.get("symbols_per_frame", 20),
        ofdm=ofdm,
        taps=settings.get("taps", 2),
        max_bit_errors=settings.get("max_bit_errors"),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = _resolve(args)
        config = build_config(settings)
        workers = settings.get("workers", 1)
        curve = run_sweep(config, workers=workers)
        out = settings.get("out")
        if out:
            emit_csv(curve, out)
        else:
            emit_csv(curve, sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
