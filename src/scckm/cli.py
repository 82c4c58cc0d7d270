"""Command line front end for BER sweeps.

Flags mirror an optional key=value config file (--config); explicit flags win.
The Eb/N0 grid accepts either a comma list ("0,2,4", "inf" allowed) or an
inclusive start:step:stop range ("0:2:10"), and either may start below zero.
Output goes to --out or stdout.
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import Decimal

from .ofdm import OfdmParams
from .sim import SCHEMES, SimConfig, emit_csv, run_sweep

# name: (type, default, help) in --help order.  The flag is --name with dashes, the
# config-file key the name with dashes or underscores; a None default means required,
# or off where the help says so.  ebn0 stays a string for parse_ebn0 (exit 1, not 2).
SETTINGS = {
    "scheme": (str, None, "modulation scheme"),
    "ntx": (int, None, "transmit antennas (implied for scck*)"),
    "nrx": (int, None, "receive antennas"),
    "ebn0": (str, None, "comma list or start:step:stop, in dB"),
    "frames": (int, 1000, "frames per point"),
    "seed": (int, 1, "master seed"),
    "out": (str, None, "output CSV path (default stdout)"),
    "taps": (int, SimConfig.taps, "channel tap count"),
    "nsub": (int, OfdmParams.n_sub, "subcarriers"),
    "cp": (int, OfdmParams.cp_len, "cyclic prefix length"),
    "symbols_per_frame": (int, SimConfig.symbols_per_frame, "OFDM symbols per frame"),
    "max_bit_errors": (int, SimConfig.max_bit_errors,
                       "early-stop threshold per point (default off)"),
    "workers": (int, 1, "an integer >= 1, no other effect: a second CPU runs every other frame"),
}
DEFAULTS = {name: default for name, (_, default, _) in SETTINGS.items()}


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
        steps = (stop - start) / step  # inf for a subnormal step
        if not steps < 10_000:
            raise ValueError(f"ebn0 range {text!r} has {steps:.3g} steps, not under 10000")
        count = int(round(steps)) + 1
        # start + i*step in decimal, so 0:0.1:0.3 ends in 0.3, not 0.30000000000000004
        values = [float(Decimal(parts[0]) + i * Decimal(parts[1])) for i in range(max(count, 0))]
        values = [v for v in values if v <= stop + 1e-9]
        if not values:
            raise ValueError(f"empty ebn0 range {text!r}")
        return tuple(values)
    entries = [p.strip() for p in text.split(",") if p.strip()]
    if not entries:
        raise ValueError(f"empty ebn0 list {text!r}")
    values = tuple(map(float, entries))
    for entry, value in zip(entries, values):
        # 1e400 overflows to inf: only an infinity spelled out means noiseless
        if not math.isfinite(value) and entry.lower().lstrip("+-") not in ("inf", "infinity"):
            raise ValueError(f"ebn0 {entry!r} is not a finite number; write inf for no noise")
    return values


def read_config_file(path: str) -> dict:
    """key=value lines keyed by long flag name, typed per SETTINGS; # comments ignored."""
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
            if name not in SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            kind, value = SETTINGS[name][0], value.strip()
            try:
                settings[name] = kind(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: key {name!r} expects an integer, "
                                 f"got {value!r}") from None
    return settings


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scckm", description="Monte Carlo BER sweeps for SCCKM and SM over MIMO-OFDM")
    parser.add_argument("--config", help="key=value settings file; flags override it")
    for name, (kind, default, text) in SETTINGS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=kind,
                            choices=SCHEMES if name == "scheme" else None,
                            help=text if default is None else f"{text} (default {default})")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    settings = dict(DEFAULTS)
    if args.config:
        settings.update(read_config_file(args.config))
    settings.update((key, value) for key, value in vars(args).items()
                    if key != "config" and value is not None)
    if settings["ebn0"] is not None:
        settings["ebn0"] = parse_ebn0(settings["ebn0"])
    return settings


def build_config(settings: dict) -> SimConfig:
    """A SimConfig from resolved settings; a missing setting takes its default."""
    settings = {**DEFAULTS, **settings}
    scheme = settings["scheme"]
    if not scheme:
        raise ValueError("a scheme is required (--scheme or scheme= in the config file)")
    ntx = settings["ntx"]
    # an unknown scheme is left for SimConfig to report
    if ntx is None and scheme in SCHEMES:
        if SCHEMES[scheme].codebook is None:
            raise ValueError(f"{scheme} requires --ntx")
        ntx = SCHEMES[scheme].table().shape[1]
    if settings["nrx"] is None:
        raise ValueError("--nrx is required")
    if not settings["ebn0"]:
        raise ValueError("--ebn0 is required")
    return SimConfig(scheme=scheme, n_tx=ntx, n_rx=settings["nrx"],
                     ebn0_db=tuple(settings["ebn0"]), frames=settings["frames"],
                     seed=settings["seed"], symbols_per_frame=settings["symbols_per_frame"],
                     ofdm=OfdmParams(n_sub=settings["nsub"], cp_len=settings["cp"]),
                     taps=settings["taps"], max_bit_errors=settings["max_bit_errors"])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as "-6,0" for a flag; "--ebn0=-6,0" it reads as a value
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--ebn0" and not argv[i + 1].startswith("--"):
            argv[i:i + 2] = ["--ebn0=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    try:
        settings = _resolve(args)
        curve = run_sweep(build_config(settings), workers=settings["workers"])
        emit_csv(curve, settings["out"] or sys.stdout)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
