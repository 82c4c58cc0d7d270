#!/usr/bin/env python3
"""Per-stage cost of the simulator's chain, before and after a change.

Run from the repository root:

    python3 scripts/bench_chain.py --before <git revision> --out BENCH.json

The ``--before`` revision's ``src/`` is extracted with ``git archive`` and
this checkout's ``src/`` is copied, into sibling directories of one temporary
directory with names of one length, so that neither side runs from this
checkout.  Both sides run in alternating fresh interpreters, ``--reps`` each.
One interpreter runs every config of the matrix below, each two ways, all at
seed 1 and one Eb/N0, each for its fixed frame count (about 1 s untraced):

* untraced: ms per OFDM symbol and minor page faults per symbol;
* with the stage calls ``scckm.sim`` makes timed by
  ``perfbench/tracing.py``: ms per symbol by stage.

The JSON holds the median of each over the reps, with the quartiles of ms
per symbol beside its median, the error counts of each side (every run of a
side must give the same counts), the machine (cores, numpy, BLAS and its
thread variables) and the line count of each side's ``src/scckm``.  The
script writes the JSON and prints one row per config, then exits 1 if any
config's error counts differ between the two sides.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (name, scheme, n_tx, n_rx, frames): the config matrix of ROADMAP aim 1.  Each
# config runs a fixed frame count, never a timed one, so that both sides simulate
# the same bits; the counts make each untraced sample about 1 s at the ms/symbol
# of BENCH_10.json (2 vCPUs, OpenBLAS), where 80 symbols per config gave an
# inter-quartile range of 20-30% of the median
CONFIGS = (
    ("scck2-2x4", "scck2", 2, 4, 62),
    ("scck4-4x8", "scck4", 4, 8, 46),
    ("scck8-8x16", "scck8", 8, 16, 25),
    ("sm-bpsk-8x16", "sm-bpsk", 8, 16, 25),
    ("sm-4qam-4x8", "sm-4qam", 4, 8, 40),
)
SEED = 1
# every config makes bit errors at 0 dB, so equal counts check the chain's
# decisions; the work per symbol does not depend on Eb/N0
EBN0_DB = 0.0
SYMBOLS_PER_FRAME = 20


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _timed(run_point, config):
    """(seconds, minor faults, point) of one run_point call."""
    faults = _minor_faults()
    start = time.perf_counter()
    point = run_point(config, EBN0_DB)
    return time.perf_counter() - start, _minor_faults() - faults, point


def measure(src: Path) -> dict:
    """Every config two ways in this interpreter, with scckm from ``src``."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import scckm
    import tracing
    from scckm.sim import SimConfig, run_point
    if not Path(scckm.__file__).is_relative_to(src):
        raise RuntimeError(f"imported scckm from {scckm.__file__}, not from {src}")

    results = {}
    for name, scheme, n_tx, n_rx, frames in CONFIGS:
        config = SimConfig(scheme=scheme, n_tx=n_tx, n_rx=n_rx, ebn0_db=(EBN0_DB,),
                           frames=frames, seed=SEED, symbols_per_frame=SYMBOLS_PER_FRAME)
        symbols = frames * SYMBOLS_PER_FRAME
        run_point(dataclasses.replace(config, frames=1, symbols_per_frame=1), EBN0_DB)
        seconds, faults, point = _timed(run_point, config)
        tracer = tracing.Tracer()
        root = tracer.open("sim.run_point", -1, 0)
        with tracing.traced_program(tracer, root, 0):
            traced = run_point(config, EBN0_DB)
        tracer.close(root)
        stages = {stage: ns / 1e6 / symbols
                  for stage, ns in tracer.child_totals_ns("sim.run_point").items()}
        stages["sim.self"] = tracer.totals_ns()["sim.run_point"] / 1e6 / symbols \
            - sum(stages.values())
        results[name] = {
            "ms_per_symbol": seconds * 1e3 / symbols,
            "faults_per_symbol": faults / symbols,
            "stage_ms_per_symbol": stages,
            "counts": [point.bits_simulated, point.bit_errors],
            "counts_agree": point == traced,
        }
    return results


def line_count(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (src / "scckm").glob("*.py"))


def machine_facts() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.26 prints instead
        deps = {}
    blas = deps.get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
            "blas_thread_env": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS}}


def run_child(src: Path) -> dict:
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(src)],
                          capture_output=True, text=True, check=True, timeout=1800)
    return json.loads(done.stdout)


def quartiles(values: list) -> list:
    """[first quartile, third quartile] of values (inclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def median_of(runs: list, config: str) -> dict:
    """Median of every timing over the runs of one side; counts from the first."""
    first = runs[0][config]
    if any(r[config]["counts"] != first["counts"] for r in runs):
        raise RuntimeError(f"{config}: counts differ between runs of one side")
    summary = {key: statistics.median(r[config][key] for r in runs)
               for key in ("ms_per_symbol", "faults_per_symbol")}
    summary["ms_per_symbol_quartiles"] = quartiles([r[config]["ms_per_symbol"] for r in runs])
    summary["stage_ms_per_symbol"] = {
        stage: statistics.median(r[config]["stage_ms_per_symbol"].get(stage, 0.0)
                                 for r in runs)
        for stage in first["stage_ms_per_symbol"]}
    summary["counts"] = first["counts"]
    summary["counts_agree"] = all(r[config]["counts_agree"] for r in runs)
    return summary


def compare(before_rev: str, reps: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        before_src, after_src = Path(tmp, "old", "src"), Path(tmp, "new", "src")
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                                  before_rev, "src"], capture_output=True, check=True)
        before_src.parent.mkdir()
        subprocess.run(["tar", "-x", "-C", str(before_src.parent)], input=archive.stdout,
                       check=True)
        shutil.copytree(ROOT / "src", after_src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        runs = {"before": [], "after": []}
        for rep in range(reps):
            order = ("before", "after") if rep % 2 == 0 else ("after", "before")
            for side in order:
                runs[side].append(run_child(before_src if side == "before" else after_src))
        lines = {"before": line_count(before_src), "after": line_count(after_src)}
    configs = {}
    for name, *_ in CONFIGS:
        before, after = median_of(runs["before"], name), median_of(runs["after"], name)
        configs[name] = {"before": before, "after": after,
                         "speedup": before["ms_per_symbol"] / after["ms_per_symbol"],
                         "counts_equal": before["counts"] == after["counts"]}
    return {
        "command": " ".join([Path(sys.executable).name, *sys.argv]),
        "before": {"revision": before_rev, "src_scckm_lines": lines["before"]},
        "after": {"revision": "working tree", "src_scckm_lines": lines["after"]},
        "settings": {"seed": SEED, "ebn0_db": EBN0_DB,
                     "frames": {name: frames for name, *_, frames in CONFIGS},
                     "symbols_per_frame": SYMBOLS_PER_FRAME, "reps": reps,
                     "statistic": "median over reps, and quartiles (inclusive) of "
                                  "ms_per_symbol"},
        "machine": machine_facts(),
        "configs": configs,
    }


def cell(median: float, bounds: list) -> str:
    """A median and its quartiles as "median [first quartile, third quartile]"."""
    return f"{median:.3f} [{bounds[0]:.3f}, {bounds[1]:.3f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="git revision to compare against")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--reps", type=int, default=15, help="interpreters per side")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child)))
        return 0
    if args.before is None or args.out is None:
        parser.error("--before and --out are required")
    if args.reps < 2:
        parser.error("--reps must be >= 2: quartiles need two runs")
    report = compare(args.before, args.reps)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, row in report["configs"].items():
        before, after = row["before"], row["after"]
        print(f"{name}: {cell(before['ms_per_symbol'], before['ms_per_symbol_quartiles'])} -> "
              f"{cell(after['ms_per_symbol'], after['ms_per_symbol_quartiles'])} ms/symbol "
              f"({row['speedup']:.2f}x), faults/symbol "
              f"{before['faults_per_symbol']:.0f} -> "
              f"{after['faults_per_symbol']:.0f}, counts equal: {row['counts_equal']}")
    return 0 if all(row["counts_equal"] for row in report["configs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
