#!/usr/bin/env python3
"""Per-stage cost of the simulator's chain, before and after a change.

Run from the repository root:

    python3 scripts/bench_chain.py --before <git revision> --out BENCH.json

The ``--before`` revision's ``src/`` is extracted with ``git archive``; the
"after" side is this checkout's ``src/``.  Both sides run in alternating
fresh interpreters, ``--reps`` each.  One interpreter runs every config of
the matrix below, each three ways, all at seed 1 and one Eb/N0:

* one worker, untraced: ms per OFDM symbol and minor page faults per symbol;
* one worker, with the stage calls ``scckm.sim`` makes timed by
  ``perfbench/tracing.py``: ms per symbol by stage;
* two worker threads, untraced: ms and faults per symbol, and the worker
  efficiency, one-worker time over twice the two-worker time.

The JSON holds the median of each over the reps, the error counts of each
side (every run of a side must give the same counts), the machine (cores,
numpy, BLAS and its thread variables) and the line count of each side's
``src/scckm``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# (name, scheme, n_tx, n_rx): the config matrix of ROADMAP aim 1
CONFIGS = (
    ("scck2-2x4", "scck2", 2, 4),
    ("scck4-4x8", "scck4", 4, 8),
    ("scck8-8x16", "scck8", 8, 16),
    ("sm-bpsk-8x16", "sm-bpsk", 8, 16),
    ("sm-4qam-4x8", "sm-4qam", 4, 8),
)
SEED = 1
# every config makes bit errors at 0 dB, so equal counts check the chain's
# decisions; the work per symbol does not depend on Eb/N0
EBN0_DB = 0.0
FRAMES = 4
SYMBOLS_PER_FRAME = 20


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _timed(run_point, config, workers: int):
    """(seconds, minor faults, point) of one run_point call."""
    faults = _minor_faults()
    start = time.perf_counter()
    point = run_point(config, EBN0_DB, workers=workers)
    return time.perf_counter() - start, _minor_faults() - faults, point


def measure(src: Path) -> dict:
    """Every config three ways in this interpreter, with scckm from ``src``."""
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing
    from scckm.sim import SimConfig, run_point

    results = {}
    for name, scheme, n_tx, n_rx in CONFIGS:
        config = SimConfig(scheme=scheme, n_tx=n_tx, n_rx=n_rx, ebn0_db=(EBN0_DB,),
                           frames=FRAMES, seed=SEED, symbols_per_frame=SYMBOLS_PER_FRAME)
        symbols = FRAMES * SYMBOLS_PER_FRAME
        run_point(dataclasses.replace(config, frames=1, symbols_per_frame=1), EBN0_DB)
        one_s, one_faults, point = _timed(run_point, config, 1)
        two_s, two_faults, pooled = _timed(run_point, config, 2)
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
            "ms_per_symbol": one_s * 1e3 / symbols,
            "faults_per_symbol": one_faults / symbols,
            "workers2_ms_per_symbol": two_s * 1e3 / symbols,
            "workers2_faults_per_symbol": two_faults / symbols,
            "worker_efficiency": one_s / (2 * two_s),
            "stage_ms_per_symbol": stages,
            "counts": [point.bits_simulated, point.bit_errors],
            "counts_agree": point == pooled == traced,
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


def median_of(runs: list, config: str) -> dict:
    """Median of every timing over the runs of one side; counts from the first."""
    first = runs[0][config]
    if any(r[config]["counts"] != first["counts"] for r in runs):
        raise RuntimeError(f"{config}: counts differ between runs of one side")
    summary = {key: statistics.median(r[config][key] for r in runs)
               for key in ("ms_per_symbol", "faults_per_symbol", "workers2_ms_per_symbol",
                           "workers2_faults_per_symbol", "worker_efficiency")}
    summary["stage_ms_per_symbol"] = {
        stage: statistics.median(r[config]["stage_ms_per_symbol"].get(stage, 0.0)
                                 for r in runs)
        for stage in first["stage_ms_per_symbol"]}
    summary["counts"] = first["counts"]
    summary["counts_agree"] = all(r[config]["counts_agree"] for r in runs)
    return summary


def compare(before_rev: str, reps: int) -> dict:
    after_src = ROOT / "src"
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                                  before_rev, "src"], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        before_src = Path(tmp) / "src"
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
        "settings": {"seed": SEED, "ebn0_db": EBN0_DB, "frames": FRAMES,
                     "symbols_per_frame": SYMBOLS_PER_FRAME, "reps": reps,
                     "statistic": "median over reps"},
        "machine": machine_facts(),
        "configs": configs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="git revision to compare against")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--reps", type=int, default=7, help="interpreters per side")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(measure(args.child)))
        return 0
    if args.before is None or args.out is None:
        parser.error("--before and --out are required")
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    report = compare(args.before, args.reps)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, row in report["configs"].items():
        print(f"{name}: {row['before']['ms_per_symbol']:.3f} -> "
              f"{row['after']['ms_per_symbol']:.3f} ms/symbol "
              f"({row['speedup']:.2f}x), faults/symbol "
              f"{row['before']['faults_per_symbol']:.0f} -> "
              f"{row['after']['faults_per_symbol']:.0f}, counts equal: {row['counts_equal']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
