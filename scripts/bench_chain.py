#!/usr/bin/env python3
"""Per-stage cost of the simulator's chain, before and after a change.

Run from the repository root:

    python3 scripts/bench_chain.py --before <git revision> --out BENCH.json

The ``--before`` revision's ``src/`` is extracted with ``git archive`` and
this checkout's ``src/`` is copied, into sibling directories of one temporary
directory with names of one length, so that neither side runs from this
checkout.  Both trees are then imported into this one interpreter, as the
packages ``scckm_before`` and ``scckm_after``.  Every config of the matrix
below runs at seed 1 and one Eb/N0, two ways:

* untraced: ``PAIRS`` pairs of ``PAIR_FRAMES``-frame ``run_point`` calls,
  one per side, alternating which side goes first.  Each side gets the
  median and quartiles of its wall-clock ms per OFDM symbol and the minor
  page faults per symbol of this process alone, not of the helper process
  its ``run_point`` may run frames in; the pairs give the median and quartiles
  of the ratio before/after, in which the host's slow and fast phases,
  which move both calls of a pair alike, cancel;
* traced, once per side at the config's fixed frame count, with the stage
  calls ``scckm.sim`` makes timed by ``perfbench/tracing.py``: ms per symbol
  by stage, plus ``channel.gram`` on a side whose ``run_point`` calls
  ``gram_response``, and the error counts.

Both sides share the process: the heap pad ``scckm.sim`` sets on import,
the BLAS threads and the heap itself, so a change to such state does not
show here; perfbench's end-to-end pairs measure it.  The JSON also holds the
machine facts of ``perfbench/run.py``, the number of CPUs this process may
run on and the line count of each side's ``src/scckm``.  The script writes
the JSON and prints one row per config, then exits 1 if any config's error
counts differ between the two sides or its traced run makes no bit error.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import tracing  # noqa: E402
from run import machine_facts  # noqa: E402

# (name, scheme, n_tx, n_rx, frames): the config matrix of ROADMAP aim 1.  The
# traced run of each config simulates its fixed frame count, about 1 s
# untraced at the ms/symbol of BENCH_10.json (2 vCPUs, OpenBLAS), and for
# scck8-8x32 at its 1.5 ms/symbol with every product on one thread.  Both
# sides share this interpreter's BLAS threads, so no pair ratio shows how a
# product threads; scck8-8x32, the one config whose per-tap channel product
# is past OpenBLAS's threading size, is here for its counts
CONFIGS = (
    ("scck2-2x4", "scck2", 2, 4, 62),
    ("scck4-4x8", "scck4", 4, 8, 46),
    ("scck8-8x16", "scck8", 8, 16, 25),
    ("sm-bpsk-8x16", "sm-bpsk", 8, 16, 25),
    ("sm-4qam-4x8", "sm-4qam", 4, 8, 40),
    ("scck8-8x32", "scck8", 8, 32, 33),
)
SIDES = ("before", "after")
SEED = 1
# every config makes bit errors at -6 dB in its traced frames at seed 1 (at
# 0 dB scck8-8x32 decodes every bit), so equal counts check the chain's
# decisions; the work per symbol does not depend on Eb/N0
EBN0_DB = -6.0
SYMBOLS_PER_FRAME = 20
# about 70 pairs put the standard error of the pair-ratio median near 1% in a
# null test of two copies of one tree; 2-frame runs keep the two calls of a
# pair within one phase of the host
PAIRS = 70
PAIR_FRAMES = 2


def load_tree(name: str, src: Path):
    """Import ``src/scckm`` as the package ``name``, which works because the
    package imports its own modules only relatively."""
    init = src / "scckm" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _timed(run_point, config):
    """(seconds, minor faults) of one run_point call."""
    faults = _minor_faults()
    start = time.perf_counter()
    run_point(config, EBN0_DB)
    return time.perf_counter() - start, _minor_faults() - faults


def _traced(package, config) -> tuple:
    """(stage ms per symbol, [bits, errors]) of one traced run_point call."""
    saved = sys.modules.get("scckm")
    # traced_program finds the stage functions through ``import scckm``
    sys.modules["scckm"] = package
    try:
        # the Gram is a stage only on a side that computes it, and is part
        # of sim.self before that
        with mock.patch.dict(tracing.PROGRAM_STAGES, gram_response="channel.gram"):
            tracer = tracing.Tracer()
            root = tracer.open("sim.run_point", -1, 0)
            with tracing.traced_program(tracer, root, 0):
                point = package.sim.run_point(config, EBN0_DB)
            tracer.close(root)
    finally:
        if saved is None:
            del sys.modules["scckm"]
        else:
            sys.modules["scckm"] = saved
    symbols = config.frames * config.symbols_per_frame
    stages = {stage: ns / 1e6 / symbols
              for stage, ns in tracer.child_totals_ns("sim.run_point").items()}
    stages["sim.self"] = tracer.totals_ns()["sim.run_point"] / 1e6 / symbols \
        - sum(stages.values())
    return stages, [point.bits_simulated, point.bit_errors]


def quartiles(values: list) -> list:
    """[first quartile, third quartile] of values (inclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def measure(packages: dict, scheme, n_tx, n_rx, frames) -> dict:
    """One config of the matrix, with each side's package from ``packages``."""
    configs = {side: packages[side].sim.SimConfig(
        scheme=scheme, n_tx=n_tx, n_rx=n_rx, ebn0_db=(EBN0_DB,), frames=frames,
        seed=SEED, symbols_per_frame=SYMBOLS_PER_FRAME) for side in SIDES}
    short = {side: dataclasses.replace(c, frames=PAIR_FRAMES) for side, c in configs.items()}
    for side in SIDES:
        packages[side].sim.run_point(
            dataclasses.replace(configs[side], frames=1, symbols_per_frame=1), EBN0_DB)
    runs = {side: [] for side in SIDES}
    for pair in range(PAIRS):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            runs[side].append(_timed(packages[side].sim.run_point, short[side]))
    symbols = PAIR_FRAMES * SYMBOLS_PER_FRAME
    row = {}
    for side in SIDES:
        ms = [seconds * 1e3 / symbols for seconds, _ in runs[side]]
        stages, counts = _traced(packages[side], configs[side])
        row[side] = {"ms_per_symbol": statistics.median(ms),
                     "ms_per_symbol_quartiles": quartiles(ms),
                     "faults_per_symbol": sum(f for _, f in runs[side]) / symbols / PAIRS,
                     "stage_ms_per_symbol": stages, "counts": counts}
    ratios = [b / a for (b, _), (a, _) in zip(runs["before"], runs["after"])]
    row["pair_ratio"] = {"median": statistics.median(ratios), "quartiles": quartiles(ratios)}
    row["counts_equal"] = row["before"]["counts"] == row["after"]["counts"]
    return row


def line_count(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (src / "scckm").glob("*.py"))


def compare(before_rev: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {"before": Path(tmp, "old", "src"), "after": Path(tmp, "new", "src")}
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar",
                                  before_rev, "src"], capture_output=True, check=True)
        srcs["before"].parent.mkdir()
        subprocess.run(["tar", "-x", "-C", str(srcs["before"].parent)],
                       input=archive.stdout, check=True)
        shutil.copytree(ROOT / "src", srcs["after"],
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        packages = {side: load_tree(f"scckm_{side}", srcs[side]) for side in SIDES}
        configs = {name: measure(packages, *rest) for name, *rest in CONFIGS}
        lines = {side: line_count(srcs[side]) for side in SIDES}
    return {
        "command": " ".join([Path(sys.executable).name, *sys.argv]),
        "before": {"revision": before_rev, "src_scckm_lines": lines["before"]},
        "after": {"revision": "working tree", "src_scckm_lines": lines["after"]},
        "settings": {"seed": SEED, "ebn0_db": EBN0_DB, "pairs": PAIRS,
                     "pair_frames": PAIR_FRAMES,
                     "traced_frames": {name: frames for name, *_, frames in CONFIGS},
                     "symbols_per_frame": SYMBOLS_PER_FRAME,
                     "statistic": "median and quartiles (inclusive) over the pairs of "
                                  "ms_per_symbol and of the ratio before/after; mean "
                                  "faults_per_symbol of the calling process only, not "
                                  "of helper processes; one traced run per side"},
        "machine": {**machine_facts(), "affinity_cpus": len(os.sched_getaffinity(0))},
        "configs": configs,
    }


def cell(median: float, bounds: list) -> str:
    """A median and its quartiles as "median [first quartile, third quartile]"."""
    return f"{median:.3f} [{bounds[0]:.3f}, {bounds[1]:.3f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="git revision to compare against")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    report = compare(args.before)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, row in report["configs"].items():
        before, after, ratio = row["before"], row["after"], row["pair_ratio"]
        print(f"{name}: {cell(before['ms_per_symbol'], before['ms_per_symbol_quartiles'])} -> "
              f"{cell(after['ms_per_symbol'], after['ms_per_symbol_quartiles'])} ms/symbol, "
              f"pair ratio {cell(ratio['median'], ratio['quartiles'])}, "
              f"calling-process faults/symbol {before['faults_per_symbol']:.0f} -> "
              f"{after['faults_per_symbol']:.0f}, "
              f"counts equal: {row['counts_equal']}, bit errors: {after['counts'][1]}")
    # a config without bit errors would pass "counts equal" whatever it decodes
    return 0 if all(row["counts_equal"] and row["after"]["counts"][1]
                    for row in report["configs"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
