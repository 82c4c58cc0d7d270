#!/usr/bin/env python3
"""Benchmark of the scckm BER simulator: simulated Mbit/s on fixed chain workloads.

Run from the repository root:

    python3 perfbench/run.py --workload scck8-8x16 --seed 1 --seconds 55 --trace 0

With ``--trace 0`` it repeats the workload's sweep for about ``--seconds``
seconds through the public API, each pass after one set-up probe in a fresh
interpreter, and reports the end-to-end metrics (median over passes).  With
``--trace 1`` each pass runs the workload untraced, then the program with its
stage calls wrapped (``tracing.py``) and the replica of its chain
(``replica.py``), and it reports the per-layer split.  Every simulated count
is checked, against ``golden.json`` when it holds the seed and against the
replica otherwise.  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.  The exit code is 0 only when every
check passed.

``--quick`` shrinks every workload to 2 frames of 2 symbols per point and adds
a -6 dB point, for tests.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    n_tx: int
    n_rx: int
    ebn0_db: tuple
    frames: int
    workers: int = 1
    max_bit_errors: int | None = None
    via_cli: bool = False  # drive scckm.cli.main with --out instead of run_point
    symbols_per_frame: int = 20

    def quick(self) -> "Workload":
        """2 frames of 2 symbols per point, plus a -6 dB point where every
        scheme makes bit errors."""
        return dataclasses.replace(self, ebn0_db=(-6.0,) + self.ebn0_db,
                                   frames=min(self.frames, 2), symbols_per_frame=2)


WORKLOADS = {w.name: w for w in (
    # shares of symbol time from --trace 1 at seed 1 on a 2-vCPU x86 VM:
    # ZF 56% and the 256-codeword ML search 35%
    Workload("scck8-8x16", "scck8", 8, 16, (8.0,), frames=10),
    # ZF 86%, detection 2%, so a detection change predicts no change here;
    # through the CLI and its CSV output; no bit errors at 8 dB, so the
    # error budget is checked after every frame but the run goes to the cap
    Workload("sm-bpsk-8x16", "sm-bpsk", 8, 16, (8.0,), frames=12,
             max_bit_errors=500, via_cli=True),
)}
# a traced pass also runs the workload on this many worker threads, to check
# that they reproduce the one-worker counts and to time the pool
POOL_WORKERS = 2

END_TO_END_UNITS = {"sim_mbit_per_s": "Mbit/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def load_scckm() -> None:
    """Import scckm from this checkout's src/, never from anywhere else."""
    if not (SRC / "scckm" / "__init__.py").is_file():
        raise BenchError("src/scckm not found beside perfbench/; run from a full checkout")
    sys.path.insert(0, str(SRC))
    scckm = importlib.import_module("scckm")
    if Path(scckm.__file__).resolve().parent != SRC / "scckm":
        raise BenchError(f"imported scckm from {scckm.__file__}, not from src/")
    importlib.import_module("scckm.cli")


def make_config(workload: Workload, seed: int):
    from scckm.sim import SimConfig
    return SimConfig(scheme=workload.scheme, n_tx=workload.n_tx, n_rx=workload.n_rx,
                     ebn0_db=workload.ebn0_db, frames=workload.frames, seed=seed,
                     symbols_per_frame=workload.symbols_per_frame,
                     max_bit_errors=workload.max_bit_errors)


def cli_argv(workload: Workload, seed: int, out: Path) -> list:
    argv = ["--scheme", workload.scheme, "--ntx", str(workload.n_tx),
            "--nrx", str(workload.n_rx),
            "--ebn0=" + ",".join(repr(e) for e in workload.ebn0_db),
            "--frames", str(workload.frames), "--seed", str(seed),
            "--symbols-per-frame", str(workload.symbols_per_frame),
            "--workers", str(workload.workers), "--out", str(out)]
    if workload.max_bit_errors is not None:
        argv += ["--max-bit-errors", str(workload.max_bit_errors)]
    return argv


def warm_up(config) -> None:
    """Simulate one untimed symbol, building the scheme's codebook on the way."""
    from scckm.sim import run_point
    one = dataclasses.replace(config, frames=1, symbols_per_frame=1, max_bit_errors=None)
    run_point(one, one.ebn0_db[0])


def curve_csv(config, points) -> str:
    """What emit_csv writes for these [ebn0_db, bits_simulated, bit_errors] points."""
    from scckm.sim import BerCurve, BerPoint, emit_csv
    text = io.StringIO()
    emit_csv(BerCurve(config, tuple(BerPoint(e, b, n, n / b) for e, b, n in points)), text)
    return text.getvalue()


def run_once(workload: Workload, config, out: Path):
    """One pass of the workload: (points, CSV text or None)."""
    if workload.via_cli:
        from scckm import cli
        from scckm.sim import read_csv
        if cli.main(cli_argv(workload, config.seed, out)) != 0:
            raise BenchError("scckm.cli.main returned non-zero")
        text = out.read_text(encoding="utf-8")
        _, _, points = read_csv(io.StringIO(text))
        return [[p.ebn0_db, p.bits_simulated, p.bit_errors] for p in points], text
    from scckm.sim import run_point
    points = []
    for e in sorted(config.ebn0_db):
        p = run_point(config, e, workers=workload.workers)
        points.append([float(e), p.bits_simulated, p.bit_errors])
    return points, None


def failed_points(points, csv, expected) -> int:
    """Points whose counts, or whose CSV row, differ from the expected ones."""
    want = expected["points"]
    if len(points) != len(want):
        return len(want)
    bad = {i for i, (got, ref) in enumerate(zip(points, want)) if list(got) != list(ref)}
    if expected.get("csv") is not None and csv != expected["csv"]:
        got_lines, want_lines = csv.splitlines(), expected["csv"].splitlines()
        if got_lines[:3] != want_lines[:3] or len(got_lines) != len(want_lines):
            return len(want)
        bad |= {i for i, (g, w) in enumerate(zip(got_lines[3:], want_lines[3:])) if g != w}
    return len(bad)


def golden_key(workload_name: str, quick: bool, seed: int) -> str:
    return f"{workload_name}{'@quick' if quick else ''}/seed={seed}"


def load_golden(path: Path, key: str):
    if not path.is_file():
        raise BenchError(f"golden file {path.name} is missing")
    return json.loads(path.read_text(encoding="utf-8"))["entries"].get(key)


def reference(workload: Workload, config) -> dict:
    """Expected counts from the replica, for seeds without golden values."""
    import replica
    import tracing
    points = [list(p) for p in replica.run_sweep_replica(config, tracing.Tracer())]
    return {"points": points,
            "csv": curve_csv(config, points) if workload.via_cli else None}


def seed1_check(base: Workload, golden_path: Path, out: Path):
    """(failed, attempted) points of the quick variant at seed 1 against its
    golden values: checks the program's arithmetic whatever the run's seed."""
    workload = base.quick()
    expected = load_golden(golden_path, golden_key(base.name, True, 1))
    if expected is None:
        raise BenchError(f"golden file lacks the quick seed-1 entry of {base.name}")
    points, csv = run_once(workload, make_config(workload, 1), out)
    return failed_points(points, csv, expected), len(expected["points"])


def repeat(seconds: float, once) -> list:
    """Call ``once`` until another call would pass ``seconds``; at least once."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        results.append(once())
        durations.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def setup_probe_seconds(args) -> float:
    """Time from starting a fresh interpreter to the start of the timed sweep."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe failed with exit code {code}")
    return seconds


def timed_run(workload: Workload, config, expected, seconds: float, out: Path, args):
    """Timed passes, each after one set-up probe, so that set-up is sampled
    over the same minutes as the sweep."""
    def once():
        setup_s = setup_probe_seconds(args)
        start = time.perf_counter()
        points, csv = run_once(workload, config, out)
        return time.perf_counter() - start, points, csv, setup_s

    reps = repeat(seconds, once)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    source = "golden" if expected is not None else "replica"
    if expected is None:
        expected = reference(workload, config)
    failed = sum(failed_points(points, csv, expected) for _, points, csv, _ in reps)
    bits = sum(p[1] for p in reps[0][1])
    wall_s = statistics.median(r[0] for r in reps)
    values = {"sim_mbit_per_s": bits / wall_s / 1e6, "wall_s": wall_s,
              "setup_s": statistics.median(r[3] for r in reps), "peak_rss_mb": peak_rss_mb}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    counts = {"measured": reps[-1][1], "expected": expected["points"],
              "expected_from": source, "passes": len(reps)}
    return metrics, len(reps) * len(expected["points"]), failed, counts


def computed_counts(config, symbols: int) -> dict:
    """Work counts derived from the config, exact for a given pass.

    ZF is costed as its normal-equations core (Gram matrix plus matched
    filter, 8 real flops per complex multiply-add) and detection as one
    complex multiply-add per nonzero chip of each hypothesis; bytes count
    each complex input and output once.  Both are labelled computed: they
    do not follow the implementation.
    """
    import replica
    n_sub, n_tx, n_rx = config.ofdm.n_sub, config.n_tx, config.n_rx
    hyp = replica.hypotheses_per_subcarrier(config)
    chips = n_tx if config.scheme in replica.SCCK_CODEBOOKS else 1
    per_sub = symbols * n_sub
    return {
        "sim.symbols": (symbols, "count"),
        "kernels.detect_hypotheses": (per_sub * hyp, "count"),
        "modem.zf_matrices": (per_sub, "count"),
        "modem.zf_flops_computed": (per_sub * 8 * n_rx * n_tx * (n_tx + 1), "flop"),
        "modem.zf_bytes_computed": (per_sub * 16 * (n_rx * n_tx + n_rx + n_tx), "B"),
        "modem.detect_flops_computed": (per_sub * 8 * hyp * chips, "flop"),
        "modem.detect_bytes_computed": (per_sub * (16 * n_tx + 8)
                                        + symbols * 16 * hyp * chips, "B"),
    }


class TracedPass(NamedTuple):
    untraced_s: float
    points: list
    csv: str | None
    pool_s: float
    pool_points: list
    pool_csv: str | None
    program_points: list
    traced_points: list
    traced_csv: str | None
    tracer: "tracing.Tracer"


def traced_run(workload: Workload, config, golden, seconds: float, out: Path):
    """Passes of: the untraced workload, on one worker and on POOL_WORKERS;
    then, per point, the program's run_point on one worker with its stage
    calls traced, followed by the traced replica of the same point."""
    import replica
    import tracing
    from scckm.sim import run_point
    pooled = dataclasses.replace(workload, workers=POOL_WORKERS)

    def once():
        start = time.perf_counter()
        points, csv = run_once(workload, config, out)
        untraced_s = time.perf_counter() - start
        start = time.perf_counter()
        pool_points, pool_csv = run_once(pooled, config, out)
        pool_s = time.perf_counter() - start
        tracer = tracing.Tracer()
        program, traced = [], []
        for i, e in enumerate(sorted(config.ebn0_db)):
            root = tracer.open("sim.run_point", -1, i)
            with tracing.traced_program(tracer, root, i):
                p = run_point(config, e, workers=1)
            tracer.close(root)
            program.append([e, p.bits_simulated, p.bit_errors])
            traced.append([e, *replica.run_point_replica(config, e, i, tracer)])
        traced_csv = tracer.call("cli.emit_csv", -1, (-1, -1, -1), curve_csv, config, traced)
        return TracedPass(untraced_s, points, csv, pool_s, pool_points, pool_csv,
                          program, traced,
                          traced_csv if workload.via_cli else None, tracer)

    reps = repeat(seconds, once)
    failed = 0
    for rep in reps:
        # with golden values every run is checked against them; without,
        # the program's runs are checked against the replica
        want = golden or {"points": rep.traced_points, "csv": rep.traced_csv}
        failed += max(failed_points(rep.points, rep.csv, want),
                      failed_points(rep.pool_points, rep.pool_csv, want),
                      failed_points(rep.program_points, None, {"points": want["points"]}),
                      failed_points(rep.traced_points, rep.traced_csv, want))
    symbols = sum(p[1] for p in reps[0].traced_points) // (
        config.ofdm.n_sub * config.bits_per_subcarrier)
    layers = [layer_metrics(workload, rep, symbols) for rep in reps]
    per_layer = {name: (statistics.median(m[name][0] for m in layers), unit)
                 for name, (_, unit) in layers[0].items()}
    per_layer.update(computed_counts(config, symbols))
    write_spans(reps[-1].tracer, workload, config.seed)
    counts = {"untraced": reps[-1].points, "pool": reps[-1].pool_points,
              "traced_program": reps[-1].program_points,
              "traced_replica": reps[-1].traced_points,
              "expected_from": "golden" if golden is not None else "traced replica",
              "passes": len(reps)}
    return per_layer, len(reps) * len(config.ebn0_db), failed, counts


def layer_metrics(workload: Workload, rep: TracedPass, symbols: int) -> dict:
    """Timings of one traced pass: ms per OFDM symbol by stage, and the rest.

    A stage the program calls through scckm.sim's namespace is timed in the
    program; the bit draw, which the program does inline, in the replica.
    """
    import replica
    tracer = rep.tracer
    totals = tracer.totals_ns()
    program = tracer.child_totals_ns("sim.run_point")
    copy = tracer.child_totals_ns("replica.run_point")
    points = len(rep.traced_points)
    per_symbol = {f"{stage}_ms": ((copy if stage == "sim.bits" else program).get(stage, 0)
                                  / 1e6 / symbols, "ms/symbol")
                  for stage in replica.STAGES}
    busy_ns = totals["sim.run_point"]
    return {
        **per_symbol,
        # includes the inline bit draw and the codebook build, which
        # sim.bits_ms and cck.codebook_ms time separately in the replica
        "sim.self_ms": ((busy_ns - sum(program.values())) / 1e6 / symbols, "ms/symbol"),
        "cck.codebook_ms": (copy.get("cck.codebook", 0) / 1e6 / points, "ms/point"),
        "cli.emit_csv_ms": (totals["cli.emit_csv"] / 1e6, "ms"),
        "sim.worker_efficiency": (busy_ns / 1e9 / (POOL_WORKERS * rep.pool_s), "ratio"),
        "trace.overhead_s": ((busy_ns / 1e9 - rep.untraced_s), "s"),
    }


def write_spans(tracer, workload: Workload, seed: int) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{seed}.json"
    fields = ["name", "parent", "point", "frame", "symbol", "start_ns", "end_ns"]
    path.write_text(json.dumps({"fields": fields, "spans": tracer.spans}), encoding="utf-8")


def machine_facts() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy before 1.26 prints instead
        deps = {}

    def lib(name):
        info = deps.get(name, {})
        return f"{info.get('name', 'unknown')} {info.get('version', 'unknown')}"

    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (SRC / "scckm").glob("*.py"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": lib("blas"), "lapack": lib("lapack"),
            "blas_thread_env": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
            "numba_importable": numba, "src_scckm_lines": lines}


def benchmark(args) -> int:
    base = WORKLOADS[args.workload]
    workload = base.quick() if args.quick else base
    load_scckm()
    golden = load_golden(args.golden, golden_key(base.name, args.quick, args.seed))
    config = make_config(workload, args.seed)
    warm_up(config)
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload.name}-seed{args.seed}-{os.getpid()}.csv"
    try:
        if args.trace:
            metrics, attempted, failed, counts = traced_run(
                workload, config, golden, args.seconds, out)
        else:
            metrics, attempted, failed, counts = timed_run(
                workload, config, golden, args.seconds, out, args)
        seed1_failed, seed1_attempted = seed1_check(base, args.golden, out)
        failed += seed1_failed
        attempted += seed1_attempted
    finally:
        out.unlink(missing_ok=True)
    print("machine:", json.dumps(machine_facts()))
    print(f"workload: {workload.name} seed={args.seed} trace={args.trace} "
          f"workers={workload.workers}")
    print("counts:", json.dumps(counts))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"ops_failed_frac {failed / attempted!r} fraction ({failed} of {attempted} points,"
          f" {seed1_failed} of {seed1_attempted} in the seed-1 quick check)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def probe_setup(args) -> int:
    """Child side of setup_probe_seconds: set up, say so, exit."""
    base = WORKLOADS[args.workload]
    workload = base.quick() if args.quick else base
    load_scckm()
    warm_up(make_config(workload, args.seed))
    print("ready", flush=True)
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="2 frames of 2 symbols per point plus a -6 dB point, for tests")
    parser.add_argument("--golden", type=Path, default=GOLDEN,
                        help="golden counts file (default perfbench/golden.json)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return probe_setup(args) if args.setup_probe else benchmark(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
