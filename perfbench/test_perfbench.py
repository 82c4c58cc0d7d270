"""Quick checks of the benchmark itself: ``python3 -m pytest -q perfbench``.

Most tests run perfbench/run.py in a subprocess on the --quick variant of the
workloads (2 frames of 2 symbols per point).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
UNSEEN_SEED = "3"  # no golden values, so counts are checked against the replica


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seconds", "1",
                           "--quick", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    counts = next((json.loads(line[len("counts:"):]) for line in lines
                   if line.startswith("counts:")), None)
    return proc.returncode, result, counts


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_contract_metrics(workload, trace):
    code, result, _ = run_bench("--workload", workload, "--seed", "1", "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_equal_untraced(workload):
    code, result, counts = run_bench("--workload", workload, "--seed", UNSEEN_SEED,
                                     "--trace", "1")
    assert code == 0 and result["correct"]
    assert counts["untraced"] == counts["pool"] == counts["traced_program"] \
        == counts["traced_replica"]


def test_program_stage_calls_are_traced():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    from scckm import sim
    config = sim.SimConfig(scheme="scck2", n_tx=2, n_rx=4, ebn0_db=(5.0,), frames=1,
                           seed=1, symbols_per_frame=2)
    originals = {attr: getattr(sim, attr) for attr in tracing.PROGRAM_STAGES}
    tracer = tracing.Tracer()
    root = tracer.open("sim.run_point", -1, 0)
    with tracing.traced_program(tracer, root, 0):
        sim.run_point(config, 5.0)
    tracer.close(root)
    assert set(tracer.child_totals_ns("sim.run_point")) == set(tracing.PROGRAM_STAGES.values())
    assert {attr: getattr(sim, attr) for attr in tracing.PROGRAM_STAGES} == originals


def _tampered_golden(tmp_path, change):
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    change(golden["entries"]["sm-bpsk-8x16@quick/seed=1"])
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    return str(path)


def _add_error(entry):
    entry["points"][0][2] += 1


def _edit_csv(entry):
    entry["csv"] = entry["csv"].replace("ebn0_db,", "ebn0,")


@pytest.mark.parametrize("change", [_add_error, _edit_csv])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_golden_mismatch_fails(tmp_path, change, trace):
    code, result, _ = run_bench("--workload", "sm-bpsk-8x16", "--seed", "1",
                                "--trace", trace,
                                "--golden", _tampered_golden(tmp_path, change))
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def test_seed1_check_runs_on_every_seed(tmp_path):
    code, result, _ = run_bench("--workload", "sm-bpsk-8x16", "--seed", UNSEEN_SEED,
                                "--golden", _tampered_golden(tmp_path, _add_error))
    assert code == 1
    assert not result["correct"] and result["failed"] == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, result, _ = run_bench("--workload", WORKLOADS[0], "--seed", "1", cwd=tmp_path)
    assert code != 0 and result is None
