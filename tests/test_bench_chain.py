"""scripts/bench_chain.py: two source trees in one interpreter, measured in pairs."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

import scckm

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_chain():
    spec = importlib.util.spec_from_file_location("bench_chain",
                                                  ROOT / "scripts" / "bench_chain.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def trees(bench_chain, tmp_path_factory):
    """src/ copied twice and loaded under two names, as the script loads its sides."""
    names = {"before": "scckm_test_before", "after": "scckm_test_after"}
    packages = {}
    for side, name in names.items():
        src = tmp_path_factory.mktemp(side) / "src"
        shutil.copytree(ROOT / "src" / "scckm", src / "scckm",
                        ignore=shutil.ignore_patterns("__pycache__"))
        packages[side] = (src, bench_chain.load_tree(name, src))
    yield packages
    for module in [m for m in sys.modules if m.split(".")[0] in names.values()]:
        del sys.modules[module]


def test_trees_load_as_distinct_packages(trees):
    (src_a, a), (src_b, b) = trees["before"], trees["after"]
    assert a is not b and a.sim is not b.sim
    assert a.sim.SimConfig is not b.sim.SimConfig
    for src, package in ((src_a, a), (src_b, b)):
        assert Path(package.__file__).parent == src / "scckm"
        assert Path(package.sim.__file__).parent == src / "scckm"


def test_measure_pairs_and_traces_each_side(bench_chain, trees, monkeypatch):
    import tracing
    stages = dict(tracing.PROGRAM_STAGES)
    monkeypatch.setattr(bench_chain, "PAIRS", 2)
    monkeypatch.setattr(bench_chain, "PAIR_FRAMES", 1)
    packages = {side: package for side, (_, package) in trees.items()}
    row = bench_chain.measure(packages, "scck2", 2, 4, 2)
    assert row["counts_equal"] and row["before"]["counts"][0] == 2 * 20 * 256 * 2
    assert set(row["pair_ratio"]) == {"median", "quartiles"}
    for side in bench_chain.SIDES:
        # the tracer wrapped that side's stage calls, not the test process's scckm
        assert {"modem.zf", "modem.detect"} <= set(row[side]["stage_ms_per_symbol"])
    assert sys.modules["scckm"] is scckm
    assert tracing.PROGRAM_STAGES == stages
