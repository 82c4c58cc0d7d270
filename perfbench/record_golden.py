#!/usr/bin/env python3
"""Rewrite perfbench/golden.json from the simulator in this checkout.

    python3 perfbench/record_golden.py

Records, for every workload at seed 1 and at the held-out seed, the per-point
(ebn0_db, bits_simulated, bit_errors) and, for CLI workloads, the exact CSV
text; plus the --quick variants at seed 1.  Counts are taken with one worker:
a multi-worker run must reproduce them exactly.

The stored values pin the simulator's behaviour.  Re-record only in a change
that alters the counts on purpose, and say so in that change.
"""

import dataclasses
import json
import sys

import run

SEEDS = (1,)
HELD_OUT_SEED = 2017  # not used while tuning; for re-checking later claims


def main() -> int:
    run.load_scckm()
    entries = {}
    for base in run.WORKLOADS.values():
        for quick, seeds in ((False, SEEDS + (HELD_OUT_SEED,)), (True, SEEDS)):
            workload = dataclasses.replace(base.quick() if quick else base, workers=1)
            for seed in seeds:
                out = run.OUT / f"golden-{workload.name}.csv"
                run.OUT.mkdir(exist_ok=True)
                try:
                    points, csv = run.run_once(workload, run.make_config(workload, seed), out)
                finally:
                    out.unlink(missing_ok=True)
                entries[run.golden_key(base.name, quick, seed)] = {"points": points,
                                                                   "csv": csv}
                print(run.golden_key(base.name, quick, seed), points, flush=True)
    golden = {"about": "per-point [ebn0_db, bits_simulated, bit_errors] and CLI CSV "
                       "text, recorded with workers=1; seed 2017 is held out",
              "entries": entries}
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
