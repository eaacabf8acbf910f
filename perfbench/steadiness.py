"""Run every workload on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --seeds 21,22,23,24,25,26,27,28,29,9999

Each run lasts BENCHMARK.json's run_seconds.  Spread is the distance
between the first and third quartile of the runs' values
(statistics.quantiles, n=4) as a share of their median, the same figure
the bound in BENCHMARK.json is compared with.  Prints a markdown
table per workload and writes the raw values to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--seeds", required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = p.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        raw[workload] = values
        print(f"\n{workload}, seeds {args.seeds}\n")
        print("| metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"| {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{(q3 - q1) / med:.3f} | {bounds[name]} |", flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steadiness.json").write_text(
        json.dumps({"seeds": seeds, "values": raw}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
