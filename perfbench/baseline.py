"""Reproduce the baseline table and the one-thread decide_large reference.

    python3 perfbench/baseline.py [--seed 1]

For each of the six baseline shapes, a decomposable full-rank input is
checked untraced (end to end) and traced (the spectra stage is the
equal_spectra_check span, the commute stage the
positive_products_commute span, and their share is taken of the traced
check_decomposable span of the same call), in a child with numpy's
default BLAS threads and in a child with OPENBLAS_NUM_THREADS=1.  Then
decide_large runs through run.py once with each thread setting, for
BENCHMARK.json's run_seconds.  The tables are printed as markdown and
written to perfbench/out/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SHAPES = [(2, 2, 2), (8, 8, 8), (16, 16, 16), (32, 32, 32), (2,) * 8, (2,) * 10]


def repeats(dims) -> int:
    return 3 if len(dims) == 10 or dims[0] == 32 else 7


def measure_shapes(seed: int) -> dict:
    """Child side: stage times for every shape, in this process's BLAS setting."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    import schmidtkit as sk
    from tracer import Tracer
    from workloads import flat_state, nondegenerate

    rows = {}
    for dims in SHAPES:
        dec = nondegenerate(dims, min(dims), seed)
        state = flat_state(dec.coefficients, dec.vectors, dims)
        if not sk.check_decomposable(state).decomposable:
            raise RuntimeError(f"{dims}: decomposable input rejected")
        e2e = []
        for _ in range(repeats(dims)):
            t0 = time.perf_counter()
            sk.check_decomposable(state)
            e2e.append(time.perf_counter() - t0)
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(repeats(dims)):
                sk.check_decomposable(state)
        finally:
            tracer.uninstall()
        stages = {}
        for name in ("multipartite.check_decomposable",
                     "multipartite.equal_spectra_check",
                     "multipartite.positive_products_commute"):
            stages[name] = [s[2] - s[1] for s in tracer.spans if s[0] == name]
        traced = stages["multipartite.check_decomposable"]
        spectra = stages["multipartite.equal_spectra_check"]
        commute = stages["multipartite.positive_products_commute"]
        label = str(dims) if len(dims) == 3 else f"(2,)x{len(dims)}"
        rows[label] = {
            "end_to_end_s": e2e, "spectra_s": spectra, "commute_s": commute,
            "stage_share": statistics.median(
                (a + b) / t for a, b, t in zip(spectra, commute, traced)),
        }
    return {"blas_threads": run.blas_threads(), "rows": rows}


def child(env_threads: str | None, *extra) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    if env_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = env_threads
    return subprocess.run([sys.executable, *extra], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=900,
                          check=True)


def fmt(values) -> str:
    lo, med = min(values), statistics.median(values)
    unit, scale = ("s", 1.0) if med >= 1 else ("ms", 1e3)
    return f"{lo * scale:.3g} / {med * scale:.3g} {unit}"


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--shapes-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.shapes_child:
        print(json.dumps(measure_shapes(args.seed)))
        return 0

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"seed": args.seed, "shapes": {}, "decide_large": {}}
    for label, threads in (("default", None), ("one", "1")):
        done = child(threads, str(HERE / "baseline.py"), "--shapes-child",
                     "--seed", str(args.seed))
        out["shapes"][label] = json.loads(done.stdout)
        done = child(threads, str(HERE / "run.py"), "--workload",
                     "decide_large", "--seed", str(args.seed),
                     "--seconds", str(seconds), "--trace", "0")
        lines = done.stdout.strip().splitlines()
        out["decide_large"][label] = {
            "environment": json.loads(lines[-2])["detail"]["environment"],
            "result": json.loads(lines[-1])}
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")

    for label, shapes in out["shapes"].items():
        print(f"\nBLAS threads {shapes['blas_threads']} (min / median)\n")
        print("| dims | end to end | spectra stage | commute stage | spectra + commute share |")
        print("|---|---|---|---|---|")
        for dims, row in shapes["rows"].items():
            print(f"| {dims} | {fmt(row['end_to_end_s'])} | {fmt(row['spectra_s'])} "
                  f"| {fmt(row['commute_s'])} | {row['stage_share']:.0%} |")
    print("\ndecide_large, run.py --trace 0\n")
    print("| metric | " + " | ".join(
        f"BLAS threads {v['environment']['blas_threads']}"
        for v in out["decide_large"].values()) + " |")
    print("|---|" + "---|" * len(out["decide_large"]))
    names = out["decide_large"]["default"]["result"]["metrics"]
    for name in names:
        cells = [f"{v['result']['metrics'][name]['value']:.4g} "
                 f"{v['result']['metrics'][name]['unit']}"
                 for v in out["decide_large"].values()]
        print(f"| {name} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
