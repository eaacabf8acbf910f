"""Benchmark runner for schmidtkit.

Run from the repository root:

    python3 perfbench/run.py --workload decide_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process drives one workload as a closed loop with a single caller:
it builds the seeded corpus, then calls it op by op, pass after pass,
until --seconds have elapsed (always at least one whole pass, and only
whole passes).  Every result is checked against a known answer.  BLAS
keeps numpy's default thread count.

--trace 0 prints the end-to-end metrics; --trace 1 runs the corpus
untraced and then traced (spans from tracer.py) and prints the
per-layer metrics.  The last line of stdout is the result object; the
line before it is a detail object with the environment, sample counts,
failures and any metric whose code path the workload never reached.
Details and spans are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("decide_small", "decide_large", "partition_exact", "cli_files")
SETUP_PROBES = 9
# Percentile reported as latency_tail_ms, fixed per workload so that runs
# compare like with like.  Each is the highest of 50/75/90/95/99/99.9
# that left at least ten samples beyond it in every 20-second run at the
# commit that added the benchmark.
TAIL_PERCENTILE = {"decide_small": 99.0, "decide_large": 90.0,
                   "partition_exact": 95.0, "cli_files": 75.0}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import schmidtkit.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------ environment

def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


# ---------------------------------------------------------------- running

class Run:
    """Latency samples and outcomes of one measured loop."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = [[] for _ in ops]
        self.failures: dict[str, str] = {}
        self.failed = 0
        self.hard = 0
        self.false_rejects = 0
        self.passes = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)

    def ops_per_s(self) -> float:
        """Corpus inputs over the sum of their mean call latencies.

        The mean, not the median: on a shared 2-vCPU host, calls switch
        between fast and slow spells within a run, and the median of a
        two-mode sample jumps between the modes where the mean moves
        smoothly.
        """
        return len(self.ops) / sum(statistics.fmean(s) for s in self.samples)

    def latencies(self) -> list[float]:
        return sorted(x for s in self.samples for x in s)


def measure(ops, seconds, tracer=None, observe=None, interlude=None,
            interludes=0) -> Run:
    """Loop over ops in whole passes until seconds have elapsed.

    interlude() is called interludes times, spread evenly over the run
    at op boundaries; the time it takes is not counted as run time.
    """
    run = Run(ops)
    start = time.perf_counter()
    paused = 0.0
    done = 0

    def elapsed():
        return time.perf_counter() - start - paused

    while run.passes == 0 or elapsed() < seconds:
        for i, op in enumerate(ops):
            if done < interludes and elapsed() >= done * seconds / interludes:
                t0 = time.perf_counter()
                interlude()
                done += 1
                paused += time.perf_counter() - t0
            for _ in range(op.repeat):
                call(run, i, op, tracer, observe)
        run.passes += 1
    run.wall = elapsed()
    for _ in range(done, interludes):
        interlude()
    return run


def call(run: Run, i: int, op, tracer, observe) -> None:
    """Time one call of op, check its result and record the outcome."""
    from workloads import FALSE_REJECT
    result, reason = None, None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            tracer.op_id = run.attempted
            result = tracer.span(f"op.{op.kind}", op.run)
    except Exception as exc:  # a raising op is a failed op
        reason = f"{type(exc).__name__}: {exc}"
    run.samples[i].append(time.perf_counter() - t0)
    if reason is None:
        try:
            reason = op.check(result)
        except Exception as exc:  # so is one whose output is unreadable
            reason = f"check raised {type(exc).__name__}: {exc}"
    if op.hard:
        run.hard += 1
        if reason == FALSE_REJECT:
            run.false_rejects += 1
            reason = None
    if reason is not None:
        run.failed += 1
        run.failures.setdefault(op.name, reason)
    if observe is not None and result is not None:
        observe(result)


def probe_setup(args) -> int:
    """Child side of setup_s: import, build the inputs, say ready."""
    import workloads
    tmp = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
    try:
        workloads.build(args.workload, args.seed, tmp, SRC)
        print("ready", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


def setup_probe(args) -> float:
    """Wall time from spawning a fresh interpreter to its inputs being built."""
    argv = [sys.executable, str(HERE / "run.py"), "--probe-setup",
            "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe exited with {code}")
    return seconds


def import_seconds() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", IMPORT_PROBE]
    runs = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        runs.append(float(done.stdout))
    return statistics.median(runs)


# ---------------------------------------------------------------- metrics

def tail(run: Run, workload: str) -> tuple[float, float, int]:
    lat = run.latencies()
    q = TAIL_PERCENTILE[workload]
    idx = max(0, math.ceil(q / 100 * len(lat)) - 1)
    return q, lat[idx], len(lat) - idx - 1


def end_to_end(args, run: Run, setup: list[float], rss_kb: int) -> tuple[dict, dict]:
    q, tail_s, beyond = tail(run, args.workload)
    values = {
        "ops_per_s": run.ops_per_s(),
        "latency_p50_ms": statistics.median(run.latencies()) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024,
    }
    detail = {
        "tail_percentile": q, "samples_beyond_tail": beyond,
        "setup_samples_s": setup,
        "failed_share": run.failed / run.attempted,
    }
    return values, detail


def run_detail(run: Run) -> dict:
    d = {"corpus_ops": len(run.ops), "passes": run.passes,
         "samples": run.attempted, "wall_s": run.wall,
         "attempted": run.attempted, "failed": run.failed,
         "failures": dict(list(run.failures.items())[:20]),
         "op_samples_s": {op.name: s for op, s in zip(run.ops, run.samples)}}
    if run.hard:
        d["false_reject_share"] = run.false_rejects / run.hard
        d["false_reject_base"] = run.hard
    return d


def untraced(args) -> tuple[dict, dict, list[Run]]:
    import workloads
    setup: list[float] = []
    child_rss: list[int] = [0]

    def probe():
        setup.append(setup_probe(args))

    def observe(result):
        child_rss.append(result.maxrss_kb)

    cli = args.workload == "cli_files"
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        ops = workloads.build(args.workload, args.seed, tmp, SRC)
        run = measure(ops, args.seconds, observe=observe if cli else None,
                      interlude=probe, interludes=SETUP_PROBES)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rss_kb = max(child_rss) if cli else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values, detail = end_to_end(args, run, setup, rss_kb)
    detail.update(run_detail(run))
    return values, detail, [run]


class LayerCounters:
    """Counts taken at layer boundaries through the tracer's return hooks."""

    def __init__(self, tracer, brute_limit):
        self.verdicts: dict[str, int] = {}
        self.bands = {"brute_band_s": 0.0, "mitm_band_s": 0.0}
        self.band_calls = {"brute_band_s": 0, "mitm_band_s": 0}
        self.bytes_read = 0
        self.bytes_written = 0
        self.brute_limit = brute_limit
        tracer.on_return("multipartite.check_decomposable", self._verdict)
        tracer.on_return("partition.max_schmidt_number", self._band)
        for name in ("load_state", "load_density", "load_decomposition"):
            tracer.on_return(f"io.{name}", self._read)

    def _verdict(self, args, kwargs, report, span):
        stage = report.stage or "accept"
        self.verdicts[stage] = self.verdicts.get(stage, 0) + 1

    def _band(self, args, kwargs, sol, span):
        band = "brute_band_s" if len(args[0]) <= self.brute_limit else "mitm_band_s"
        self.bands[band] += span[2] - span[1]
        self.band_calls[band] += 1

    def _read(self, args, kwargs, result, span):
        self.bytes_read += os.path.getsize(args[0])

    def written(self, result):
        self.bytes_written += result.written


def traced(args, spec) -> tuple[dict, dict, list[Run]]:
    import workloads
    from schmidtkit import partition
    from tracer import Tracer
    tracer = Tracer()
    counters = LayerCounters(tracer, partition.BRUTE_FORCE_LIMIT)
    extra: dict[str, float] = {}
    runs = []
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
    try:
        share = args.seconds / 2
        if args.workload == "cli_files":
            share = args.seconds / 3
            sub = measure(workloads.build("cli_files", args.seed, tmp, SRC), share)
            runs.append(sub)
            for verb in workloads.CLI_VERBS:
                times = [x for op, s in zip(sub.ops, sub.samples)
                         if op.kind == f"cli.{verb}" for x in s]
                extra[f"cli.{verb}.s"] = statistics.median(times)
            extra["cli.import_s"] = import_seconds()
        ops = workloads.build(args.workload, args.seed, tmp, SRC, inprocess=True)
        plain = measure(ops, share)
        tracer.install()
        try:
            observe = counters.written if args.workload == "cli_files" else None
            run = measure(ops, share, tracer, observe)
        finally:
            tracer.uninstall()
        runs += [plain, run]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)

    summary = tracer.summary()
    passes = run.passes
    extra["tracing_overhead"] = plain.ops_per_s() / run.ops_per_s()
    if run.hard:
        extra["false_reject_share"] = run.false_rejects / run.hard
    if "multipartite.check_decomposable" in summary:
        for stage in workloads.STAGES:
            extra[f"multipartite.verdicts.{stage}"] = counters.verdicts.get(stage, 0) / passes
    pair = summary.get("multipartite.find_diagonalizing_pair")
    if pair:
        extra["multipartite.find_diagonalizing_pair.found_ratio"] = \
            (pair["calls"] - pair["raised"]) / pair["calls"]
    for band, seconds in counters.bands.items():
        if counters.band_calls[band]:
            extra[f"partition.max_schmidt_number.{band}"] = seconds / passes
    if any(k.startswith("io.") for k in summary):
        extra["io.bytes_read"] = counters.bytes_read / passes
        extra["io.bytes_written"] = counters.bytes_written / passes

    values, absent = {}, []
    for metric in spec["per_layer"]:
        name = metric["name"]
        span, _, field = name.rpartition(".")
        if name in extra:
            values[name] = extra[name]
        elif field in ("self_s", "calls") and span in summary:
            values[name] = summary[span][field] / passes
        else:
            absent.append(name)
    detail = {"traced": run_detail(run), "untraced": run_detail(plain),
              "absent": absent, "spans_file": str(spans_path.relative_to(ROOT)),
              "spans": len(tracer.spans)}
    if len(runs) == 3:
        detail["subprocess"] = run_detail(runs[0])
    return values, detail, runs


def result_line(values: dict, units: dict, runs: list[Run]) -> dict:
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    failed = sum(r.failed for r in runs)
    return {"correct": failed == 0, "attempted": sum(r.attempted for r in runs),
            "failed": failed, "metrics": metrics}


def run_one(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args)
    if args.trace:
        values, detail, runs = traced(args, spec)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, detail, runs = untraced(args)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    detail = {"environment": env, **detail,
              "metrics": {k: values.get(k) for k in units}}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"detail": _without_samples(detail)}, sort_keys=True))
    print(json.dumps(result_line(values, units, runs)))
    return 0


def _without_samples(detail: dict) -> dict:
    return {k: _without_samples(v) if isinstance(v, dict) else v
            for k, v in detail.items() if k != "op_samples_s"}


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows = []
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        rows.append((workload, detail, result))
        print(json.dumps({"workload": workload, **result}))
    for workload, detail, result in rows:
        print(f"\n{workload}  (seed {args.seed}, {detail.get('samples', '?')} samples, "
              f"BLAS threads {detail['environment']['blas_threads']})")
        for name, m in result["metrics"].items():
            print(f"  {name:55s} {m['value']:>14.6g} {m['unit']}")
        if not args.trace:
            print(f"  {'latency_tail_ms is p' + str(detail['tail_percentile']):55s}"
                  f" {detail['samples_beyond_tail']:>14d} samples beyond")
            print(f"  {'failed_share':55s} {detail['failed_share']:>14.6g} "
                  f"of {detail['attempted']} ops")
            if "false_reject_share" in detail:
                print(f"  {'false_reject_share':55s} {detail['false_reject_share']:>14.6g} "
                      f"of {detail['false_reject_base']} hard-decomposable ops")
        else:
            print(f"  absent: {', '.join(detail['absent']) or 'none'}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "schmidtkit" / "__init__.py").is_file():
        print(f"error: no schmidtkit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    if args.probe_setup:
        return probe_setup(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
