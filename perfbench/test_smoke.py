"""Smoke test of the benchmark itself, at minimal run length.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced with --seconds 1 (one
pass of the corpus).  The result line must carry every metric named in
BENCHMARK.json with its unit, every op must pass its oracle, and a
per-layer metric whose code path the workload never reaches must be
listed as absent (None in the detail line), never reported as a
measured 0.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# layers each workload must reach, and layers it must not
REACHED = {
    "decide_small": ("bipartite.spectra.calls", "multipartite.check_decomposable.self_s",
                     "multipartite.local_unitary_link.self_s", "compose.compose.self_s",
                     "purify.purification_class.self_s", "false_reject_share"),
    "decide_large": ("multipartite.equal_spectra_check.self_s",
                     "multipartite.positive_products_commute.self_s"),
    "partition_exact": ("partition.max_schmidt_number.brute_band_s",
                        "partition.max_schmidt_number.mitm_band_s",
                        "partition.subset_sum_to_partition.self_s"),
    "cli_files": ("cli.check.s", "cli.import_s", "io.load_state.self_s",
                  "io.bytes_written", "purify.linking_unitary.self_s"),
}
NOT_REACHED = {
    "decide_small": ("partition.", "cli.", "io."),
    "decide_large": ("partition.", "cli.", "io.", "compose.", "purify.",
                     "false_reject"),
    "partition_exact": ("multipartite.", "bipartite.", "state.", "cli.", "io.",
                        "false_reject"),
    "cli_files": ("partition.max_schmidt_number.mitm_band_s", "false_reject"),
}

_runs: dict = {}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    if (workload, trace) not in _runs:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        _runs[workload, trace] = (json.loads(lines[-2])["detail"],
                                  json.loads(lines[-1]))
    return _runs[workload, trace]


def check_result(result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    detail, result = run(workload, 0)
    check_result(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert detail["failed_share"] == 0.0
    env = detail["environment"]
    for key in ("numpy", "blas", "blas_threads", "nproc", "python", "seed"):
        assert env[key] is not None, key
    if workload == "decide_small":
        assert detail["false_reject_base"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    detail, result = run(workload, 1)
    check_result(result, SPEC["per_layer"])
    absent = set(detail["absent"])
    for name, value in detail["metrics"].items():
        assert (value is None) == (name in absent), name
    for name in REACHED[workload]:
        assert name not in absent, name
    for name in absent:
        assert result["metrics"][name]["value"] == 0.0
    for m in SPEC["per_layer"]:
        if m["name"].startswith(NOT_REACHED[workload]):
            assert m["name"] in absent, m["name"]
    assert "tracing_overhead" not in absent
    assert detail["traced"]["failed"] == 0 and detail["untraced"]["failed"] == 0
