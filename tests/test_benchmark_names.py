"""The benchmark's per-layer timings name functions that exist.

BENCHMARK.json reports `<module>.<function>.self_s` and `.calls` for
spans that perfbench/tracer.py opens around public functions, named
after the module that defines them.  A renamed or deleted function
silently drops out of the trace, so each such entry must resolve.
Likewise each `multipartite.verdicts.<stage>` counter must name a stage
check_decomposable can report.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"

# deleted from the package, or made private, before the benchmark could
# drop their entries; exact, so an entry the benchmark drops goes stale here
KNOWN_MISSING = {
    "multipartite.build_s_matrix.self_s",
    "linalg.common_hermitian_eigenbasis.self_s",
    "multipartite.slice_tensor.self_s",
    "multipartite.find_diagonalizing_pair.self_s",
    "multipartite.scaled_unitary_check.self_s",
}


def _resolves(module: str, function: str) -> bool:
    obj = getattr(importlib.import_module(f"schmidtkit.{module}"), function, None)
    return (not function.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == f"schmidtkit.{module}")


def test_per_layer_timings_name_package_functions():
    names = [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]
    timed = [name.split(".") for name in names
             if name.count(".") == 2 and name.rsplit(".", 1)[1] in ("self_s", "calls")]
    assert len(timed) > 20
    missing = {".".join(parts) for parts in timed if not _resolves(*parts[:2])}
    assert missing == KNOWN_MISSING, sorted(missing ^ KNOWN_MISSING)


# counted by the benchmark for a stage check_decomposable no longer
# reports; exact, as KNOWN_MISSING is
RETIRED_VERDICTS = {"TailNotProduct"}


def test_verdict_counters_name_reported_stages():
    multipartite = importlib.import_module("schmidtkit.multipartite")
    stages = {value for name, value in vars(multipartite).items()
              if name.startswith("STAGE_")}
    names = [entry["name"] for entry in json.loads(BENCHMARK.read_text())["per_layer"]]
    counted = {name.rsplit(".", 1)[1] for name in names
               if name.startswith("multipartite.verdicts.")}
    assert "accept" in counted and stages <= counted
    unknown = counted - stages - {"accept"}
    assert unknown == RETIRED_VERDICTS, sorted(unknown ^ RETIRED_VERDICTS)
