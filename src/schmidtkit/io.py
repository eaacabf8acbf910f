"""Canonical JSON formats for states, density matrices and decompositions.

All files carry "version": 1.  Complex numbers are [re, im] pairs, all
written by complex_pairs, which keeps an array's shape: a 1-D array is
one list of pairs, a family one such list per vector.
Numbers are JSON numbers: true and false are not, though Python's bool is an int.

state          {"version", "dims", "amplitudes": [[re, im], ...], "label"?}
               amplitudes flattened row-major, subsystem 1 slowest.
density        {"version", "dims", "entries": [[re, im], ...]}
               entries flattened row-major.
decomposition  {"version", "dims", "coefficients": [c, ...],
                "subsystems": [[[ [re, im], ... ], ...], ...]}
               subsystems holds one family per subsystem, each family
               one vector per coefficient.

Serialization is deterministic: sorted keys, fixed indentation, so the
same object always produces byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidArgs
from .multipartite import DecomposabilityReport
from .state import DensityMatrix, SchmidtDecomposition, StateTensor, new_state

__all__ = [
    "load_state",
    "save_state",
    "state_to_dict",
    "complex_pairs",
    "load_density",
    "save_density",
    "load_decomposition",
    "save_decomposition",
    "decomposition_to_dict",
    "report_to_dict",
    "dumps_canonical",
]

VERSION = 1


def dumps_canonical(document: dict) -> str:
    """Render a document as stable, diffable JSON."""
    return json.dumps(document, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def complex_pairs(values) -> list:
    """An array as nested lists of its own shape, each entry an [re, im] pair."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _unpairs(raw, what: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise InvalidArgs(f"{what} must be a list of [re, im] pairs")
    out = np.empty(len(raw), dtype=complex)
    for i, pair in enumerate(raw):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(type(x) in (int, float) for x in pair)):
            raise InvalidArgs(f"{what}[{i}] is not a [re, im] pair: {pair!r}")
        out[i] = complex(pair[0], pair[1])
    return out


def _read(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidArgs(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise InvalidArgs(f"{path}: top level must be an object")
    version = doc.get("version")
    if not (type(version) is int and version == VERSION):
        raise InvalidArgs(f"{path}: unsupported version {version!r}")
    return doc


def _dims(doc: dict, path) -> tuple[int, ...]:
    dims = doc.get("dims")
    if (not isinstance(dims, list) or not dims
            or not all(type(d) is int and d >= 1 for d in dims)):
        raise InvalidArgs(f"{path}: dims must be a list of positive integers")
    return tuple(dims)


def load_state(path) -> StateTensor:
    doc = _read(path)
    dims = _dims(doc, path)
    amps = _unpairs(doc.get("amplitudes"), "amplitudes")
    if amps.size != int(np.prod(dims)):
        raise InvalidArgs(
            f"{path}: {amps.size} amplitudes for dims {list(dims)}")
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise InvalidArgs(f"{path}: label must be a string")
    return new_state(dims, amps, label)


def state_to_dict(state: StateTensor) -> dict:
    doc = {"version": VERSION, "dims": list(state.dims),
           "amplitudes": complex_pairs(state.amplitudes)}
    if state.label is not None:
        doc["label"] = state.label
    return doc


def save_state(path, state: StateTensor) -> None:
    Path(path).write_text(dumps_canonical(state_to_dict(state)))


def load_density(path) -> DensityMatrix:
    doc = _read(path)
    dims = _dims(doc, path)
    entries = _unpairs(doc.get("entries"), "entries")
    d = int(np.prod(dims))
    if entries.size != d * d:
        raise InvalidArgs(
            f"{path}: {entries.size} entries, expected {d * d} for dims "
            f"{list(dims)}")
    return DensityMatrix(dims, entries.reshape(d, d))


def save_density(path, rho: DensityMatrix) -> None:
    doc = {"version": VERSION, "dims": list(rho.dims),
           "entries": complex_pairs(rho.entries.reshape(-1))}
    Path(path).write_text(dumps_canonical(doc))


def decomposition_to_dict(dec: SchmidtDecomposition, bipartition=None) -> dict:
    doc = {
        "version": VERSION,
        "dims": list(dec.dims),
        "coefficients": [float(c) for c in dec.coefficients],
        "subsystems": [complex_pairs(family) for family in dec.vectors],
    }
    if bipartition is not None:
        doc["bipartition"] = {"left": list(bipartition.left),
                              "right": list(bipartition.right)}
    return doc


def load_decomposition(path) -> SchmidtDecomposition:
    doc = _read(path)
    dims = _dims(doc, path)
    coeffs = doc.get("coefficients")
    if (not isinstance(coeffs, list) or not coeffs
            or not all(type(c) in (int, float) for c in coeffs)):
        raise InvalidArgs(f"{path}: coefficients must be a list of numbers")
    families = doc.get("subsystems")
    if not isinstance(families, list) or len(families) != len(dims):
        raise InvalidArgs(
            f"{path}: subsystems must hold one family per subsystem")
    vectors = []
    for k, family in enumerate(families):
        if not isinstance(family, list) or len(family) != len(coeffs):
            raise InvalidArgs(
                f"{path}: subsystem {k + 1} needs one vector per coefficient")
        rows = [_unpairs(vec, f"subsystems[{k}][{i}]")
                for i, vec in enumerate(family)]
        vectors.append(np.array(rows))
    return SchmidtDecomposition(dims, np.array(coeffs, dtype=float),
                                tuple(vectors))


def save_decomposition(path, dec: SchmidtDecomposition) -> None:
    Path(path).write_text(dumps_canonical(decomposition_to_dict(dec)))


def _jsonable(value):
    if isinstance(value, (np.ndarray, complex)) and np.iscomplexobj(value):
        return complex_pairs(value)
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float).tolist()
    if isinstance(value, (np.bool_, bool)):  # before int: bool is an int
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def report_to_dict(report: DecomposabilityReport) -> dict:
    doc = {
        "verdict": report.verdict,
        "decomposable": report.decomposable,
        "stage": report.stage,
        "witness": _jsonable(report.witness),
        "residuals": _jsonable(report.residuals),
        "tolerances": _jsonable(report.tolerances_used),
    }
    if report.decomposition is not None:
        doc["decomposition"] = decomposition_to_dict(report.decomposition)
    else:
        doc["decomposition"] = None
    return doc
