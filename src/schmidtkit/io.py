"""Canonical JSON formats for states, density matrices, decompositions and reports.

All files carry "version": 1.  Complex numbers are [re, im] pairs, all
written by complex_pairs, which keeps an array's shape: a 1-D array is
one list of pairs, a family one such list per vector; the loaders read
each back through its inverse, checked against the shape the dims give.
Numbers are JSON numbers that fit a float: true and false are not,
though Python's bool is an int.  Any other document raises InvalidArgs.

state          {"version", "dims", "amplitudes": [[re, im], ...], "label"?}
               amplitudes flattened row-major, subsystem 1 slowest.
density        {"version", "dims", "entries": [[re, im], ...]}
               entries flattened row-major.
decomposition  {"version", "dims", "coefficients": [c, ...],
                "subsystems": [[[ [re, im], ... ], ...], ...]}
               subsystems holds one family per subsystem, each family
               one vector per coefficient.
report         {"verdict", "decomposable", "stage", "witness", "residuals",
                "tolerances", "decomposition"}
               what check_decomposable found, the decomposition written
               as above or null.  The witness, residuals and tolerances
               hold floats and ints, besides a witness's ss_dagger matrix
               and its "spectra" table, already lists keyed "1,3";
               report_to_dict converts only the arrays, complex ones to
               [re, im] pairs.

Serialization is deterministic: sorted keys, fixed indentation, so the
same object always produces byte-identical output.
"""

from __future__ import annotations

import json
import math
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


def _decode(raw, shape, dtype, message: str) -> np.ndarray:
    """Inverse of complex_pairs: the dtype array of shape that raw lists.

    A complex entry is an [re, im] pair; None in shape is any nonzero
    length.  Anything but JSON numbers that fit a float, nested to that
    shape, raises InvalidArgs(message).
    """
    level, sizes = [raw], []
    for size in (*shape, 2) if dtype is complex else shape:
        if not all(type(node) is list for node in level):
            raise InvalidArgs(message)
        sizes.append(size or len(level[0]) or -1)  # None: the first node's, if not 0
        if any(len(node) != sizes[-1] for node in level):
            raise InvalidArgs(message)
        level = [item for node in level for item in node]
    if not all(type(x) in (int, float) for x in level):  # a bool is an int
        raise InvalidArgs(message)
    try:
        out = np.array(level, dtype=float).reshape(sizes)
    except OverflowError:
        raise InvalidArgs(f"{message}; a number is too large for a float") from None
    return out.view(complex)[..., 0] if dtype is complex else out


def _read(path) -> dict:
    try:
        doc = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
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
    size = math.prod(dims)
    amps = _decode(doc.get("amplitudes"), (size,), complex,
                   f"{path}: amplitudes must be a list of {size} [re, im] "
                   f"pairs for dims {list(dims)}")
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
    d = math.prod(dims)
    entries = _decode(doc.get("entries"), (d * d,), complex,
                      f"{path}: entries must be a list of {d * d} [re, im] "
                      f"pairs for dims {list(dims)}")
    return DensityMatrix(dims, entries.reshape(d, d))


def save_density(path, rho: DensityMatrix) -> None:
    doc = {"version": VERSION, "dims": list(rho.dims),
           "entries": complex_pairs(rho.entries.reshape(-1))}
    Path(path).write_text(dumps_canonical(doc))


def decomposition_to_dict(dec: SchmidtDecomposition, bipartition=None) -> dict:
    doc = {
        "version": VERSION,
        "dims": list(dec.dims),
        "coefficients": dec.coefficients.tolist(),
        "subsystems": [complex_pairs(family) for family in dec.vectors],
    }
    if bipartition is not None:
        doc["bipartition"] = _cut_doc(bipartition)
    return doc


def _cut_doc(cut) -> dict:
    """A bipartition's sides as {"left": [...], "right": [...]}."""
    return {"left": list(cut.left), "right": list(cut.right)}


def load_decomposition(path) -> SchmidtDecomposition:
    doc = _read(path)
    dims = _dims(doc, path)
    coeffs = _decode(doc.get("coefficients"), (None,), float,
                     f"{path}: coefficients must be a nonempty list of numbers")
    families = doc.get("subsystems")
    if not isinstance(families, list) or len(families) != len(dims):
        raise InvalidArgs(
            f"{path}: subsystems must hold one family per subsystem")
    vectors = tuple(
        _decode(family, (coeffs.size, d), complex,
                f"{path}: subsystem {k + 1} needs one vector per coefficient, "
                f"each a list of {d} [re, im] pairs")
        for k, (family, d) in enumerate(zip(families, dims)))
    return SchmidtDecomposition(dims, coeffs, vectors)


def save_decomposition(path, dec: SchmidtDecomposition) -> None:
    Path(path).write_text(dumps_canonical(decomposition_to_dict(dec)))


def _array_doc(value):
    """An ndarray as nested lists, complex entries as [re, im] pairs; any other value as it is."""
    if not isinstance(value, np.ndarray):
        return value
    return complex_pairs(value) if np.iscomplexobj(value) else value.tolist()


def report_to_dict(report: DecomposabilityReport) -> dict:
    return {
        "verdict": report.verdict,
        "decomposable": report.decomposable,
        "stage": report.stage,
        "witness": {key: _array_doc(value) for key, value in report.witness.items()},
        "residuals": dict(report.residuals),
        "tolerances": dict(report.tolerances_used),
        "decomposition": (None if report.decomposition is None
                          else decomposition_to_dict(report.decomposition)),
    }
