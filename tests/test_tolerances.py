"""The tolerances module is the one place a threshold is set."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import schmidtkit
from schmidtkit import (
    Bipartition,
    NoPairFound,
    StateTensor,
    check_decomposable,
    save_state,
    schmidt_number,
    tolerances,
    w_state,
)
from schmidtkit.cli import main
from schmidtkit.multipartite import find_diagonalizing_pair, slice_tensor


def near_product_tail(eps: float) -> StateTensor:
    """0.8|00>chi_0 + 0.6|11>chi_1 on (2,2,2,2), tails with ratio eps.

    chi_0 = |00> + eps|11> and chi_1 = |11> - eps|00> (normalised) are
    orthogonal, the slices are diagonal and every single-site spectrum
    is {0.64, 0.36} within ~eps^2, so the decision reaches the tail
    factorization, whose second singular ratio is eps.
    """
    amps = np.zeros(16)
    norm = np.sqrt(1.0 + eps ** 2)
    amps[0b0000], amps[0b0011] = 0.8 / norm, 0.8 * eps / norm
    amps[0b1111], amps[0b1100] = 0.6 / norm, -0.6 * eps / norm
    return StateTensor((2, 2, 2, 2), amps)


def tiny_third_coefficient() -> StateTensor:
    """0.8|000> + 0.6|111> + 1e-10|222>: rank 2 or 3 by RANK_TOL."""
    amps = np.zeros(27)
    amps[0], amps[13], amps[26] = 0.8, 0.6, 1e-10
    return StateTensor((3, 3, 3), amps)


def test_diag_tol_reaches_pair_search_and_tail_test(monkeypatch):
    slices = slice_tensor(w_state())
    with pytest.raises(NoPairFound):
        find_diagonalizing_pair(slices)
    state = near_product_tail(1e-5)
    rep = check_decomposable(state)
    assert rep.stage == "TailNotProduct"
    assert rep.witness["second_singular_ratio"] == pytest.approx(1e-5)

    # W's off-diagonal slice entries are 1/sqrt(3): a bound of 1 lets the
    # fast path take the identity pair
    monkeypatch.setattr(tolerances, "DIAG_TOL", 1.0)
    assert np.array_equal(find_diagonalizing_pair(slices).p, np.eye(2))
    monkeypatch.setattr(tolerances, "DIAG_TOL", 1e-4)
    rep = check_decomposable(state)
    # the tail now factors; the rebuild misses by ~eps and rejects
    assert rep.stage == "SlicesNotSimultaneouslyDiagonalizable"
    assert rep.witness["reconstruction"] > tolerances.RECONSTRUCT_TOL
    assert rep.tolerances_used["diag_tol"] == 1e-4


def test_rank_tol_reaches_assemble_and_schmidt_number(monkeypatch):
    state = tiny_third_coefficient()
    cut = Bipartition((1,), (2, 3))
    rep = check_decomposable(state)
    assert rep.decomposable and rep.decomposition.rank == 2
    assert schmidt_number(state, cut) == 2

    monkeypatch.setattr(tolerances, "RANK_TOL", 1e-12)
    rep = check_decomposable(state, seed=3)
    assert rep.decomposable and rep.decomposition.rank == 3
    assert schmidt_number(state, cut) == 3
    assert rep.tolerances_used == {"rank_tol": 1e-12,
                                   "diag_tol": tolerances.DIAG_TOL,
                                   "orth_tol": tolerances.ORTH_TOL, "seed": 3}


def _public_callables():
    modules = [importlib.import_module(f"schmidtkit.{info.name}")
               for info in pkgutil.iter_modules(schmidtkit.__path__)]
    for module in [schmidtkit, *modules]:
        for name in getattr(module, "__all__", ()):
            yield f"{module.__name__}.{name}", getattr(module, name)
    linalg = importlib.import_module("schmidtkit.linalg")
    for name, obj in vars(linalg).items():
        if not name.startswith("_") and inspect.isfunction(obj) \
                and obj.__module__ == linalg.__name__:
            yield f"schmidtkit.linalg.{name}", obj


def test_no_public_callable_takes_a_threshold():
    offenders = []
    for qualname, obj in _public_callables():
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # builtin-backed signatures name no thresholds
            continue
        # a report's tolerances_used records the constants, it sets none
        offenders += [f"{qualname}({p})" for p in params
                      if p != "tolerances_used" and ("tol" in p or "cutoff" in p)]
    assert offenders == []


def test_cli_has_no_tolerance_flags(tmp_path, capsys):
    path = tmp_path / "w.json"
    save_state(path, w_state())
    assert main(["check", "--tol-diag", "1e-6", str(path)]) == 2
    assert "unrecognized arguments: --tol-diag" in capsys.readouterr().err


def threshold_literals(source: str) -> list[str]:
    """Comparisons in source that use a float literal other than 0 or 1.

    0.0 and 1.0 are exact values (a sign, a unit norm or trace), not
    thresholds; any other float literal in a comparison is one.
    """
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(isinstance(sub, ast.Constant) and isinstance(sub.value, float)
                    and sub.value not in (0.0, 1.0) for sub in ast.walk(node))]


def test_threshold_literal_guard_flags_literals_only():
    source = ("a = x > 1e-8\n"
              "b = abs(t - 1.0) > tolerances.NORM_TOL\n"
              "c = m > 1e-12 * top\n"
              "d = x <= 0.0 or y == 0\n")
    assert threshold_literals(source) == ["x > 1e-08", "m > 1e-12 * top"]


def test_no_threshold_literal_outside_tolerances():
    src = Path(schmidtkit.__file__).parent
    offenders = [f"{path.name}: {expr}" for path in sorted(src.glob("*.py"))
                 if path.name != "tolerances.py"
                 for expr in threshold_literals(path.read_text())]
    assert offenders == []
