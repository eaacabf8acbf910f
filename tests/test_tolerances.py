"""The tolerances module is the one place a threshold is set."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import schmidtkit
import schmidtkit.multipartite as multipartite
from schmidtkit import (
    Bipartition,
    CoefficientsMismatch,
    DegenerateCombination,
    DensityMatrix,
    DifferentStates,
    DimensionMismatch,
    InvalidArgs,
    NoPairFound,
    NotNormalizable,
    NotPSD,
    Purification,
    SchmidtDecomposition,
    StateTensor,
    apply_local_unitaries,
    check_decomposable,
    equal_spectra_check,
    ghz,
    linking_unitary,
    local_unitary_link,
    new_state,
    purify,
    rank_inequality_check,
    save_state,
    schmidt_number,
    scaled_unitary_check,
    schmidt_decompose_bipartite,
    tolerances,
    w_state,
)
from schmidtkit.cli import main
from schmidtkit.linalg import phase_fix
from schmidtkit.multipartite import find_diagonalizing_pair, slice_tensor

README = Path(__file__).resolve().parents[1] / "README.md"


def near_product_tail(eps: float) -> StateTensor:
    """0.8|00>chi_0 + 0.6|11>chi_1 on (2,2,2,2), tails with ratio eps.

    chi_0 = |00> + eps|11> and chi_1 = |11> - eps|00> (normalised) are
    orthogonal, the slices are diagonal and every single-site spectrum
    is {0.64, 0.36} within ~eps^2, so the decision reaches the tail
    split, whose second singular ratio is eps; the product tails it
    keeps rebuild the state only to within 0.8 eps.
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


def test_diag_tol_reaches_pair_search_not_tail_split(monkeypatch):
    stack = slice_tensor(w_state())
    with pytest.raises(NoPairFound):
        find_diagonalizing_pair(stack)
    state = near_product_tail(1e-5)
    rep = check_decomposable(state)
    # a tail that is no product is the rebuild's to reject
    assert rep.stage == "SlicesNotSimultaneouslyDiagonalizable"
    assert rep.witness == {"reconstruction": pytest.approx(8e-6)}
    assert rep.residuals["tail_product_ratio"] == pytest.approx(1e-5)

    # W's off-diagonal slice entries are 1/sqrt(3): a bound of 1 lets the
    # fast path take the identity pair
    monkeypatch.setattr(tolerances, "DIAG_TOL", 1.0)
    assert np.array_equal(find_diagonalizing_pair(stack)[0], np.eye(2))
    monkeypatch.setattr(tolerances, "DIAG_TOL", 1e-4)
    loose = check_decomposable(state)
    # the tail split compares its ratio with no tolerance
    assert (loose.stage, loose.witness, loose.residuals) == \
        (rep.stage, rep.witness, rep.residuals)
    assert loose.tolerances_used["diag_tol"] == 1e-4


def test_missed_rebuild_checks_its_s_once(monkeypatch):
    # the explain pass takes the decision's verdict on S; it checked the
    # same S a second time before
    calls = []
    real_check = multipartite.scaled_unitary_check

    def counting(s):
        calls.append(s.shape)
        return real_check(s)

    monkeypatch.setattr(multipartite, "scaled_unitary_check", counting)
    rep = check_decomposable(near_product_tail(1e-5))
    assert rep.stage == "SlicesNotSimultaneouslyDiagonalizable"
    assert rep.witness == {"reconstruction": pytest.approx(8e-6)}
    assert len(calls) == 1


def test_rank_tol_reaches_assemble_and_schmidt_number(monkeypatch):
    state = tiny_third_coefficient()
    cut = Bipartition((1,), (2, 3))
    rep = check_decomposable(state)
    assert rep.decomposable and rep.decomposition.rank == 2
    assert schmidt_number(state, cut) == 2

    monkeypatch.setattr(tolerances, "RANK_TOL", 1e-12)
    rep = check_decomposable(state)
    assert rep.decomposable and rep.decomposition.rank == 3
    assert schmidt_number(state, cut) == 3
    assert rep.tolerances_used == {"rank_tol": 1e-12,
                                   "diag_tol": tolerances.DIAG_TOL,
                                   "orth_tol": tolerances.ORTH_TOL, "seed": 0}


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


def tolerance_reads(source: str) -> set[str]:
    """The names source reads as tolerances.NAME."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "tolerances"}


def test_tolerance_read_guard_sees_attribute_reads_only():
    source = ("ok = resid <= tolerances.DIAG_TOL * scale\n"
              "from .tolerances import RANK_TOL\n"
              "cut = RANK_TOL * top\n"
              "loose = config.ORTH_TOL\n")
    assert tolerance_reads(source) == {"DIAG_TOL"}


def public_thresholds() -> set[str]:
    return {name for name in vars(tolerances) if name.isupper() and not name.startswith("_")}


def test_every_tolerance_is_read_under_src():
    # a stage removed without its threshold would leave the constant unread
    src = Path(schmidtkit.__file__).parent
    read = set().union(*(tolerance_reads(path.read_text()) for path in sorted(src.rglob("*.py"))
                         if path.name != "tolerances.py"))
    assert sorted(public_thresholds() - read) == []


def error_model_rows(text: str) -> list[tuple[str, str]]:
    """(constant, value) of each row of the table under "## Error model", in order."""
    section = text.partition("\n## Error model\n")[2].partition("\n## ")[0]
    return [(cells[1].strip(" `"), cells[2].strip()) for cells in
            (line.split("|") for line in section.splitlines() if line.startswith("| `"))]


def test_error_model_guard_reads_its_own_section_only():
    text = ("| `OTHER_TOL` | 1 |\n## Error model\n\n| Constant | Value |\n|---|---|\n"
            "| `RANK_TOL` | 1e-9 | sigma |\n| `DIAG_TOL` | 1e-8 |\nsee `PSD_TOL`\n"
            "## Next\n| `LATER_TOL` | 2 |\n")
    assert error_model_rows(text) == [("RANK_TOL", "1e-9"), ("DIAG_TOL", "1e-8")]


def test_readme_error_model_has_one_row_per_threshold():
    # a threshold added, removed or retuned without its row, or a row left behind
    rows = error_model_rows(README.read_text())
    assert len(rows) == len({name for name, _ in rows})
    assert {name: float(value) for name, value in rows} == \
        {name: getattr(tolerances, name) for name in public_thresholds()}


def holds(build, error) -> bool:
    """Does build() return, rather than raise error?"""
    try:
        build()
    except error:
        return False
    return True


E2 = np.eye(2, dtype=complex)


def skewed(q: float) -> np.ndarray:
    """A 2x2 matrix whose rows' Gram matrix is q off the identity, at most."""
    return np.array([[1.0, 0.0], [q, 1.0]])


def diagonal_state(*coeffs) -> StateTensor:
    """sum_l c_l |lll> on three sites of dimension len(coeffs), renormalised."""
    k = len(coeffs)
    amps = np.zeros((k, k, k))
    amps[range(k), range(k), range(k)] = coeffs
    return new_state((k,) * 3, amps)


def spectra_apart(q: float) -> StateTensor:
    """On (2,2,3): site 1's spectrum is (0.6, 0.4), site 3's (0.6, 0.4 - q, q)."""
    amps = np.zeros((2, 2, 3))
    amps[0, 0, 0], amps[1, 1, 1], amps[1, 0, 2] = np.sqrt([0.6, 0.4 - q, q])
    return StateTensor((2, 2, 3), amps.reshape(-1))


def cuts_before_the_second_attempt(state: StateTensor) -> list[tuple[int, ...]]:
    """The cuts check_decomposable(state) computes before pair attempt 1, none if it makes none."""
    computed, seen = [], []
    spectra, attempt = multipartite.spectra, multipartite._pair_attempt

    def counting(state, keep):
        computed.append(tuple(keep))
        return spectra(state, keep)

    def marking(stack, k):
        if k == 1:
            seen.extend(computed)
        return attempt(stack, k)

    with mock.patch.object(multipartite, "spectra", counting), \
            mock.patch.object(multipartite, "_pair_attempt", marking):
        check_decomposable(state)
    return seen


def two_term_purification(angle: float) -> Purification:
    return Purification(StateTensor((2, 2), [np.cos(angle), 0.0, 0.0, np.sin(angle)]))


# each check as a function of the quantity q its threshold bounds, at the
# scale README's error model states, True when the check passes; q is
# taken with both signs, and a quantity that has one sign reads abs(q).
# A threshold retuned, or split from a check it shares, fails here
BOUNDARIES = {
    "state-norm": ("NORM_TOL", lambda q: holds(
        lambda: StateTensor((2,), [1.0 + q, 0.0]), NotNormalizable)),
    "density-trace": ("NORM_TOL", lambda q: holds(
        lambda: DensityMatrix((2,), np.diag([0.5 + q, 0.5])), NotNormalizable)),
    "density-hermiticity": ("NORM_TOL", lambda q: holds(
        lambda: DensityMatrix((2,), [[0.5, abs(q)], [0.0, 0.5]]), NotPSD)),
    "repair-window": ("REPAIR_WINDOW", lambda q: holds(
        lambda: new_state((2,), [1.0 + q, 0.0]), NotNormalizable)),
    "coefficient-norm": ("ORTH_TOL", lambda q: holds(
        lambda: SchmidtDecomposition((2, 2), [np.sqrt(0.64 + q), 0.6], (E2, E2)),
        NotNormalizable)),
    "family": ("ORTH_TOL", lambda q: holds(
        lambda: SchmidtDecomposition((2, 2), [0.8, 0.6], (skewed(q), E2)), DimensionMismatch)),
    "local-unitary": ("ORTH_TOL", lambda q: holds(
        lambda: apply_local_unitaries(ghz(3), [skewed(q), E2, E2]), InvalidArgs)),
    "psd": ("PSD_TOL", lambda q: holds(
        lambda: DensityMatrix((2,), np.diag([1.0 + abs(q), -abs(q)])), NotPSD)),
    # a floor: the combination's norm must reach it
    "combination-norm": ("COMBINATION_NORM_TOL", lambda q: not holds(
        lambda: rank_inequality_check(ghz(3), ghz(3), abs(q), 0.0, Bipartition((1,), (2, 3))),
        DegenerateCombination)),
    # relative to the row's largest magnitude, here 1e3: below, no lead
    "phase-lead": ("PHASE_TOL", lambda q: phase_fix(np.array([[1e3j * abs(q), 1e3]]))[1][0] == 1),
    # relative to the largest singular value: below, not counted
    "rank-bipartite": ("RANK_TOL", lambda q: schmidt_number(
        new_state((2, 2), [1.0, 0.0, 0.0, abs(q)]), Bipartition((1,), (2,))) == 1),
    "rank-decomposition": ("RANK_TOL", lambda q: schmidt_decompose_bipartite(
        new_state((2, 2), [1.0, 0.0, 0.0, abs(q)]), Bipartition((1,), (2,))).decomposition.rank
        == 1),
    "rank-candidate": ("RANK_TOL", lambda q: check_decomposable(
        diagonal_state(0.8, 0.6, 0.8 * abs(q))).decomposition.rank == 2),
    # absolute on the eigenvalues of rho, the squared singular values
    "rank-purify": ("RANK_TOL", lambda q: purify(
        DensityMatrix((2,), np.diag([1.0 - abs(q), abs(q)]))).reference_dim == 1),
    "spectra-entries": ("SPECTRA_TOL", lambda q: equal_spectra_check(ghz(3), cuts={
        (1,): np.array([0.5, 0.5]), (1, 2): np.array([0.5 + q, 0.5 - q, 0.0, 0.0]),
        (1, 3): np.array([0.5, 0.5, 0.0, 0.0])})[0]),
    "spectra-count": ("SPECTRA_TOL", lambda q: equal_spectra_check(ghz(3), cuts={
        (1,): np.array([0.5, 0.5]), (1, 2): np.array([0.5, 0.5, abs(q), 0.0]),
        (1, 3): np.array([0.5, 0.5, 0.0, 0.0])})[0]),
    # the decision's walk after attempt 0 misses (no pair fits these
    # slices): site 1 against the cut (1, 2), whose complement is site 3.
    # Within it the walk goes on to (1, 3); past it the walk stops there,
    # and the gap, 2q in l1, is far too small to prove a reject
    "spectra-early-out": ("SPECTRA_TOL", lambda q: (1, 3) in cuts_before_the_second_attempt(
        spectra_apart(abs(q)))),
    # absolute on the slices: within it the identity pair, past it a rotation
    "pair-fast-path": ("DIAG_TOL", lambda q: np.array_equal(
        find_diagonalizing_pair(np.array([[[0.8, abs(q)], [0.0, 0.6]]]))[0], np.eye(2))),
    # relative to the largest diagonal entry of S S+, here 100
    "s-rows": ("DIAG_TOL", lambda q: scaled_unitary_check(
        10.0 * np.array([[1.0, 0.0], [abs(q), 0.5]]))[0]),
    "link-coefficients": ("LINK_TOL", lambda q: holds(
        lambda: local_unitary_link(diagonal_state(0.8, 0.6),
                                   diagonal_state(np.sqrt(1.0 - (0.6 + q) ** 2), 0.6 + q)),
        CoefficientsMismatch)),
    # the Frobenius misfit of cos/sin pairs an angle q apart is about q
    "link-purifications": ("LINK_TOL", lambda q: holds(
        lambda: linking_unitary(two_term_purification(0.6), two_term_purification(0.6 + q)),
        DifferentStates)),
    # the certificate, at 8 sqrt(D) times it in l1: the cut (1, 2) of
    # spectra_apart(x) is 2x from site 1's, so the walk's reject is proved
    # past it, and within it attempts 1 to 7 follow (D = 12)
    "spectra-certificate": ("RECONSTRUCT_TOL", lambda q: bool(cuts_before_the_second_attempt(
        spectra_apart(4 * np.sqrt(12) * abs(q))))),
    # the rebuild misses the tails' second terms, 0.8 eps apart
    "reconstruct": ("RECONSTRUCT_TOL", lambda q: check_decomposable(
        near_product_tail(abs(q) / 0.8)).decomposable),
}


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_each_check_passes_just_inside_its_threshold_and_fails_just_outside(name):
    constant, check = BOUNDARIES[name]
    tol = getattr(tolerances, constant)
    for sign in (1.0, -1.0):
        assert check(sign * tol / 2) and not check(sign * tol * 2), sign


def test_every_threshold_has_a_boundary_pair():
    assert {constant for constant, _ in BOUNDARIES.values()} == public_thresholds()


def assert_statements(source: str) -> list[str]:
    """The assert statements in source: python -O strips every one."""
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_guard_flags_assert_statements_only():
    source = ("assert x > 0, 'x'\n"
              "if not ok:\n"
              "    raise AssertionError('assert')\n"
              "assert_ok = check(x)\n")
    assert assert_statements(source) == ["assert x > 0, 'x'"]


def test_no_assert_under_src():
    # a check must raise, or it vanishes under python -O
    src = Path(schmidtkit.__file__).parent
    offenders = [f"{path.relative_to(src)}: {stmt}" for path in sorted(src.rglob("*.py"))
                 for stmt in assert_statements(path.read_text())]
    assert offenders == []


ARRAY_WIDE = ("phase_fix", "complex_pairs")
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)
# whole-array calls that sit in a loop over something other than rows:
# one call per family (families differ in width) and one per tail cut
LOOPED_ON_PURPOSE = {"io.py: complex_pairs(family)",
                     "multipartite.py: phase_fix(u[:, :, 0])"}


def calls_in_loops(source: str, names=ARRAY_WIDE) -> list[str]:
    """Calls of the named functions anywhere in a loop or a comprehension, sorted.

    phase_fix and complex_pairs each take a whole array, so a call in a
    loop is most likely a call per row, the loop they replaced.
    """
    return sorted({
        ast.unparse(call) for loop in ast.walk(ast.parse(source)) if isinstance(loop, LOOPS)
        for call in ast.walk(loop) if isinstance(call, ast.Call)
        and getattr(call.func, "id", getattr(call.func, "attr", None)) in names})


def test_loop_call_guard_flags_calls_in_loops_only():
    source = ("fixed, phases = phase_fix(rows)\n"
              "pairs = io.complex_pairs(u)\n"
              "for l in range(k):\n"
              "    for j in range(2):\n"
              "        left[l], ph = phase_fix(left[l])\n"
              "rows = [io.complex_pairs(row) for row in u]\n"
              "while todo:\n"
              "    todo = complex_pairs(todo.pop())\n"
              "names = [fix_phase(row) for row in u]\n")
    assert calls_in_loops(source) == ["complex_pairs(todo.pop())", "io.complex_pairs(row)",
                                      "phase_fix(left[l])"]


def test_no_array_wide_call_in_a_loop_under_src():
    src = Path(schmidtkit.__file__).parent
    offenders = [f"{path.relative_to(src)}: {call}" for path in sorted(src.rglob("*.py"))
                 for call in calls_in_loops(path.read_text())]
    assert sorted(set(offenders) - LOOPED_ON_PURPOSE) == []
    assert LOOPED_ON_PURPOSE <= set(offenders)  # and each exception is still there


# only these functions build a Generator, nothing under src/ touches any
# other numpy.random member (a global draw, RandomState, a bit generator),
# and only the state and decomposition generators take a seed
RNG_OWNERS = {"random_decomposition", "haar_random_state", "_attempt_bases", "_commute_weights"}
SEEDED = {"random_decomposition", "random_decomposable_state", "haar_random_state"}


def random_uses(source: str) -> list[tuple[str, str, str]]:
    """Each use of numpy.random in source as (innermost function, member, text).

    A use is a call of default_rng or of an attribute of a name spelled
    random (np.random.standard_normal, numpy.random.Generator, ...), or an
    import from numpy.random; an import's member is "import".
    """
    found = []

    def member(func):
        if isinstance(func, ast.Name) and func.id == "default_rng":
            return func.id
        if isinstance(func, ast.Attribute) and \
                getattr(func.value, "attr", getattr(func.value, "id", None)) == "random":
            return func.attr
        return None

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and member(child.func):
                found.append((owner, member(child.func), ast.unparse(child)))
            if isinstance(child, ast.ImportFrom) and (child.module or "").startswith("numpy.random"):
                found.append((owner, "import", ast.unparse(child)))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def seed_parameters(source: str) -> list[str]:
    """The public functions in source with a parameter named seed."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and "seed" in [a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                           *node.args.kwonlyargs)]]


def test_randomness_guard_flags_calls_imports_and_seed_parameters():
    source = ("from numpy.random import standard_normal\n"
              "RNG = np.random.default_rng(1)\n"
              "def haar_random_state(dims, seed=0):\n"
              "    return np.random.default_rng(seed)\n"
              "def check(state, *, seed=0):\n"
              "    def inner():\n"
              "        return default_rng((seed, 0))\n"
              "    return inner\n"
              "def _private(seed):\n"
              "    np.random.standard_normal(3)\n"
              "    gen = numpy.random.Generator(np.random.PCG64(seed))\n"
              "    return rng.standard_normal(3), seed_rng(seed)\n")
    assert random_uses(source) == [
        ("<module>", "import", "from numpy.random import standard_normal"),
        ("<module>", "default_rng", "np.random.default_rng(1)"),
        ("haar_random_state", "default_rng", "np.random.default_rng(seed)"),
        ("inner", "default_rng", "default_rng((seed, 0))"),
        ("_private", "standard_normal", "np.random.standard_normal(3)"),
        ("_private", "Generator", "numpy.random.Generator(np.random.PCG64(seed))"),
        ("_private", "PCG64", "np.random.PCG64(seed)")]
    assert seed_parameters(source) == ["haar_random_state", "check"]


def test_only_the_generators_take_a_seed_or_build_a_generator_under_src():
    src = Path(schmidtkit.__file__).parent
    sources = {path.relative_to(src): path.read_text() for path in sorted(src.rglob("*.py"))}
    stray = [f"{path}: {text}" for path, source in sources.items()
             for owner, name, text in random_uses(source)
             if owner not in RNG_OWNERS or name != "default_rng"]
    seeded = [f"{path}: {name}" for path, text in sources.items()
              for name in seed_parameters(text) if name not in SEEDED]
    assert stray == [] and seeded == []
    owners = {owner for text in sources.values() for owner, _, _ in random_uses(text)}
    assert owners == RNG_OWNERS  # and each owner still draws
