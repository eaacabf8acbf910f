"""State containers, index conventions, partial trace."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtkit import (
    Bipartition,
    DensityMatrix,
    DimensionMismatch,
    Grouping,
    GroupingMismatch,
    IndicesOutOfRange,
    InvalidArgs,
    InvalidPartition,
    NotNormalizable,
    NotPSD,
    RankTooLarge,
    SchmidtDecomposition,
    SchmidtError,
    StateTensor,
    basis_state,
    bell,
    enumerate_groupings,
    flatten,
    ghz,
    haar_random_state,
    max_schmidt_number,
    new_state,
    partial_trace,
    pure_density,
    purify,
    qubit_bound,
    random_decomposable_state,
    random_decomposition,
    reconstruct,
    reduced_density,
    spectra,
    subset_sum_to_partition,
    w_state,
)
from schmidtkit import tolerances
from schmidtkit.linalg import phase_fix

from phase_oracle import phase_fix_row

RT3 = 1.0 / np.sqrt(3.0)
RT2 = 1.0 / np.sqrt(2.0)


def test_state_validates_shape_and_norm():
    with pytest.raises(NotNormalizable):
        StateTensor((2, 2), np.array([1.0, 0.0, 0.0, 1.0]))
    st_ok = StateTensor((2, 2), np.array([1.0, 0.0, 0.0, 0.0]))
    assert st_ok.subsystem_count == 2
    assert st_ok.total_dim == 4
    with pytest.raises(Exception):
        StateTensor((2, 3), np.zeros(4))


def test_amplitudes_are_frozen():
    s = bell()
    with pytest.raises(ValueError):
        s.amplitudes[0] = 9.0


def test_new_state_repairs_small_norm_drift():
    amps = np.array([1.0, 0, 0, 1.0]) * (RT2 + 3e-7)
    s = new_state((2, 2), amps)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    with pytest.raises(NotNormalizable):
        new_state((2, 2), np.array([1.0, 0, 0, 1.0]))
    # the zero vector fails the window test like any other norm
    with pytest.raises(NotNormalizable, match=f"by more than {tolerances.REPAIR_WINDOW}$"):
        new_state((2, 2), np.zeros(4))


def test_fixture_amplitudes():
    w = w_state()
    assert np.allclose(w.amplitudes[[1, 2, 4]], RT3)
    assert np.count_nonzero(w.amplitudes) == 3
    g = ghz(3)
    assert g.amplitudes[0] == pytest.approx(RT2)
    assert g.amplitudes[7] == pytest.approx(RT2)
    assert bell().amplitudes[3] == pytest.approx(RT2)


def test_bipartition_validation():
    b = Bipartition((1, 3), (2,))
    assert b.left == (1, 3) and b.right == (2,)
    assert Bipartition.from_left((2,), 3).right == (1, 3)
    with pytest.raises(InvalidPartition):
        Bipartition((1,), (1, 2))
    with pytest.raises(InvalidPartition):
        Bipartition((), (1, 2))
    with pytest.raises(InvalidPartition):
        Bipartition((0, 1), (2,))


def from_left_formula(left, n):
    """Bipartition.from_left as it was, with set(left) rebuilt per index."""
    left = tuple(sorted(int(i) for i in left))
    return Bipartition(left, tuple(i for i in range(1, n + 1) if i not in set(left)))


def test_from_left_matches_the_per_index_formula():
    for n in range(2, 11):
        for size in range(1, n):
            for left in itertools.combinations(range(1, n + 1), size):
                assert Bipartition.from_left(left[::-1], n) == from_left_formula(left, n)
    rng = np.random.default_rng(30)
    for _ in range(200):
        left = list(rng.choice(np.arange(1, 31), size=int(rng.integers(1, 30)), replace=False))
        assert Bipartition.from_left(left, 30) == from_left_formula(left, 30)


def test_flatten_w_state_pinned():
    # across 1|23 the W amplitudes arrange as 1/sqrt3 * [[0,1,1,0],[1,0,0,0]]
    m = flatten(w_state(), Bipartition((1,), (2, 3)))
    assert np.array_equal(m, RT3 * np.array([[0, 1, 1, 0], [1, 0, 0, 0]]))


def test_flatten_reorders_axes():
    s = haar_random_state((2, 3, 4), seed=1)
    m = flatten(s, Bipartition((2,), (1, 3)))
    t = s.tensor()
    for j in range(3):
        for i in range(2):
            for k in range(4):
                assert m[j, i * 4 + k] == t[i, j, k]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_flatten_is_entrywise_bijection(seed):
    s = haar_random_state((2, 3, 2), seed=seed)
    m = flatten(s, Bipartition((1, 3), (2,)))
    back = np.transpose(m.reshape(2, 2, 3), (0, 2, 1)).reshape(-1)
    assert np.array_equal(back, s.amplitudes)


def _trace_oracle(state, keep):
    """Index-by-index contraction, independent of the library routes."""
    dims = state.dims
    n = len(dims)
    keep0 = [k - 1 for k in keep]
    drop0 = [i for i in range(n) if i not in keep0]
    t = state.tensor()
    dk = int(np.prod([dims[i] for i in keep0])) if keep0 else 1
    out = np.zeros((dk, dk), dtype=complex)
    kept = list(itertools.product(*[range(dims[i]) for i in keep0]))
    dropped = list(itertools.product(*[range(dims[i]) for i in drop0]))
    for row, a in enumerate(kept):
        for col, b in enumerate(kept):
            acc = 0.0
            for c in dropped:
                ia, ib = [0] * n, [0] * n
                for ax, v in zip(keep0, a):
                    ia[ax] = v
                for ax, v in zip(keep0, b):
                    ib[ax] = v
                for ax, v in zip(drop0, c):
                    ia[ax] = v
                    ib[ax] = v
                acc += t[tuple(ia)] * np.conj(t[tuple(ib)])
            out[row, col] = acc
    return out


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (3, 4)])
def test_partial_trace_routes_agree_with_loop_oracle(dims):
    n = len(dims)
    for seed in range(3):
        s = haar_random_state(dims, seed=seed)
        rho = pure_density(s)
        for r in range(1, n + 1):
            for keep in itertools.combinations(range(1, n + 1), r):
                want = _trace_oracle(s, keep)
                got_a = reduced_density(s, keep).entries
                got_b = partial_trace(rho, keep).entries
                assert np.max(np.abs(got_a - want)) < 1e-12
                assert np.max(np.abs(got_b - want)) < 1e-12


def test_reduced_density_pinned_values():
    rho1 = reduced_density(w_state(), (1,)).entries
    assert np.allclose(rho1, np.diag([2 / 3, 1 / 3]), atol=1e-15)
    rho12 = reduced_density(ghz(3), (1, 2)).entries
    want = np.zeros((4, 4))
    want[0, 0] = want[3, 3] = 0.5
    assert np.allclose(rho12, want, atol=1e-15)


def test_reduced_density_trace_one():
    s = haar_random_state((3, 3, 3), seed=7)
    for keep in [(1,), (2,), (1, 3)]:
        assert np.trace(reduced_density(s, keep).entries) == pytest.approx(1.0)


def test_complement_spectra_match():
    s = haar_random_state((2, 3, 4), seed=5)
    for keep, rest in [((1,), (2, 3)), ((2,), (1, 3)), ((1, 2), (3,))]:
        a = np.sort(np.linalg.eigvalsh(reduced_density(s, keep).entries))[::-1]
        b = np.sort(np.linalg.eigvalsh(reduced_density(s, rest).entries))[::-1]
        k = min(len(a), len(b))
        assert np.allclose(a[:k], b[:k], atol=1e-10)
        assert np.all(np.abs(a[k:]) < 1e-10) and np.all(np.abs(b[k:]) < 1e-10)


def test_density_matrix_validation():
    with pytest.raises(NotPSD):
        DensityMatrix((2,), np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(NotPSD):
        DensityMatrix((2,), np.array([[1.5, 0.0], [0.0, -0.5]]))
    with pytest.raises(Exception):
        DensityMatrix((2,), np.eye(2))  # trace 2
    ok = DensityMatrix((2,), np.eye(2) / 2)
    assert ok.total_dim == 2


def test_schmidt_decomposition_validation():
    good = SchmidtDecomposition(
        (2, 2),
        np.array([RT2, RT2]),
        (np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
    )
    assert good.rank == 2
    with pytest.raises(Exception):
        SchmidtDecomposition(
            (2, 2), np.array([RT2, -RT2]),
            (np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
    with pytest.raises(Exception):
        SchmidtDecomposition(
            (2, 2), np.array([RT2, RT2]),
            (np.array([[1, 0], [1, 0]], dtype=complex), np.eye(2, dtype=complex)))
    with pytest.raises(RankTooLarge):
        # rank check fires before family validation
        SchmidtDecomposition((2, 4), np.ones(3) / np.sqrt(3.0), ())


E2 = np.eye(2, dtype=complex)


@pytest.mark.parametrize("build, exc, message", [
    (lambda: ghz(1), DimensionMismatch, "at least two qubits"),
    (lambda: basis_state((2, 2), (0,)), DimensionMismatch, "does not match dims"),
    (lambda: basis_state((2, 2), (0, 2)), IndicesOutOfRange, "outside dims"),
    (lambda: StateTensor((2, 0), []), DimensionMismatch, "positive integers"),
    (lambda: new_state((2, 2), np.ones(3)), DimensionMismatch, "expected 4 amplitudes"),
    (lambda: DensityMatrix((2,), np.eye(3) / 3), DimensionMismatch, "2x2 matrix"),
    (lambda: SchmidtDecomposition((2, 2), [], (E2, E2)), DimensionMismatch, "nonempty"),
    (lambda: SchmidtDecomposition((2, 2), [0.6, 0.8], (E2, E2)),
     DimensionMismatch, "sorted descending"),
    (lambda: SchmidtDecomposition((2, 2), [0.8, 0.5], (E2, E2)),
     NotNormalizable, "sum to 1"),
    (lambda: SchmidtDecomposition((2, 2), [1.0], (E2, E2[:1])),
     DimensionMismatch, r"family 1 has shape \(2, 2\)"),
    (lambda: SchmidtDecomposition((2, 2, 2), [1.0], (E2[:1], E2[:1])),
     DimensionMismatch, "need 3 vector families, got 2"),
    # counted before any family is matched to its dimension
    (lambda: SchmidtDecomposition((2, 2), [1.0], (E2[:1],) * 3),
     DimensionMismatch, "need 2 vector families, got 3"),
    (lambda: flatten(ghz(3), Bipartition((1,), (2,))),
     InvalidPartition, "covers 2 subsystems, state has 3"),
    # 2 x 27 contraction labels is more than the 52 ASCII letters
    (lambda: partial_trace(DensityMatrix((1,) * 27, [[1.0]]), (1,)),
     DimensionMismatch, "too many subsystems"),
    # the generators check dims, and size their arrays, before allocating
    (lambda: haar_random_state((2, -1, 2)), DimensionMismatch, "positive integers"),
    (lambda: random_decomposition((2, -1, 2), 1), DimensionMismatch, "positive integers"),
    (lambda: basis_state((2 ** 32, 2 ** 32), (0, 0)), DimensionMismatch, "multiply to"),
    (lambda: haar_random_state((2 ** 32, 2 ** 32)), DimensionMismatch, "multiply to"),
    (lambda: random_decomposition((2 ** 32, 2 ** 32), 1), DimensionMismatch, "multiply to"),
    (lambda: ghz(63), DimensionMismatch, "multiply to"),
    # a negative seed is refused before numpy is asked to draw from it
    (lambda: haar_random_state((2, 2), -1), InvalidArgs, "nonnegative"),
    (lambda: random_decomposition((2, 2), 1, -1), InvalidArgs, "nonnegative"),
    (lambda: random_decomposable_state((2, 2, 2), 2, -1), InvalidArgs, "nonnegative"),
    # and so is a seed or rank that is no integer, which numpy would refuse with a TypeError
    (lambda: haar_random_state((2, 2), 1.5), InvalidArgs, "seed must be an integer"),
    (lambda: random_decomposition((2, 2, 2), 2, 1.5), InvalidArgs, "seed must be an integer"),
    (lambda: random_decomposition((2, 2, 2), 2.0, 1), InvalidArgs, "rank must be an integer"),
], ids=["ghz-1", "basis-count", "basis-range", "state-dim-0", "new-state-size",
        "density-shape", "coeffs-empty", "coeffs-ascending", "coeffs-norm",
        "family-shape", "family-count", "family-count-over", "flatten-count", "trace-labels",
        "haar-dim-negative", "random-decomposition-dim-negative", "basis-total",
        "haar-total", "random-decomposition-total", "ghz-total", "haar-seed-negative",
        "random-decomposition-seed-negative", "random-decomposable-state-seed-negative",
        "haar-seed-fraction", "random-decomposition-seed-fraction",
        "random-decomposition-rank-float"])
def test_constructor_input_checks(build, exc, message):
    with pytest.raises(exc, match=message):
        build()


@pytest.mark.parametrize("build, exc, message", [
    (lambda: max_schmidt_number([0] * 10 ** 6), DimensionMismatch,
     "dimensions must be positive integers, got 0 at position 1 of 1000000"),
    (lambda: haar_random_state((0,) * 10 ** 5, 1), DimensionMismatch,
     "dimensions must be positive integers, got 0 at position 1 of 100000"),
    (lambda: haar_random_state((1,) * 10 ** 5 + (-3,), 1), DimensionMismatch,
     "dimensions must be positive integers, got -3 at position 100001 of 100001"),
    (lambda: subset_sum_to_partition([0] * 10 ** 6, 1), InvalidArgs,
     "values must be positive integers, got 0 at position 1 of 1000000"),
    (lambda: Grouping((0,) * 10 ** 5), GroupingMismatch,
     "group sizes must be positive, got 0 at position 1 of 100000"),
    (lambda: Grouping(()), GroupingMismatch, r"group sizes must be positive, got \(\)"),
], ids=["max-schmidt-number", "haar", "haar-last", "subset-sum", "grouping", "grouping-empty"])
def test_a_long_bad_input_gets_a_short_message(build, exc, message):
    # the first bad entry, its position and the count, not the whole input
    with pytest.raises(exc, match=message) as info:
        build()
    assert len(str(info.value)) < 200


RANK_ONE_QUBIT = DensityMatrix((2,), np.diag([1.0, 0.0]))

# every entry point that reads a dimension, subsystem index, occupation,
# group size or count; each read goes through operator.index, so 2.5 is
# never truncated to 2 and 2.0 is refused too
INTEGER_READS = {
    "state-dims": (lambda v: StateTensor((v, 2), np.eye(4)[0]), DimensionMismatch),
    "new-state-dims": (lambda v: new_state((v, 2), np.eye(4)[0]), DimensionMismatch),
    "density-dims": (lambda v: DensityMatrix((v, 2), np.eye(4) / 4), DimensionMismatch),
    "haar-dims": (lambda v: haar_random_state((v, 2), 1), DimensionMismatch),
    "bipartition-left": (lambda v: Bipartition((v,), (1,)), InvalidPartition),
    "bipartition-right": (lambda v: Bipartition((1,), (v,)), InvalidPartition),
    "from-left": (lambda v: Bipartition.from_left((v,), 2), InvalidPartition),
    "from-left-n": (lambda v: Bipartition.from_left((1,), v), InvalidPartition),
    "reduced-density-keep": (lambda v: reduced_density(ghz(3), (v,)), InvalidPartition),
    "spectra-keep": (lambda v: spectra(ghz(3), (v,)), InvalidPartition),
    "basis-occupation": (lambda v: basis_state((3, 3), (v, 1)), IndicesOutOfRange),
    "grouping-sizes": (lambda v: Grouping((v, 2)), GroupingMismatch),
    "purify-reference-dim": (lambda v: purify(RANK_ONE_QUBIT, v), InvalidArgs),
    "ghz-n": (lambda v: ghz(v + 1), InvalidArgs),
    "enumerate-groupings-m": (lambda v: enumerate_groupings(v + 1, 2), InvalidArgs),
    "enumerate-groupings-n": (lambda v: enumerate_groupings(3, v), InvalidArgs),
    "qubit-bound-n": (lambda v: qubit_bound(v + 2), InvalidArgs),
}


@pytest.mark.parametrize("value", [2.5, 2.0])
@pytest.mark.parametrize("name", sorted(INTEGER_READS))
def test_non_integral_values_are_refused_not_truncated(name, value):
    build, exc = INTEGER_READS[name]
    assert issubclass(exc, SchmidtError)
    with pytest.raises(exc, match="must be an integer"):
        build(value)


NAN_ROW = np.array([np.nan, 0.0])


@pytest.mark.parametrize("build", [
    lambda: StateTensor((2,), NAN_ROW),
    lambda: new_state((2,), NAN_ROW),
    lambda: DensityMatrix((2,), np.diag(NAN_ROW)),
    lambda: SchmidtDecomposition((2, 2), [np.nan], (E2[:1], E2[:1])),
    lambda: SchmidtDecomposition((2, 2), [1.0], (NAN_ROW[None], E2[:1])),
], ids=["state-amplitude", "new-state-amplitude", "density-entry", "coefficient",
        "family-vector"])
def test_nan_entries_fail_container_checks(build):
    # every comparison with NaN is False, so each check must be one that NaN fails
    with pytest.raises(SchmidtError):
        build()


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=str)
def test_state_norm_error_shows_a_plain_number(value):
    # new_state and DensityMatrix are read through the CLI in test_cli
    with pytest.raises(NotNormalizable) as err:
        StateTensor((2,), [value, 0.0])
    assert f"state norm {value} is not 1" in str(err.value) and "np." not in str(err.value)


def test_phase_fix_leaves_zero_vector():
    zero = np.zeros((1, 3), dtype=complex)
    fixed, phases = phase_fix(zero)
    assert phases.tolist() == [1.0] and np.array_equal(fixed, zero) and fixed is not zero


def bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=complex).tobytes()


def random_family(rng, k: int, d: int) -> np.ndarray:
    """k rows of d entries, each plain, zero (either sign), led by entries
    below PHASE_TOL * max, or led by exact zeros."""
    rows = rng.standard_normal((k, d)) + 1j * rng.standard_normal((k, d))
    for row in rows:
        kind, lead = rng.integers(5), rng.integers(d)
        if kind == 1:
            row[:] = 0.0 if rng.integers(2) else complex(-0.0, -0.0)
        elif kind == 2:
            row[:lead] *= 10.0 ** rng.uniform(-20, -11, lead)
        elif kind == 3:
            row[:lead] = 0.0
    return rows


@pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
def test_phase_fix_family_matches_row_by_row_bits(layout):
    # the family rule gives, row by row, the bits of the one-vector rule
    rng = np.random.default_rng(18)
    for trial in range(300):
        rows = random_family(rng, 1 + trial % 6, int(rng.integers(1, 12)))
        if layout == "fortran":
            rows = np.asfortranarray(rows)
        elif layout == "strided":
            rows = np.repeat(rows, 2, axis=1)[:, ::2]
        before = bits(rows)
        fixed, phases = phase_fix(rows)
        assert fixed.shape == rows.shape and phases.shape == (len(rows),)
        for row, got, phase in zip(rows, fixed, phases):
            want, want_phase = phase_fix_row(row)
            assert bits(got) == bits(want) and bits(phase) == bits(want_phase)
        assert bits(rows) == before


def test_reconstruct_round_trip():
    dec = SchmidtDecomposition(
        (2, 2, 2),
        np.array([RT2, RT2]),
        (np.eye(2, dtype=complex),) * 3,
    )
    assert np.allclose(reconstruct(dec).amplitudes, ghz(3).amplitudes)
