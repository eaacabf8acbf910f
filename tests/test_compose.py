"""Composition of decomposable states and the rank inequality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtkit import (
    Bipartition,
    DegenerateCombination,
    DimensionMismatch,
    Grouping,
    GroupingMismatch,
    InvalidArgs,
    NotDecomposable,
    basis_state,
    bell,
    check_decomposable,
    compose,
    enumerate_groupings,
    ghz,
    haar_random_state,
    rank_inequality_check,
    reconstruct,
    schmidt_decompose_bipartite,
    schmidt_dimension,
    w_state,
)
from schmidtkit.multipartite import random_decomposition

RT2 = 1.0 / np.sqrt(2.0)


def ghz_dec(n=3):
    return check_decomposable(ghz(n)).decomposition


def bell_dec():
    return schmidt_decompose_bipartite(bell(), Bipartition((1,), (2,))).decomposition


def test_enumerate_groupings_pinned():
    assert [g.sizes for g in enumerate_groupings(4, 2)] == [(1, 3), (2, 2), (3, 1)]
    assert [g.sizes for g in enumerate_groupings(3, 3)] == [(1, 1, 1)]
    assert len(enumerate_groupings(5, 3)) == 6
    with pytest.raises(InvalidArgs):
        enumerate_groupings(2, 3)
    with pytest.raises(InvalidArgs):
        enumerate_groupings(3, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12))
def test_grouping_count_matches_binomial(m, n):
    if n > m:
        return
    got = enumerate_groupings(m, n)
    assert len(got) == math.comb(m - 1, n - 1)
    assert all(sum(g.sizes) == m and len(g.sizes) == n for g in got)
    assert sorted(set(g.sizes for g in got)) == sorted(g.sizes for g in got)


def test_compose_ghz_bell_pinned():
    merged = compose(ghz_dec(), bell_dec(), Grouping((2, 1)))
    assert merged.dims == (8, 4)
    assert merged.rank == 4
    assert np.allclose(merged.coefficients, 0.5)
    assert schmidt_dimension(merged).parts == 2
    assert schmidt_dimension(merged).rank == 4


def test_schmidt_dimension_basics():
    assert schmidt_dimension(bell_dec()) == schmidt_dimension(bell_dec())
    d = schmidt_dimension(ghz_dec())
    assert (d.parts, d.rank) == (3, 2)


def test_compose_reconstruction_matches_permuted_product():
    da = random_decomposition((2, 3, 2), 2, seed=1)
    db = random_decomposition((2, 2), 2, seed=2)
    merged = compose(da, db, Grouping((2, 1)))
    # group 1 = A1 A2 B1, group 2 = A3 B2
    full = np.kron(reconstruct(da).amplitudes, reconstruct(db).amplitudes)
    t = full.reshape(2, 3, 2, 2, 2)
    t = np.transpose(t, (0, 1, 3, 2, 4))
    assert np.max(np.abs(reconstruct(merged).amplitudes - t.reshape(-1))) < 1e-10


def test_compose_output_is_decomposable():
    for seed in range(6):
        da = random_decomposition((2, 2, 3), 2, seed=seed)
        db = random_decomposition((2, 2, 2), 2, seed=100 + seed)
        merged = compose(da, db, Grouping((1, 1, 1)))
        rep = check_decomposable(reconstruct(merged))
        assert rep.decomposable
        assert rep.decomposition.rank == 4


def test_compose_coefficients_sorted_products():
    da = random_decomposition((3, 3), 3, seed=3)
    db = random_decomposition((2, 2), 2, seed=4)
    merged = compose(da, db, Grouping((1, 1)))
    want = np.sort(np.outer(da.coefficients, db.coefficients).reshape(-1))[::-1]
    assert np.allclose(merged.coefficients, want / np.linalg.norm(want))
    assert np.all(np.diff(merged.coefficients) <= 1e-15)


def test_compose_validation():
    with pytest.raises(GroupingMismatch):
        compose(bell_dec(), ghz_dec(), Grouping((1, 1, 1)))  # m < n
    with pytest.raises(GroupingMismatch):
        compose(ghz_dec(), bell_dec(), Grouping((1, 1)))  # sizes sum to 2
    with pytest.raises(GroupingMismatch):
        compose(ghz_dec(), bell_dec(), Grouping((3,)))  # wrong block count
    with pytest.raises(GroupingMismatch):
        Grouping((2, 0))


def test_rank_inequality_bipartite_pinned():
    rep = rank_inequality_check(
        ghz(3), basis_state((2, 2, 2), (0, 0, 0)), RT2, RT2,
        Bipartition((1,), (2, 3)))
    assert rep.applicable and rep.holds
    assert (rep.rank_phi, rep.rank_gamma) == (2, 1)
    assert rep.rank_psi >= 1
    assert rep.mode == "bipartite"


def test_rank_inequality_random_sweep():
    rng = np.random.default_rng(6)
    cut = Bipartition((1,), (2,))
    for i in range(60):
        phi = haar_random_state((3, 4), seed=2 * i)
        gam = haar_random_state((3, 4), seed=2 * i + 1)
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        rep = rank_inequality_check(phi, gam, a, b, cut)
        assert rep.holds
        assert rep.rank_psi >= abs(rep.rank_phi - rep.rank_gamma)


def test_rank_inequality_multipartite_modes():
    phi = ghz(3)
    gam = basis_state((2, 2, 2), (0, 0, 0))
    rep = rank_inequality_check(phi, gam, 0.8, 0.6)
    assert rep.mode == "multipartite"
    assert rep.applicable and rep.holds

    # W built stepwise: the first partial sum is already not decomposable
    a = basis_state((2, 2, 2), (0, 1, 0))
    b = basis_state((2, 2, 2), (1, 0, 0))
    rep = rank_inequality_check(a, b, RT2, RT2)
    assert not rep.applicable
    assert rep.holds is None
    assert "not applicable" in rep.detail

    with pytest.raises(NotDecomposable):
        rank_inequality_check(w_state(), gam, RT2, RT2)


def test_rank_inequality_degenerate_combination():
    with pytest.raises(DegenerateCombination):
        rank_inequality_check(ghz(3), ghz(3), 1.0, -1.0,
                              Bipartition((1,), (2, 3)))
    # huge scalars that cancel, and zero ones, leave the zero vector
    for alpha, beta in ((1e300, -1e300), (0.0, 0.0)):
        with pytest.raises(DegenerateCombination, match=r"norm 0\.000e\+00 is below 1e-08$"):
            rank_inequality_check(ghz(3), ghz(3), alpha, beta)
    with pytest.raises(DimensionMismatch):
        rank_inequality_check(ghz(3), bell(), 1.0, 1.0)


@pytest.mark.parametrize("alpha, beta", [
    (math.nan, 1.0), (math.inf, 1.0), (1.0, complex(0.0, -math.inf)),
    (complex(math.nan, math.nan), 0.0),
], ids=["nan-alpha", "inf-alpha", "inf-imag-beta", "nan-both-parts"])
@pytest.mark.parametrize("cut", [None, Bipartition((1,), (2, 3))], ids=["joint", "cut"])
def test_rank_inequality_refuses_a_non_finite_scalar(alpha, beta, cut):
    # refused before any arithmetic: nan and inf times a zero amplitude
    # warn, and a NaN combination used to reach StateTensor as unnormalisable
    with pytest.raises(InvalidArgs, match="must be finite"):
        rank_inequality_check(ghz(3), ghz(3), alpha, beta, cut)


@pytest.mark.parametrize("size", [1e300, 1e308, complex(1.5e308, -1.5e308)], ids=str)
@pytest.mark.parametrize("gamma", [ghz(3), basis_state((2, 2, 2), (0, 0, 0))],
                         ids=["ghz", "basis"])
@pytest.mark.parametrize("cut", [None, Bipartition((1,), (2, 3))], ids=["joint", "cut"])
def test_rank_inequality_takes_large_finite_scalars(size, gamma, cut):
    # the combination's norm overflowed: numpy warned, and the inf norm
    # divided the combination to zero, which StateTensor then refused
    want = rank_inequality_check(ghz(3), gamma, 1.0, 1.0, cut)
    assert rank_inequality_check(ghz(3), gamma, size, size, cut) == want


def test_combination_norm_test_fails_a_nan(monkeypatch):
    # the norm test is written so that a NaN fails it, as state.py's are
    phi = ghz(3)
    monkeypatch.setattr(np.linalg, "norm", lambda x: math.nan)
    with pytest.raises(DegenerateCombination, match="norm nan"):
        rank_inequality_check(phi, phi, 1.0, 1.0)
