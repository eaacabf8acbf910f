"""Property tests: exact ties and near-ties in the Schmidt coefficients.

Degenerate coefficients leave the slice products with repeated
eigenvalues, which only a combination of the slices tells apart; these
families pin that every such decomposable state is accepted with the
rank it was built with.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtkit import (
    SchmidtDecomposition,
    StateTensor,
    apply_local_unitaries,
    check_decomposable,
    ghz,
    random_decomposition,
    reconstruct,
    tolerances,
)
from schmidtkit.linalg import haar_unitary

SEEDS = st.integers(0, 2**32 - 1)


def with_coefficients(dims, coeffs, seed):
    """A decomposable state with the given coefficients, Haar families."""
    rng = np.random.default_rng(seed)
    coeffs = np.asarray(coeffs, dtype=float)
    coeffs = coeffs / np.linalg.norm(coeffs)
    families = tuple(haar_unitary(d, rng)[:coeffs.size] for d in dims)
    return reconstruct(SchmidtDecomposition(dims, coeffs, families))


def assert_accepts(state, rank):
    rep = check_decomposable(state)
    assert rep.decomposable, rep.stage
    assert rep.decomposition.rank == rank


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_rotated_ghz_accepts(n, seed):
    rng = np.random.default_rng(seed)
    rotated = apply_local_unitaries(
        ghz(n), [haar_unitary(2, rng) for _ in range(n)])
    assert_accepts(rotated, 2)


@pytest.mark.parametrize("dims,rank", [
    ((3, 3, 3), 2), ((3, 3, 3), 3),
    ((4, 4, 4), 2), ((4, 4, 4), 3), ((4, 4, 4), 4),
    ((2, 2, 2, 2), 2),
])
@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_equal_coefficients_accept(dims, rank, seed):
    assert_accepts(with_coefficients(dims, np.ones(rank), seed), rank)


@pytest.mark.parametrize("gap", [1e-5, 1e-7])
@pytest.mark.parametrize("dims,rank", [
    ((3, 3, 3), 2), ((3, 3, 3), 3), ((4, 4, 4), 4), ((2, 2, 2, 2), 2),
])
@settings(max_examples=20, deadline=None)
@given(SEEDS)
def test_coefficient_gaps_accept(gap, dims, rank, seed):
    # neighbouring coefficients differ by gap before normalization
    coeffs = 1.0 + gap * np.arange(rank)[::-1]
    assert_accepts(with_coefficients(dims, coeffs, seed), rank)


def tiny_coefficient_state(seed):
    """Rank 3 on (3,3,3) with coefficients (a, b, 1e-9), a > b in [0.2, 1).

    Summed term by term and normalised afterwards, so the 1e-9 term is
    not rescaled into a clean unit-norm decomposition first.
    """
    rng = np.random.default_rng(seed)
    top = np.sort(rng.uniform(0.2, 1.0, 2))[::-1]
    coeffs = np.array([top[0], top[1], 1e-9])
    families = random_decomposition((3, 3, 3), 3, int(rng.integers(2**31))).vectors
    amps = sum(c * np.multiply.outer(np.multiply.outer(
        families[0][l], families[1][l]), families[2][l]).reshape(-1)
        for l, c in enumerate(coeffs))
    return StateTensor((3, 3, 3), amps / np.linalg.norm(amps))


@pytest.mark.parametrize("seed", range(40))
def test_tiny_coefficient_accepts(seed):
    # the third family is read off a row of S scaled up by 1e9, so it is
    # only orthonormal to about 1e-7; the rebuild gate must still accept
    state = tiny_coefficient_state(seed)
    rep = check_decomposable(state)
    assert rep.decomposable, (rep.stage, rep.witness)
    rebuilt = reconstruct(rep.decomposition)
    assert np.abs(rebuilt.amplitudes - state.amplitudes).max() \
        <= tolerances.RECONSTRUCT_TOL


def ghz_plus_stray(dims, eps):
    """GHZ on dims plus eps |2,2,0,...,0>, a term beyond the tail rank."""
    amps = np.zeros(dims, dtype=complex)
    amps[(0,) * len(dims)] = amps[(1,) * len(dims)] = 1 / np.sqrt(2)
    amps[(2, 2) + (0,) * (len(dims) - 2)] = eps
    flat = amps.reshape(-1)
    return StateTensor(dims, flat / np.linalg.norm(flat))


@pytest.mark.parametrize("dims", [(3, 3, 2), (3, 3, 2, 2)])
@pytest.mark.parametrize("eps", [2e-9, 5e-9, 6.5e-9])
def test_stray_row_beyond_tail_dim_accepts(dims, eps):
    # S keeps three rows above RANK_TOL but a tail subsystem has only two
    # dimensions; the candidate is capped at min(dims) terms and the
    # rebuild gate accepts it, where an uncapped candidate cannot even
    # be built
    state = ghz_plus_stray(dims, eps)
    rep = check_decomposable(state)
    assert rep.decomposable, (rep.stage, rep.witness)
    assert rep.decomposition.coefficients.size == 2
    rebuilt = reconstruct(rep.decomposition)
    assert np.abs(rebuilt.amplitudes - state.amplitudes).max() \
        <= tolerances.RECONSTRUCT_TOL


def two_terms(dims, second, seed):
    """Coefficients (1, second) normalised on random_decomposition's families."""
    coeffs = np.array([1.0, second]) / np.hypot(1.0, second)
    families = random_decomposition(dims, 2, seed).vectors
    return reconstruct(SchmidtDecomposition(dims, coeffs, families))


@pytest.mark.parametrize("dims,seed", [
    ((2,) * 4, 0), ((2,) * 4, 1), *[((2,) * 6, s) for s in range(4)],
    ((3, 3, 3, 3), 2), ((3, 3, 3, 3), 3),
], ids=str)
def test_tiny_second_coefficient_tails_accept(dims, seed):
    # the second tail vector is read off a row of S of norm 2e-9, so its
    # split at a tail cut leaves a second singular ratio of about 1e-8,
    # ten times DIAG_TOL; the rebuild, not that ratio, decides
    state = two_terms(dims, 2e-9, seed)
    rep = check_decomposable(state)
    assert rep.decomposable, (rep.stage, rep.witness)
    assert rep.decomposition.rank == 2
    assert rep.residuals["reconstruction"] <= 1e-12


def test_near_tie_pair_of_small_coefficients_accepts():
    # the combination's two small singular values, of order 5e-8 and 3e-8
    # against a largest of order 1, nearly tie; the SVD mixes their vectors
    # by only about machine epsilon / 2e-8, within terms of order 1e-8
    coeffs = np.array([1.0, 5e-8, 3e-8])
    families = random_decomposition((3, 3, 3), 3, 0).vectors
    state = reconstruct(SchmidtDecomposition(
        (3, 3, 3), coeffs / np.linalg.norm(coeffs), families))
    rep = check_decomposable(state)
    assert rep.decomposable and rep.decomposition.rank == 3


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("small", [(5e-8, 3e-8), (1.0000001e-6, 1e-6)], ids=str)
@pytest.mark.parametrize("dims,rank", [
    ((3, 3, 3), 3), ((4, 4, 4), 3), ((4, 4, 4), 4), ((3, 3, 3, 3), 3),
])
def test_near_tie_small_pairs_accept(dims, rank, small, seed):
    # two small coefficients within 1e-6 of each other, below leading ones
    # of order 1: every draw's combination nearly ties their singular values
    coeffs = (*np.linspace(1.0, 0.5, rank - 2), *small)
    state = with_coefficients(dims, coeffs, seed)
    rep = check_decomposable(state)
    assert rep.decomposable, (rep.stage, rep.witness)
    assert rep.decomposition.rank == rank
    rebuilt = reconstruct(rep.decomposition)
    assert np.abs(rebuilt.amplitudes - state.amplitudes).max() \
        <= tolerances.RECONSTRUCT_TOL
