"""Property tests: exact ties and near-ties in the Schmidt coefficients.

Degenerate coefficients leave the slice products with repeated
eigenvalues, so the pair search has to split mixed subspaces; these
families pin that every such decomposable state is accepted with the
rank it was built with.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidtkit import (
    SchmidtDecomposition,
    apply_local_unitaries,
    check_decomposable,
    ghz,
    reconstruct,
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
