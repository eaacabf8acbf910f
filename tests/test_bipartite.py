"""Bipartite decomposition via singular values."""

import numpy as np
import pytest

from schmidtkit import (
    Bipartition,
    InvalidPartition,
    basis_state,
    bell,
    flatten,
    ghz,
    haar_random_state,
    new_state,
    partial_trace,
    pure_density,
    random_decomposable_state,
    random_decomposition,
    reconstruct,
    schmidt_decompose_bipartite,
    schmidt_number,
    spectra,
    w_state,
)
from spectra_oracle import svd_spectrum

RT2 = 1.0 / np.sqrt(2.0)
CUT12 = Bipartition((1,), (2,))


def test_bell_coefficients():
    d = schmidt_decompose_bipartite(bell(), CUT12)
    assert np.allclose(d.coefficients, [RT2, RT2])
    assert d.rank == 2


def test_product_state_rank_one():
    s = basis_state((3, 4), (2, 1))
    d = schmidt_decompose_bipartite(s, Bipartition((1,), (2,)))
    assert d.rank == 1
    assert d.coefficients[0] == pytest.approx(1.0)
    assert np.allclose(d.decomposition.vectors[0][0], [0, 0, 1])
    assert np.allclose(d.decomposition.vectors[1][0], [0, 1, 0, 0])


def test_w_across_first_cut():
    d = schmidt_decompose_bipartite(w_state(), Bipartition((1,), (2, 3)))
    assert np.allclose(np.sort(d.coefficients ** 2)[::-1], [2 / 3, 1 / 3])


def test_reconstruction_matches_flattening():
    for seed in range(5):
        s = haar_random_state((3, 2, 2), seed=seed)
        cut = Bipartition((1, 3), (2,))
        d = schmidt_decompose_bipartite(s, cut)
        m = flatten(s, cut)
        rebuilt = sum(
            c * np.outer(u, v)
            for c, u, v in zip(d.coefficients,
                               d.decomposition.vectors[0],
                               d.decomposition.vectors[1]))
        assert np.max(np.abs(rebuilt - m)) < 1e-12


def test_grouped_dims_and_reconstruct():
    s = haar_random_state((2, 3, 2), seed=3)
    cut = Bipartition((2,), (1, 3))
    d = schmidt_decompose_bipartite(s, cut)
    assert d.decomposition.dims == (3, 4)
    grouped = reconstruct(d.decomposition)
    assert np.max(np.abs(grouped.amplitudes - flatten(s, cut).reshape(-1))) < 1e-12


def test_phase_convention_deterministic():
    s = haar_random_state((4, 4), seed=11)
    a = schmidt_decompose_bipartite(s, CUT12)
    b = schmidt_decompose_bipartite(s, CUT12)
    for fa, fb in zip(a.decomposition.vectors, b.decomposition.vectors):
        assert np.array_equal(fa, fb)
    # first nonzero component of each left vector is real positive
    for vec in a.decomposition.vectors[0]:
        lead = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_schmidt_number_equals_matrix_rank():
    for seed in range(8):
        s = haar_random_state((3, 5), seed=seed)
        k = schmidt_number(s, CUT12)
        oracle = np.linalg.matrix_rank(flatten(s, CUT12), tol=1e-9)
        assert k == oracle == 3


def test_schmidt_number_of_sparse_states():
    assert schmidt_number(bell(), CUT12) == 2
    assert schmidt_number(basis_state((2, 2), (0, 0)), CUT12) == 1
    assert schmidt_number(ghz(4), Bipartition((1, 2), (3, 4))) == 2


def test_spectra_match_squared_coefficients():
    for seed in range(5):
        s = haar_random_state((2, 3, 4), seed=seed)
        cut = Bipartition((1, 2), (3,))
        d = schmidt_decompose_bipartite(s, cut)
        vals = spectra(s, (1, 2))
        k = d.rank
        assert np.allclose(vals[:k], d.coefficients ** 2, atol=1e-9)
        assert np.all(vals[k:] < 1e-9)


def test_spectra_descending_and_clipped():
    vals = spectra(ghz(3), (2,))
    assert np.allclose(vals, [0.5, 0.5])
    assert np.all(np.diff(vals) <= 0)
    assert np.all(vals >= 0)


ORACLE_DIMS = [(2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2), (3, 2, 4, 2),
               (2,) * 5]


def trace_spectrum(state, keep):
    """Independent route: eigenvalues of the partial trace of |psi><psi|."""
    rho = partial_trace(pure_density(state), keep)
    return np.linalg.eigvalsh(rho.entries)[::-1]


def oracle_states(dims):
    yield haar_random_state(dims, seed=3)
    yield random_decomposable_state(dims, min(dims), seed=3)
    yield random_decomposable_state(dims, 1, seed=3)


@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
def test_spectra_match_partial_trace_oracle(dims):
    n = len(dims)
    for state in oracle_states(dims):
        for mask in range(1, 2 ** n - 1):
            keep = tuple(i + 1 for i in range(n) if mask >> i & 1)
            got = spectra(state, keep)
            want = trace_spectrum(state, keep)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12, keep


def test_spectra_keep_set_handling():
    s = haar_random_state((2, 3, 4), seed=1)
    # kept indices are sorted and deduplicated
    assert np.array_equal(spectra(s, (3, 1, 3)), spectra(s, (1, 3)))
    # a kept side larger than the rest is padded with exact zeros
    vals = spectra(s, (2, 3))
    assert vals.shape == (12,)
    assert np.all(vals[2:] == 0.0)
    # keeping everything gives the pure spectrum
    whole = spectra(s, (1, 2, 3))
    assert whole.shape == (24,)
    assert whole[0] == 1.0 and np.all(whole[1:] == 0.0)
    for bad in [(), (0,), (4,), (1, 4)]:
        with pytest.raises(InvalidPartition):
            spectra(s, bad)


def tiny_coefficient_state():
    """Rank 3 on (3,3,3) with coefficients (0.8, 0.6, 1e-9), summed term by term."""
    families = random_decomposition((3, 3, 3), 3, seed=5).vectors
    amps = sum(c * np.einsum("i,j,k->ijk", *(fam[l] for fam in families))
               for l, c in enumerate((0.8, 0.6, 1e-9)))
    return new_state((3, 3, 3), amps)


GRAM_CASES = {
    # kept side smaller, larger and equal across the cuts of each shape
    "haar-234": lambda: haar_random_state((2, 3, 4), seed=2),
    "haar-422": lambda: haar_random_state((4, 2, 2), seed=2),
    "haar-2222": lambda: haar_random_state((2, 2, 2, 2), seed=2),
    # a dimension of 1 anywhere
    "haar-132": lambda: haar_random_state((1, 3, 2), seed=2),
    "haar-2131": lambda: haar_random_state((2, 1, 3, 1), seed=2),
    # rank-deficient, and one coefficient of 1e-9
    "rank1-333": lambda: random_decomposable_state((3, 3, 3), 1, seed=2),
    "rank2-3232": lambda: random_decomposable_state((3, 2, 3, 2), 2, seed=2),
    "tiny-333": tiny_coefficient_state,
    "w": w_state,
    # read in slabs: the Gram on the rest's side for a kept side led by
    # subsystem 1, and on the kept side, sliced along subsystem 2, for (1, 3)
    "haar-323232": lambda: haar_random_state((32, 32, 32), seed=2),
    "rank32-323232": lambda: random_decomposable_state((32, 32, 32), 32, seed=2),
    "haar-816816": lambda: haar_random_state((8, 16, 8, 16), seed=2),
}


@pytest.mark.parametrize("name", sorted(GRAM_CASES))
def test_spectra_match_svd_oracle(name):
    # every keep set, the full one included, within 1e-14 of the squared
    # singular values of the whole flattening
    state = GRAM_CASES[name]()
    n = state.subsystem_count
    for mask in range(1, 2 ** n):
        keep = tuple(i + 1 for i in range(n) if mask >> i & 1)
        got = spectra(state, keep)
        want = svd_spectrum(state.amplitudes, state.dims, keep)
        assert got.shape == want.shape == (np.prod([state.dims[i - 1] for i in keep]),)
        assert np.max(np.abs(got - want)) <= 1e-14, keep
        assert np.all(got >= 0.0) and np.all(np.diff(got) <= 0.0), keep


def test_spectra_eigensolve_is_on_the_smaller_side(monkeypatch):
    # one eigvalsh per cut, of a Gram matrix whose size is the smaller
    # side of the flattening: 2 x 2 on either single-site cut of ten qubits
    shapes = []
    real = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    state = haar_random_state((2,) * 10, seed=1)
    assert spectra(state, (1,)).shape == (2,)
    assert spectra(state, range(1, 10)).shape == (512,)
    assert shapes == [(2, 2), (2, 2)]
    shapes.clear()
    spectra(haar_random_state((2, 3, 4), seed=1), (1, 2))
    assert shapes == [(4, 4)]
