"""Purification construction, linking, class invariance."""

import dataclasses

import numpy as np
import pytest

from schmidtkit import (
    DensityMatrix,
    DifferentStates,
    DimensionMismatch,
    Purification,
    ReferenceTooSmall,
    StateTensor,
    TooFewSubsystems,
    check_decomposable,
    ghz,
    haar_random_state,
    linking_unitary,
    pure_density,
    purification_class,
    purify,
    random_decomposable_state,
    reduced_density,
    trace_out_reference,
    w_state,
)
from schmidtkit.linalg import haar_unitary

RT2 = 1.0 / np.sqrt(2.0)


def random_density(dim, rank, rng):
    m = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    ent = m @ m.conj().T
    ent /= np.trace(ent).real
    return DensityMatrix((dim,), ent)


def rotate_reference(base, v):
    d = base.reference_dim
    amps = (base.state.amplitudes.reshape(-1, d) @ v.T).reshape(-1)
    return Purification(StateTensor(base.state.dims, amps))


def test_purify_diagonal_pinned():
    p = purify(DensityMatrix((2,), np.diag([0.64, 0.36])))
    assert p.state.dims == (2, 2)
    assert np.allclose(p.state.amplitudes, [0.8, 0, 0, 0.6])
    assert (p.base_dims, p.reference_dim) == ((2,), 2)


def test_purify_maximally_mixed():
    p = purify(DensityMatrix((2,), np.eye(2) / 2))
    vals = np.abs(p.state.amplitudes)
    assert sorted(np.round(vals, 12)) == [0.0, 0.0,
                                          pytest.approx(RT2),
                                          pytest.approx(RT2)]
    back = trace_out_reference(p)
    assert np.max(np.abs(back.entries - np.eye(2) / 2)) < 1e-12


def test_purify_pure_input_rank_one():
    plus = np.ones(2) * RT2
    p = purify(DensityMatrix((2,), np.outer(plus, plus)))
    assert p.state.dims == (2, 1)
    assert np.allclose(p.state.amplitudes, plus)


def test_purify_reference_dim_options():
    rho = DensityMatrix((2,), np.diag([0.64, 0.36]))
    wide = purify(rho, reference_dim=4)
    assert wide.state.dims == (2, 4)
    assert np.max(np.abs(trace_out_reference(wide).entries - rho.entries)) < 1e-12
    with pytest.raises(ReferenceTooSmall):
        purify(rho, reference_dim=1)


def test_purify_composite_base_dims():
    rho = reduced_density(ghz(3), (1, 2))
    p = purify(rho)
    assert p.state.dims == (2, 2, 2)
    assert (p.base_dims, p.reference_dim) == ((2, 2), 2)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (4,)])
def test_trace_out_reference_returns_rho_on_its_dims(dims):
    rng = np.random.default_rng(18)
    dim = int(np.prod(dims))
    rho = DensityMatrix(dims, random_density(dim, 2, rng).entries)
    for reference_dim in (None, 3):
        back = trace_out_reference(purify(rho, reference_dim))
        assert back.dims == dims
        assert np.max(np.abs(back.entries - rho.entries)) < 1e-12


def test_purification_is_its_state():
    assert [f.name for f in dataclasses.fields(Purification)] == ["state"]
    with pytest.raises(TooFewSubsystems, match=r"got dims \(2,\)"):
        Purification(StateTensor((2,), [1.0, 0.0]))


def test_trace_back_random_densities():
    rng = np.random.default_rng(14)
    for _ in range(20):
        dim = int(rng.integers(2, 17))
        rank = int(rng.integers(1, dim + 1))
        rho = random_density(dim, rank, rng)
        p = purify(rho)
        back = trace_out_reference(p)
        assert np.max(np.abs(back.entries - rho.entries)) < 1e-9


def test_linking_swapped_bell_is_exchange():
    a1 = np.zeros(4)
    a1[0] = a1[3] = RT2
    a2 = np.zeros(4)
    a2[1] = a2[2] = RT2
    u, _ = linking_unitary(Purification(StateTensor((2, 2), a1)),
                           Purification(StateTensor((2, 2), a2)))
    assert np.allclose(u, [[0, 1], [1, 0]])


def test_linking_identity_case():
    p = purify(DensityMatrix((2,), np.diag([0.7, 0.3])))
    u, _ = linking_unitary(p, p)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_linking_random_reference_rotations():
    # wider references leave U free on the unused part of R, and fully
    # degenerate spectra leave the eigenbasis free; where U is unique
    # (reference_dim = rank) it must equal the least-squares pinv(B) A
    rng = np.random.default_rng(15)
    for trial in range(12):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        if trial % 3 == 2:
            v = haar_unitary(dim, rng)[:, :rank]
            rho = DensityMatrix((dim,), v @ v.conj().T / rank)
        else:
            rho = random_density(dim, rank, rng)
        for extra in range(3):
            base = purify(rho, rank + extra)
            d = base.reference_dim
            alt = rotate_reference(base, haar_unitary(d, rng))
            u, _ = linking_unitary(base, alt)
            a = base.state.amplitudes.reshape(-1, d)
            b = alt.state.amplitudes.reshape(-1, d)
            assert np.linalg.norm(b @ u.T - a) < 1e-8
            assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12
            if extra == 0:
                assert np.abs(u.T - np.linalg.pinv(b) @ a).max() < 1e-10


def test_linking_refusals():
    rng = np.random.default_rng(16)
    p1 = purify(random_density(3, 2, rng))
    p2 = purify(random_density(3, 2, rng))
    with pytest.raises(DifferentStates):
        linking_unitary(p1, p2)
    p3 = purify(random_density(4, 2, rng))
    with pytest.raises(DimensionMismatch):
        linking_unitary(p1, p3)


def test_purification_class_pinned_verdicts():
    ghz_rho = reduced_density(ghz(3), (1, 2))
    w_rho = reduced_density(w_state(), (1, 2))
    assert purification_class(ghz_rho).verdict == "Decomposable"
    assert purification_class(w_rho).verdict == "NotDecomposable"
    product = DensityMatrix((2, 2), np.diag([1.0, 0, 0, 0]))
    assert purification_class(product).verdict == "Decomposable"


def test_purification_class_needs_composite_base():
    rho = DensityMatrix((4,), np.eye(4) / 4)
    with pytest.raises(TooFewSubsystems):
        purification_class(rho)
    # same matrix with declared 2x2 structure is fine
    rep = purification_class(DensityMatrix((2, 2), rho.entries))
    assert rep.verdict in ("Decomposable", "NotDecomposable")


def test_purification_class_invariant_across_purifications():
    rng = np.random.default_rng(17)
    for source, want in ((ghz(3), "Decomposable"), (w_state(), "NotDecomposable")):
        rho = reduced_density(source, (1, 2))
        base = purify(rho, 2)
        for _ in range(5):
            alt = rotate_reference(base, haar_unitary(2, rng))
            assert check_decomposable(alt.state).verdict == want


def padded(state, site, levels):
    """The state with levels zero levels added to site (1-based): an isometric embedding."""
    widths = [(0, 0)] * state.subsystem_count
    widths[site - 1] = (0, levels)
    tensor = np.pad(state.tensor(), widths)
    return StateTensor(tensor.shape, tensor.reshape(-1))


EMBEDDING_CASES = {
    "w3": w_state,
    "ghz4": lambda: ghz(4),
    "haar-223": lambda: haar_random_state((2, 2, 3), seed=3),
    **{f"decomposable-333-r{rank}": (lambda r=rank: random_decomposable_state((3, 3, 3), r, r))
       for rank in (1, 2, 3)},
}


@pytest.mark.parametrize("name", list(EMBEDDING_CASES))
def test_verdict_and_stage_hold_across_embeddings_and_reference_dimensions(name):
    # two purifications of one rho with reference dimensions r <= r' differ
    # by an isometry on the reference, zero levels and then a unitary, so
    # decomposability is rho's at every reference dimension; off the
    # tolerance band neither zero levels on a site nor the reference
    # dimension of the (1..n-1) marginal's purification moves the
    # verdict or the stage of the state itself
    state = EMBEDDING_CASES[name]()
    want = check_decomposable(state)
    n = state.subsystem_count
    moved = {f"site-{site}+{levels}": padded(state, site, levels)
             for site in range(1, n + 1) for levels in (1, 3)}
    rho = reduced_density(state, range(1, n))
    rank = purify(rho).reference_dim
    for dim in (rank, rank + 1, int(np.prod(rho.dims))):
        moved[f"reference-{dim}"] = purify(rho, dim).state
    for variant, other in moved.items():
        rep = check_decomposable(other)
        assert (rep.verdict, rep.stage) == (want.verdict, want.stage), variant
    rep = purification_class(rho)
    assert (rep.verdict, rep.stage) == (want.verdict, want.stage)


def test_purification_of_pure_state_traces_back():
    rho = pure_density(ghz(3))
    flat = DensityMatrix((8,), rho.entries)
    p = purify(flat)
    assert p.state.dims == (8, 1)
    assert np.max(np.abs(trace_out_reference(p).entries - rho.entries)) < 1e-12
