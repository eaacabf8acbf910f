"""Joint decomposability engine: slicing, diagonalization, verdicts."""

import os
import subprocess
import sys

import numpy as np
import pytest

import schmidtkit.multipartite as multipartite
from schmidtkit import tolerances
from schmidtkit import (
    Bipartition,
    CoefficientsMismatch,
    DensityMatrix,
    DifferentStates,
    DimensionMismatch,
    NoPairFound,
    NotDecomposable,
    RankTooLarge,
    SlicesNotDiagonal,
    StateTensor,
    TooFewSubsystems,
    apply_local_unitaries,
    basis_state,
    bell,
    build_s_matrix,
    check_decomposable,
    equal_spectra_check,
    find_diagonalizing_pair,
    ghz,
    haar_random_state,
    local_unitary_link,
    partial_trace,
    positive_products_commute,
    pure_density,
    random_decomposable_state,
    reconstruct,
    scaled_unitary_check,
    slice_tensor,
    w_state,
)
from schmidtkit.linalg import haar_unitary
from schmidtkit.multipartite import (
    DiagonalizationPair,
    SliceSet,
    random_decomposition,
)

from commute_oracle import commutator_pairwise

RT2 = 1.0 / np.sqrt(2.0)
RT3 = 1.0 / np.sqrt(3.0)

# 0.55|000> + 0.45(|011>+|101>+|110>) + 0.3|111>: every cut has reduced
# spectrum {0.635..., 0.364...} yet the slice products do not commute,
# so the verdict must fall at the joint-diagonalization stage
EQSPEC_AMPS = np.array([0.55, 0.0, 0.0, 0.45, 0.0, 0.45, 0.45, 0.3])


def eqspec_state():
    return StateTensor((2, 2, 2), EQSPEC_AMPS)


def test_w_slices_pinned_exactly():
    s = slice_tensor(w_state())
    assert s.matrices.shape == (2, 2, 2)
    a0, a1 = s.matrices
    assert np.array_equal(a0, RT3 * np.array([[0, 1], [1, 0]]))
    assert np.array_equal(a1, RT3 * np.array([[1, 0], [0, 0]]))


def test_ghz_slices_pinned():
    s = slice_tensor(ghz(3))
    assert s.matrices.shape == (2, 2, 2)
    a0, a1 = s.matrices
    assert np.array_equal(a0, RT2 * np.diag([1.0, 0.0]))
    assert np.array_equal(a1, RT2 * np.diag([0.0, 1.0]))


def test_slice_grouping_for_four_parts():
    s = slice_tensor(ghz(4))
    assert len(s.matrices) == 4
    assert s.matrices.shape == (4, 2, 2)
    assert s.tail_dims == (2, 2)
    assert np.array_equal(s.matrices[0], RT2 * np.diag([1.0, 0.0]))
    assert np.array_equal(s.matrices[3], RT2 * np.diag([0.0, 1.0]))
    assert np.allclose(s.matrices[1], 0) and np.allclose(s.matrices[2], 0)


def test_slice_axis_selection():
    st = haar_random_state((2, 3, 4), seed=0)
    t = st.tensor()
    default = slice_tensor(st)
    assert default.matrices.shape == (4, 2, 3)
    assert np.array_equal(default.matrices[1], t[:, :, 1])
    with pytest.raises(TooFewSubsystems):
        slice_tensor(bell())


def test_sliceset_requires_unit_weight():
    with pytest.raises(Exception):
        SliceSet((np.eye(2),), (2, 2, 1), (1,))


def test_positive_products_commute_cases():
    ok, resid = positive_products_commute(slice_tensor(w_state()))
    assert ok and resid < 1e-14
    ok, resid = positive_products_commute(slice_tensor(eqspec_state()))
    assert not ok and resid > 1e-3


def test_find_pair_ghz_fast_path():
    pair = find_diagonalizing_pair(slice_tensor(ghz(3)))
    assert np.array_equal(pair.p, np.eye(2))
    assert np.array_equal(pair.q, np.eye(2))


def test_find_pair_on_random_decomposable():
    st = random_decomposable_state((3, 3, 3), 3, seed=4)
    slices = slice_tensor(st)
    pair = find_diagonalizing_pair(slices, seed=0)
    for m in slices.matrices:
        rotated = pair.p.conj().T @ m @ pair.q.conj().T
        off = np.abs(rotated - np.diag(np.diag(rotated))).max()
        assert off < 1e-8


def test_find_pair_rejects_w():
    with pytest.raises(NoPairFound) as err:
        find_diagonalizing_pair(slice_tensor(w_state()))
    assert err.value.residual > 1e-3


def test_build_s_matrix_enforces_diagonality():
    slices = slice_tensor(ghz(3))
    h = np.array([[1, 1], [1, -1]]) * RT2
    with pytest.raises(SlicesNotDiagonal):
        build_s_matrix(slices, DiagonalizationPair(h, np.eye(2)))
    s = build_s_matrix(slices, DiagonalizationPair(np.eye(2), np.eye(2)))
    assert np.allclose(s, RT2 * np.eye(2))


def test_scaled_unitary_check_cases():
    ok, lams = scaled_unitary_check(np.diag([0.8, 0.6]))
    assert ok and np.allclose(lams, [0.8, 0.6])
    # the W diagnostic matrix: rows not orthogonal
    s_w = RT3 * np.array([[1.0, 0.0], [1.0, 1.0]])
    ok, _ = scaled_unitary_check(s_w)
    assert not ok
    # zero rows are dropped, not counted into the rank
    ok, lams = scaled_unitary_check(np.array([[0.9, 0.0], [0.0, 0.0]]))
    assert ok and len(lams) == 1


def test_equal_spectra_w_pinned():
    ok, table = equal_spectra_check(w_state())
    assert ok
    for sub in [(1,), (2,), (3,)]:
        assert np.allclose(table[sub], [2 / 3, 1 / 3], atol=1e-10)


def test_equal_spectra_counterexamples():
    ok, _ = equal_spectra_check(ghz(3))
    assert ok
    # |0> x Bell: subsystem 1 is pure while 2 and 3 are mixed
    amps = np.zeros(8)
    amps[0] = amps[3] = RT2
    ok, table = equal_spectra_check(StateTensor((2, 2, 2), amps))
    assert not ok
    assert np.allclose(table[(1,)][:1], [1.0])


def test_check_w_report_full():
    rep = check_decomposable(w_state())
    assert not rep.decomposable
    assert rep.verdict == "NotDecomposable"
    assert rep.stage == "SNotScaledUnitary"
    gram = np.asarray(rep.witness["ss_dagger"])
    assert np.max(np.abs(gram - np.array([[1, 1], [1, 2]]) / 3)) < 1e-12
    # best off-diagonal residual of the seeded pair search
    assert abs(rep.residuals["max_off_diagonal"] - 0.2828028788442887) < 1e-9
    assert rep.decomposition is None
    assert rep.tolerances_used["seed"] == 0


def test_check_accepts_ghz_family():
    for n in (3, 4, 5):
        rep = check_decomposable(ghz(n))
        assert rep.decomposable and rep.stage is None
        assert np.allclose(rep.decomposition.coefficients, [RT2, RT2])
        assert rep.residuals["reconstruction"] < 1e-12
    # four parts take the regrouped-tail path, which adds its own residuals
    rep = check_decomposable(ghz(4))
    assert set(rep.residuals) == {
        "max_commutator", "max_ss_off_diagonal", "reconstruction",
        "tail_orthonormality", "tail_product_ratio"}
    assert all(abs(v) < 1e-9 for v in rep.residuals.values())
    # three parts have no tail cut, so no product ratio is recorded
    for st in (ghz(3), random_decomposable_state((3, 3, 3), 3, seed=2)):
        rep = check_decomposable(st)
        assert rep.decomposable
        assert set(rep.residuals) == {
            "max_commutator", "max_ss_off_diagonal", "reconstruction",
            "tail_orthonormality"}


def test_check_eqspec_state_fails_at_diagonalization():
    rep = check_decomposable(eqspec_state())
    assert not rep.decomposable
    assert rep.stage == "SlicesNotSimultaneouslyDiagonalizable"
    assert rep.residuals["max_commutator"] > 1e-3


def test_check_spectra_stage():
    amps = np.zeros(8)
    amps[0] = amps[3] = RT2
    rep = check_decomposable(StateTensor((2, 2, 2), amps))
    assert rep.stage == "SpectraUnequal"
    assert "spectra" in rep.witness


def test_check_rejects_bipartite_input():
    with pytest.raises(TooFewSubsystems):
        check_decomposable(bell())


def test_check_random_decomposable_round_trip():
    for seed in range(10):
        for dims, rank in (((2, 2, 2), 2), ((2, 3, 4), 2), ((3, 3, 3), 3),
                           ((2, 2, 2, 2), 2)):
            st = random_decomposable_state(dims, rank, seed)
            rep = check_decomposable(st)
            assert rep.decomposable, (dims, rank, seed, rep.stage)
            assert rep.decomposition.rank == rank
            assert rep.residuals["reconstruction"] < 1e-8
            want = np.sort(random_decomposition(dims, rank, seed).coefficients)
            got = np.sort(rep.decomposition.coefficients)
            assert np.allclose(got, want, atol=1e-8)


def test_check_rejects_generic_states():
    for seed in range(10):
        rep = check_decomposable(haar_random_state((2, 2, 2), seed=seed))
        assert not rep.decomposable


def test_product_states_rank_one():
    rep = check_decomposable(basis_state((2, 3, 2), (1, 2, 0)))
    assert rep.decomposable
    assert rep.decomposition.rank == 1


def test_verdict_invariant_under_local_unitaries():
    rng = np.random.default_rng(21)
    for seed in range(6):
        st = [w_state(), ghz(3), random_decomposable_state((2, 2, 2), 2, seed)][seed % 3]
        us = [haar_unitary(d, rng) for d in st.dims]
        rotated = apply_local_unitaries(st, us)
        assert check_decomposable(rotated).decomposable == \
            check_decomposable(st).decomposable


def test_random_decomposition_distribution():
    dec = random_decomposition((2, 3, 4), 2, seed=1)
    assert dec.rank == 2
    assert np.all(np.diff(dec.coefficients) <= 0)
    again = random_decomposition((2, 3, 4), 2, seed=1)
    assert np.array_equal(dec.coefficients, again.coefficients)
    other = random_decomposition((2, 3, 4), 2, seed=2)
    assert not np.allclose(dec.coefficients, other.coefficients)
    with pytest.raises(RankTooLarge):
        random_decomposition((2, 3, 4), 3, seed=0)


def test_apply_local_unitaries_matches_kron():
    st = haar_random_state((2, 3, 2), seed=2)
    rng = np.random.default_rng(3)
    us = [haar_unitary(d, rng) for d in st.dims]
    got = apply_local_unitaries(st, us).amplitudes
    want = np.kron(np.kron(us[0], us[1]), us[2]) @ st.amplitudes
    assert np.max(np.abs(got - want)) < 1e-12


def test_local_unitary_link_round_trip():
    cases = [([(2, 2, 2), (2, 3, 4), (3, 3, 3)][seed % 3], 2, seed)
             for seed in range(8)]
    cases += [(dims, rank, 8) for dims in ((4, 4, 4), (3, 3, 2, 2))
              for rank in (1, min(dims))]
    for dims, rank, seed in cases:
        phi = random_decomposable_state(dims, rank, seed)
        rng = np.random.default_rng((seed, 5))
        vs = [haar_unitary(d, rng) for d in dims]
        psi = apply_local_unitaries(phi, vs)
        us = local_unitary_link(psi, phi)
        moved = apply_local_unitaries(phi, us)
        overlap = np.vdot(moved.amplitudes, psi.amplitudes)
        resid = np.linalg.norm(
            psi.amplitudes - overlap / abs(overlap) * moved.amplitudes)
        assert resid < 1e-8
        for u, d in zip(us, dims):
            assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12


def test_local_unitary_link_ghz_identity():
    us = local_unitary_link(ghz(3), ghz(3))
    st = apply_local_unitaries(ghz(3), us)
    overlap = np.vdot(st.amplitudes, ghz(3).amplitudes)
    assert abs(abs(overlap) - 1.0) < 1e-10


def test_local_unitary_link_refusals():
    phi = ghz(3)
    psi = random_decomposable_state((2, 2, 2), 2, seed=11)
    with pytest.raises(CoefficientsMismatch):
        local_unitary_link(psi, phi)
    with pytest.raises(NotDecomposable):
        local_unitary_link(w_state(), phi)
    with pytest.raises(DimensionMismatch):
        local_unitary_link(ghz(4), phi)


LINK_ZERO_TOL = """
from schmidtkit import DifferentStates, local_unitary_link, random_decomposable_state
st = random_decomposable_state((3, 3, 3), 3, seed=4)
try:
    local_unitary_link(st, st, tol=0.0)
except DifferentStates:
    print("raised")
"""


def test_local_unitary_link_verification_is_typed():
    # the rebuilt link leaves a residual of order 1e-16, above tol=0
    st = random_decomposable_state((3, 3, 3), 3, seed=4)
    with pytest.raises(DifferentStates):
        local_unitary_link(st, st, tol=0.0)
    # and the check survives python -O, which strips asserts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-O", "-c", LINK_ZERO_TOL],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised"


def test_equal_spectra_fixture_is_exactly_balanced():
    # determinants of all three 1-containing reduced matrices coincide,
    # so the spectra agree to machine precision, not just within 1e-8
    ok, table = equal_spectra_check(eqspec_state())
    assert ok
    ref = table[(1,)]
    for sub in [(1, 2), (1, 3)]:
        nz = table[sub][np.abs(table[sub]) > 1e-12]
        assert np.max(np.abs(np.sort(nz) - np.sort(ref))) < 1e-12


def test_reconstruct_decomposition_of_w_cut():
    # joint reconstruction of an accepted candidate hits the state exactly
    st = random_decomposable_state((2, 2, 2, 2), 2, seed=9)
    rep = check_decomposable(st)
    rebuilt = reconstruct(rep.decomposition)
    assert np.max(np.abs(rebuilt.amplitudes - st.amplitudes)) < 1e-9


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2),
                                  (3, 2, 4, 2), (2,) * 5], ids=str)
def test_equal_spectra_table_matches_partial_trace_oracle(dims):
    # complements are filled from their partner's SVD, so check them too
    n = len(dims)
    subsets = [tuple(i + 1 for i in range(n) if mask >> i & 1)
               for mask in range(1, 2 ** n - 1)]
    for state in (haar_random_state(dims, seed=5),
                  random_decomposable_state(dims, min(dims), seed=5)):
        _, table = equal_spectra_check(state)
        assert sorted(table) == sorted(subsets)
        for keep in subsets:
            rho = partial_trace(pure_density(state), keep)
            want = np.linalg.eigvalsh(rho.entries)[::-1]
            assert table[keep].shape == want.shape
            assert np.max(np.abs(table[keep] - want)) < 1e-12, keep


COMMUTE_CASES = {
    "W": w_state,
    "eqspec": eqspec_state,
    # 16 slices of the grouped tail
    "decomposable-2x6": lambda: random_decomposable_state((2,) * 6, 2, seed=3),
    "haar-333": lambda: haar_random_state((3, 3, 3), seed=3),
}


@pytest.mark.parametrize("name", sorted(COMMUTE_CASES))
def test_commutator_matches_pairwise_oracle(name):
    slices = slice_tensor(COMMUTE_CASES[name]())
    want = commutator_pairwise(slices.matrices)
    ok, got = positive_products_commute(slices)
    assert abs(got - want) < 1e-12
    assert ok == (want <= tolerances.DIAG_TOL)


def test_equal_spectra_work_is_linear_in_cuts(monkeypatch):
    # one SVD per subset containing subsystem 1: 2^5 - 1 on six qubits,
    # and no reduced density matrix anywhere
    calls = []
    densities = []
    real_spectra = multipartite.spectra

    def counting(state, keep):
        calls.append(tuple(keep))
        return real_spectra(state, keep)

    def no_density(self):
        densities.append(self.dims)

    state = random_decomposable_state((2,) * 6, 2, seed=1)
    monkeypatch.setattr(multipartite, "spectra", counting)
    monkeypatch.setattr(DensityMatrix, "__post_init__", no_density)
    ok, table = equal_spectra_check(state)
    assert ok
    assert len(calls) == 31 and all(keep[0] == 1 for keep in calls)
    assert len(table) == 62
    assert densities == []
