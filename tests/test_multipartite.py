"""Joint decomposability engine: slicing, diagonalization, verdicts."""

import itertools
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
    SchmidtDecomposition,
    StateTensor,
    TooFewSubsystems,
    apply_local_unitaries,
    basis_state,
    bell,
    check_decomposable,
    equal_spectra_check,
    ghz,
    haar_random_state,
    local_unitary_link,
    new_state,
    partial_trace,
    pure_density,
    random_decomposable_state,
    reconstruct,
    w_state,
)
from schmidtkit.linalg import haar_unitary
from schmidtkit.multipartite import (
    SliceSet,
    find_diagonalizing_pair,
    positive_products_commute,
    random_decomposition,
    scaled_unitary_check,
    slice_tensor,
)

from commute_oracle import commutator_eigenbasis, commutator_pairwise
from spectra_oracle import all_cuts_with_first, svd_spectrum

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


def test_commute_on_degenerate_sums():
    # commuting families whose sum repeats an eigenvalue: rotated GHZ
    # (sum I/2), equal coefficients (a tie inside the sum), and ranks
    # below the dimension (a repeated zero)
    rng = np.random.default_rng(2)
    states = [
        apply_local_unitaries(ghz(3), [haar_unitary(2, rng) for _ in range(3)]),
        reconstruct(SchmidtDecomposition(
            (4, 4, 4), np.full(4, 0.5), tuple(haar_unitary(4, rng) for _ in range(3)))),
        random_decomposable_state((16, 16, 16), 1, seed=2),
        random_decomposable_state((4, 4, 4), 2, seed=2),
    ]
    for state in states:
        ok, resid = positive_products_commute(slice_tensor(state))
        assert ok and resid < 1e-12


@pytest.mark.parametrize("gap", [3e-10, 1e-9, 3e-9])
@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 2, 2, 2), (8, 8, 8)])
def test_commute_on_near_degenerate_sums(dims, gap):
    # decomposable states whose two largest squared coefficients, the
    # top eigenvalues of sum_c A_c A_c+, differ by 3e-10 to 3e-9: the
    # eigenvectors of that sum are off by about 1e-16 / gap, which must
    # not show in the witness
    for seed in range(6):
        rng = np.random.default_rng(seed)
        rank = min(dims)
        squares = np.sort(rng.uniform(0.1, 1.0, rank))[::-1]
        squares[1] = squares[0] - gap
        families = tuple(haar_unitary(d, rng)[:rank] for d in dims)
        state = reconstruct(SchmidtDecomposition(
            dims, np.sqrt(squares / squares.sum()), families))
        slices = slice_tensor(state)
        ok, resid = positive_products_commute(slices)
        assert ok == (commutator_pairwise(slices.matrices) <= tolerances.DIAG_TOL)
        assert ok and resid < 1e-12, (seed, resid)


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


@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 4), (2, 2, 2, 2)], ids=str)
def test_find_pair_hands_over_checked_diagonals(dims):
    # S is exactly the diagonals of the rotated stack the pair search
    # checked, so its off-diagonals are within diag_tol
    slices = slice_tensor(random_decomposable_state(dims, 2, seed=4))
    pair = find_diagonalizing_pair(slices, seed=0)
    rotated = pair.p.conj().T @ slices.matrices @ pair.q.conj().T
    assert np.array_equal(pair.s, np.diagonal(rotated, axis1=1, axis2=2).T)
    off = rotated.copy()
    off[:, np.arange(min(dims[:2])), np.arange(min(dims[:2]))] = 0.0
    assert np.abs(off).max() <= tolerances.DIAG_TOL
    # the GHZ fast path hands over the slices' own diagonals
    ghz_slices = slice_tensor(ghz(4))
    pair = find_diagonalizing_pair(ghz_slices)
    assert np.array_equal(pair.s, np.diagonal(ghz_slices.matrices, axis1=1, axis2=2).T)


def test_scaled_unitary_check_cases():
    ok, gram, off = scaled_unitary_check(np.diag([0.8, 0.6]))
    assert ok and np.allclose(gram, np.diag([0.64, 0.36])) and off == 0.0
    # the W diagnostic matrix: rows not orthogonal
    s_w = RT3 * np.array([[1.0, 0.0], [1.0, 1.0]])
    ok, gram, off = scaled_unitary_check(s_w)
    assert not ok
    assert np.allclose(gram, np.array([[1, 1], [1, 2]]) / 3) and np.isclose(off, 1 / 3)
    # zero rows are permitted
    ok, gram, _ = scaled_unitary_check(np.array([[0.9, 0.0], [0.0, 0.0]]))
    assert ok and np.allclose(gram, np.diag([0.81, 0.0]))


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
from schmidtkit import tolerances
tolerances.LINK_TOL = 0.0
st = random_decomposable_state((3, 3, 3), 3, seed=4)
try:
    local_unitary_link(st, st)
except DifferentStates:
    print("raised")
"""


def test_local_unitary_link_verification_is_typed(monkeypatch):
    # the rebuilt link leaves a residual of order 1e-16, above LINK_TOL = 0
    monkeypatch.setattr(tolerances, "LINK_TOL", 0.0)
    st = random_decomposable_state((3, 3, 3), 3, seed=4)
    with pytest.raises(DifferentStates):
        local_unitary_link(st, st)
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
    # complements are filled from their partner's spectrum, so check them too
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


def eps_band_state(dims, eps, seed):
    """Rank 2 plus eps times a Haar state, renormalised."""
    amps = (random_decomposable_state(dims, 2, seed=seed).amplitudes
            + eps * haar_random_state(dims, seed=seed + 100).amplitudes)
    return new_state(dims, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (4, 4, 4)], ids=str)
def test_equal_spectra_verdict_matches_svd_oracle_in_eps_band(dims):
    # the same _same_nonzero rule applied to the oracle's spectra must
    # give the same verdict.  For eps up to 3e-8 the cuts' spectra differ
    # only at second order, eps^2, so all pass; at eps = 1e-4 and 3e-4,
    # eps^2 straddles SPECTRA_TOL in both the cut differences and the
    # third eigenvalue, so the verdicts split
    verdicts = []
    for eps in (3e-9, 1e-8, 3e-8, 1e-4, 3e-4):
        for seed in range(8):
            state = eps_band_state(dims, eps, seed)
            ok, table = equal_spectra_check(state)
            oracle = {cut: svd_spectrum(state.amplitudes, dims, cut)
                      for cut in all_cuts_with_first(len(dims))}
            want = all(multipartite._same_nonzero(oracle[(1,)], spec, tolerances.SPECTRA_TOL)
                       for spec in oracle.values())
            assert ok == want, (eps, seed)
            for cut, spec in oracle.items():
                assert np.max(np.abs(table[cut] - spec)) <= 1e-14, (eps, seed, cut)
            verdicts.append(ok)
    # the band holds both verdicts, so the comparison is not vacuous
    assert True in verdicts and False in verdicts


def column_side_state():
    """A_0 = 0.8 |0><u|, A_1 = 0.6 |1><v|: the A A+ commute, the A+ A do not."""
    amps = np.zeros((2, 2, 2))
    amps[0, :, 0] = 0.8 * np.array([1.0, 0.0])
    amps[1, :, 1] = 0.6 * RT2 * np.array([1.0, 1.0])
    return StateTensor((2, 2, 2), amps.reshape(-1))


COMMUTE_CASES = {
    "W": w_state,
    "column-side": column_side_state,
    "eqspec": eqspec_state,
    # 16 slices of the grouped tail
    "decomposable-2x6": lambda: random_decomposable_state((2,) * 6, 2, seed=3),
    "haar-333": lambda: haar_random_state((3, 3, 3), seed=3),
}


@pytest.mark.parametrize("name", sorted(COMMUTE_CASES))
def test_commutator_matches_eigenbasis_oracle(name):
    slices = slice_tensor(COMMUTE_CASES[name]())
    _, got = positive_products_commute(slices)
    assert abs(got - commutator_eigenbasis(slices.matrices)) < 1e-12


@pytest.mark.parametrize("name", sorted(COMMUTE_CASES))
def test_commute_verdict_matches_pairwise_oracle(name):
    slices = slice_tensor(COMMUTE_CASES[name]())
    ok, _ = positive_products_commute(slices)
    assert ok == (commutator_pairwise(slices.matrices) <= tolerances.DIAG_TOL)


def test_equal_spectra_work_is_linear_in_cuts(monkeypatch):
    # one spectrum per subset containing subsystem 1: 2^5 - 1 on six qubits,
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


def test_accept_and_reject_do_no_table_work_twice(monkeypatch):
    # an accept compares the n single-site spectra and never builds the
    # table; a reject builds it from the cuts already taken, so no cut
    # is computed twice, and stops at the first failing cut: Haar on six
    # qubits fails at site 2's cut and then at the first two-site cut
    calls = []
    real_spectra = multipartite.spectra

    def counting(state, keep):
        calls.append(tuple(keep))
        return real_spectra(state, keep)

    def no_table(*args, **kwargs):
        raise AssertionError("equal_spectra_check ran on an accept")

    monkeypatch.setattr(multipartite, "spectra", counting)
    with monkeypatch.context() as patch:
        patch.setattr(multipartite, "equal_spectra_check", no_table)
        rep = check_decomposable(random_decomposable_state((2,) * 6, 2, seed=1))
    assert rep.decomposable
    assert len(calls) == 6
    for dims, cuts in (((3, 3, 3), 3), ((2,) * 6, 3)):
        calls.clear()
        rep = check_decomposable(haar_random_state(dims, seed=4))
        assert rep.stage == "SpectraUnequal"
        assert len(calls) == len(set(calls)) == cuts
    assert calls == [(1,), (1, 3, 4, 5, 6), (1, 2)]


def test_each_off_diagonal_residual_is_taken_once(monkeypatch):
    # an accept takes one residual for the GHZ fast path, one for the
    # pair found, one for S S+ and one per commuting family; S and S S+
    # are handed on, not rebuilt
    calls = []
    real = multipartite._off_diagonal_residual

    def counting(matrices):
        calls.append(matrices.shape)
        return real(matrices)

    monkeypatch.setattr(multipartite, "_off_diagonal_residual", counting)
    for dims in ((2, 2, 2), (2,) * 6):
        calls.clear()
        assert check_decomposable(random_decomposable_state(dims, 2, seed=1)).decomposable
        assert len(calls) == 5, dims
    calls.clear()
    assert check_decomposable(w_state()).stage == "SNotScaledUnitary"
    assert len(calls) <= 12


def test_w_reject_rotates_each_family_once(monkeypatch):
    # W's S is read from {A_c A_c+} in the combination's eigenbasis; the
    # explain pass's commutation test takes that rotation over and only
    # rotates {A_c+ A_c} itself
    calls = []
    real = multipartite._rotate_to_combination

    def counting(family):
        calls.append(family.shape)
        return real(family)

    monkeypatch.setattr(multipartite, "_rotate_to_combination", counting)
    rep = check_decomposable(w_state())
    assert rep.stage == "SNotScaledUnitary"
    assert len(calls) == 2
    third, two_thirds = 0.3333333333333334, 0.6666666666666669
    assert np.asarray(rep.witness["ss_dagger"]).tolist() == \
        [[third, third], [third, two_thirds]]
    assert rep.residuals == {"max_commutator": 0.0,
                             "max_off_diagonal": 0.2828028788442887}


def symmetric_state(dims, seed):
    """A Haar state averaged over all permutations of its subsystems."""
    tensor = haar_random_state(dims, seed).tensor()
    total = sum(np.transpose(tensor, perm)
                for perm in itertools.permutations(range(len(dims))))
    flat = total.reshape(-1)
    return StateTensor(dims, flat / np.linalg.norm(flat))


def ghz_w_mixture(angle):
    amps = np.cos(angle) * ghz(3).amplitudes + np.sin(angle) * w_state().amplitudes
    return StateTensor((2, 2, 2), amps / np.linalg.norm(amps))


SPECTRA_REPORT = ("SpectraUnequal", {"spectra"}, set())
COMMUTE_REPORT = ("SlicesNotSimultaneouslyDiagonalizable",
                  {"max_commutator"}, {"max_commutator"})
REJECT_REPORTS = {
    "W": (w_state, ("SNotScaledUnitary", {"ss_dagger"},
                    {"max_commutator", "max_off_diagonal"})),
    "eqspec": (eqspec_state, COMMUTE_REPORT),
    # |0> x Bell: subsystem 1 is pure while 2 and 3 are mixed
    "spectra-222": (lambda: StateTensor((2, 2, 2), RT2 * np.eye(8)[[0, 3]].sum(0)),
                    SPECTRA_REPORT),
    "haar-234": (lambda: haar_random_state((2, 3, 4), seed=0), SPECTRA_REPORT),
    "haar-2x6": (lambda: haar_random_state((2,) * 6, seed=0), SPECTRA_REPORT),
    # equal single-site spectra, unequal two-site ones: the decision path
    # runs to the pair search, and its residuals must not leak
    "symmetric-2222": (lambda: symmetric_state((2, 2, 2, 2), 900), SPECTRA_REPORT),
    **{f"ghz-w-{angle}": (lambda a=angle: ghz_w_mixture(a), COMMUTE_REPORT)
       for angle in (0.05, 0.5, 1.0, 1.5)},
}


@pytest.mark.parametrize("name", sorted(REJECT_REPORTS))
def test_reject_reports_pinned(name):
    build, (stage, witness, residuals) = REJECT_REPORTS[name]
    rep = check_decomposable(build())
    assert not rep.decomposable and rep.decomposition is None
    assert rep.stage == stage
    assert set(rep.witness) == witness
    assert set(rep.residuals) == residuals


def w_qubits(n):
    """W on n qubits: equal weight on the n single-excitation basis states."""
    amps = np.zeros(2 ** n)
    amps[[2 ** k for k in range(n)]] = 1.0 / np.sqrt(n)
    return StateTensor((2,) * n, amps)


EXPLAIN_CASES = {
    **{f"eps-{eps}-{dims}-{seed}": (lambda d=dims, e=eps, s=seed: eps_band_state(d, e, s))
       for dims in ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3))
       for eps in (3e-9, 1e-8, 3e-8, 1e-4) for seed in range(3)},
    **{f"w-{n}": (lambda k=n: w_qubits(k)) for n in range(4, 11)},
    **{f"ghz-w-{angle}": (lambda a=angle: ghz_w_mixture(a)) for angle in (0.05, 0.5, 1.0, 1.5)},
    **{f"symmetric-{dims}": (lambda d=dims: symmetric_state(d, 900))
       for dims in ((2, 2, 2), (2, 2, 2, 2), (3, 3, 3), (2,) * 5)},
    **{f"haar-{dims}": (lambda d=dims: haar_random_state(d, seed=len(d)))
       for dims in ((2, 3, 4), (3, 3, 3), (2,) * 4, (2,) * 5, (2,) * 6)},
}


@pytest.mark.parametrize("name", sorted(EXPLAIN_CASES))
def test_explain_walk_matches_whole_table(name, monkeypatch):
    # the reference fills every cut before the table is checked, as the
    # explain pass did before it stopped at the first failing cut
    state = EXPLAIN_CASES[name]()
    n = state.subsystem_count
    real = multipartite.equal_spectra_check

    def whole_table(state, *, cuts):
        for cut in all_cuts_with_first(n):
            multipartite._cut(state, cuts, cut)
        return real(state, cuts=cuts)

    rep = check_decomposable(state)
    with monkeypatch.context() as patch:
        patch.setattr(multipartite, "equal_spectra_check", whole_table)
        whole = check_decomposable(state)
    assert (rep.verdict, rep.stage) == (whole.verdict, whole.stage)
    if rep.stage != "SpectraUnequal":
        return
    ok, table = equal_spectra_check(state)
    full = {",".join(map(str, cut)): spec.tolist() for cut, spec in table.items()}
    got = rep.witness["spectra"]
    assert not ok and whole.witness["spectra"] == full
    assert list(got) == [key for key in full if key in got]
    assert all(got[key] == full[key] for key in got)
    if n == 3:
        assert got == full


@pytest.mark.parametrize("build, most", [
    *[(lambda n=n: w_qubits(n), n + 1) for n in (6, 8, 10)],
    (lambda: haar_random_state((2,) * 10, seed=1), 3),
], ids=["w6", "w8", "w10", "haar-2x10"])
def test_spectra_reject_stops_at_first_failing_cut(build, most, monkeypatch):
    # W's n single-site cuts agree and Haar's differ at the first one the
    # decision takes; either way the walk stops at the first two-site cut
    calls = []
    real_spectra = multipartite.spectra

    def counting(state, keep):
        calls.append(tuple(keep))
        return real_spectra(state, keep)

    monkeypatch.setattr(multipartite, "spectra", counting)
    state = build()
    rep = check_decomposable(state)
    assert rep.stage == "SpectraUnequal"
    assert len(calls) <= most and calls[-1] == (1, 2)
    # a partial table: the cuts computed and their complements
    assert len(rep.witness["spectra"]) == 2 * len(calls) < 2 ** state.subsystem_count - 2
