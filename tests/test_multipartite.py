"""Joint decomposability engine: slicing, diagonalization, verdicts."""

import ast
import functools
import gc
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    InvalidArgs,
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
from schmidtkit.bipartite import spectra
from schmidtkit.linalg import haar_unitary
from schmidtkit.multipartite import (
    _scaled_unitary_check,
    _slice_tensor,
    positive_products_commute,
    random_decomposition,
)

from commute_oracle import commutator_eigenbasis, commutator_pairwise
from phase_oracle import phase_fix_row
from spectra_oracle import all_cuts_with_first, svd_spectrum
from state_corpus import ghz_w_mixture, swap_symmetric_state, w_qubits

RT2 = 1.0 / np.sqrt(2.0)
RT3 = 1.0 / np.sqrt(3.0)

# 0.55|000> + 0.45(|011>+|101>+|110>) + 0.3|111>: every cut has reduced
# spectrum {0.635..., 0.364...} yet the slice products do not commute,
# so the verdict must fall at the joint-diagonalization stage
EQSPEC_AMPS = np.array([0.55, 0.0, 0.0, 0.45, 0.0, 0.45, 0.45, 0.3])


def eqspec_state():
    return StateTensor((2, 2, 2), EQSPEC_AMPS)


def test_w_slices_pinned_exactly():
    stack = _slice_tensor(w_state())
    assert stack.shape == (2, 2, 2)
    a0, a1 = stack
    assert np.array_equal(a0, RT3 * np.array([[0, 1], [1, 0]]))
    assert np.array_equal(a1, RT3 * np.array([[1, 0], [0, 0]]))


def test_ghz_slices_pinned():
    stack = _slice_tensor(ghz(3))
    assert stack.shape == (2, 2, 2)
    a0, a1 = stack
    assert np.array_equal(a0, RT2 * np.diag([1.0, 0.0]))
    assert np.array_equal(a1, RT2 * np.diag([0.0, 1.0]))


def test_slice_grouping_for_four_parts():
    state = ghz(4)
    stack = _slice_tensor(state)
    assert len(stack) == 4
    assert stack.shape == (4, 2, 2)
    assert state.dims[2:] == (2, 2)  # the tail dims the assembly reads
    assert np.array_equal(stack[0], RT2 * np.diag([1.0, 0.0]))
    assert np.array_equal(stack[3], RT2 * np.diag([0.0, 1.0]))
    assert np.allclose(stack[1], 0) and np.allclose(stack[2], 0)


def test_slice_axis_selection():
    st = haar_random_state((2, 3, 4), seed=0)
    t = st.tensor()
    default = _slice_tensor(st)
    assert default.shape == (4, 2, 3)
    assert np.array_equal(default[1], t[:, :, 1])


@pytest.mark.parametrize("dims", [(2, 3, 4), (2, 2, 2, 2)], ids=str)
def test_slice_stack_is_a_view_of_the_amplitudes(dims):
    st = haar_random_state(dims, seed=0)
    stack = _slice_tensor(st)
    assert np.shares_memory(stack, st.amplitudes)
    assert stack.shape == (int(np.prod(dims[2:])), *dims[:2])


def test_positive_products_commute_cases():
    ok, resid = positive_products_commute(_slice_tensor(w_state()))
    assert ok and resid < 1e-14
    ok, resid = positive_products_commute(_slice_tensor(eqspec_state()))
    assert not ok and resid > 1e-3
    # an empty stack has nothing off the diagonal
    assert positive_products_commute(np.zeros((0, 2, 2), complex)) == (True, 0.0)


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
        ok, resid = positive_products_commute(_slice_tensor(state))
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
        stack = _slice_tensor(state)
        ok, resid = positive_products_commute(stack)
        assert ok == (commutator_pairwise(stack) <= tolerances.DIAG_TOL)
        assert ok and resid < 1e-12, (seed, resid)


def record_pairs(monkeypatch):
    """The pairs (p, q, s, r) check_decomposable's pair search finds, in order."""
    pairs = []
    fast, attempt = multipartite._fast_pair, multipartite._pair_attempt

    def fast_path(stack):
        pair = fast(stack)
        pairs.extend([pair] if pair is not None else [])
        return pair

    def attempting(stack, k):
        pair, miss = attempt(stack, k)
        pairs.extend([pair] if pair is not None else [])
        return pair, miss

    monkeypatch.setattr(multipartite, "_fast_pair", fast_path)
    monkeypatch.setattr(multipartite, "_pair_attempt", attempting)
    return pairs


def every_attempt_misses(stack):
    """The misses of the fast path and all MAX_PAIR_ATTEMPTS attempts, or None if one hits."""
    if multipartite._fast_pair(stack) is not None:
        return None
    tries = [multipartite._pair_attempt(stack, k) for k in range(multipartite.MAX_PAIR_ATTEMPTS)]
    return None if any(pair is not None for pair, _ in tries) else [miss for _, miss in tries]


def test_find_pair_ghz_fast_path():
    p, q, _, _ = multipartite._fast_pair(_slice_tensor(ghz(3)))
    assert np.array_equal(p, np.eye(2))
    assert np.array_equal(q, np.eye(2))
    assert multipartite._fast_pair(_slice_tensor(w_state())) is None


def test_find_pair_on_random_decomposable(monkeypatch):
    st = random_decomposable_state((3, 3, 3), 3, seed=4)
    stack = _slice_tensor(st)
    pairs = record_pairs(monkeypatch)
    assert check_decomposable(st).decomposable
    p, q, _, _ = pairs[0]
    for m in stack:
        rotated = p.conj().T @ m @ q.conj().T
        off = np.abs(rotated - np.diag(np.diag(rotated))).max()
        assert off < 1e-8


def test_find_pair_rejects_w():
    # every attempt misses, and the report's residual is the least of the
    # misses' residuals, each read over every slice
    stack = _slice_tensor(w_state())
    misses = every_attempt_misses(stack)
    assert [miss[0] for miss in misses] == list(range(multipartite.MAX_PAIR_ATTEMPTS))
    resids = [multipartite._missed_residual(stack, *miss) for miss in misses]
    assert all(resid >= miss[1] for resid, miss in zip(resids, misses))
    best = check_decomposable(w_state()).residuals["max_off_diagonal"]
    assert best == min(resids) and best > 1e-3


def mode_product_rotation(stack, p, q):
    """P+ A_c Q+ for every slice, as two mode products, each one matmul.

    The stack read as one (d1, C * d2) matrix takes P+ on the left, then
    as (d1 * C, d2) Q+ on the right.
    """
    count, d1, d2 = stack.shape
    half = p.conj().T @ stack.transpose(1, 0, 2).reshape(d1, -1)
    return (half.reshape(-1, d2) @ q.conj().T).reshape(d1, count, d2).transpose(1, 0, 2)


@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3, 4), (2, 2, 2, 2)], ids=str)
def test_find_pair_hands_over_checked_diagonals(dims, monkeypatch):
    # R is exactly the rotated stack the pair search checked and S its
    # diagonals, so R's off-diagonals are within diag_tol; each slice of R
    # is P+ A_c Q+ to rounding
    state = random_decomposable_state(dims, 2, seed=4)
    stack = _slice_tensor(state)
    pairs = record_pairs(monkeypatch)
    assert check_decomposable(state).decomposable
    p, q, s, r = pairs[0]
    rotated = mode_product_rotation(stack, p, q)
    assert np.array_equal(r, rotated)
    assert np.abs(rotated - p.conj().T @ stack @ q.conj().T).max() <= 1e-15
    assert np.array_equal(s, np.diagonal(rotated, axis1=1, axis2=2).T)
    off = rotated.copy()
    off[:, np.arange(min(dims[:2])), np.arange(min(dims[:2]))] = 0.0
    assert np.abs(off).max() <= tolerances.DIAG_TOL
    # the GHZ fast path hands over the slices themselves and their diagonals
    ghz_stack = _slice_tensor(ghz(4))
    p, q, s, r = multipartite._fast_pair(ghz_stack)
    assert np.array_equal(r, p.conj().T @ ghz_stack @ q.conj().T)
    assert np.shares_memory(r, ghz_stack)
    assert np.array_equal(s, np.diagonal(ghz_stack, axis1=1, axis2=2).T)


def test_scaled_unitary_check_cases():
    ok, gram, off = _scaled_unitary_check(np.diag([0.8, 0.6]))
    assert ok and np.allclose(gram, np.diag([0.64, 0.36])) and off == 0.0
    # the W diagnostic matrix: rows not orthogonal
    s_w = RT3 * np.array([[1.0, 0.0], [1.0, 1.0]])
    ok, gram, off = _scaled_unitary_check(s_w)
    assert not ok
    assert np.allclose(gram, np.array([[1, 1], [1, 2]]) / 3) and np.isclose(off, 1 / 3)
    # zero rows are permitted
    ok, gram, _ = _scaled_unitary_check(np.array([[0.9, 0.0], [0.0, 0.0]]))
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
    # refused at the entry, before the state is sliced
    with pytest.raises(TooFewSubsystems, match=r"need >= 3 subsystems, got 2"):
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
    with pytest.raises(DimensionMismatch, match="need 3 unitaries, got 2"):
        apply_local_unitaries(st, us[:2])
    with pytest.raises(DimensionMismatch, match=r"unitary 2 has shape \(2, 2\)"):
        apply_local_unitaries(st, [us[0], us[0], us[2]])


@pytest.mark.parametrize("matrix", [
    np.diag([1.0, 3.0]), np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, np.nan]]),
], ids=["diag-1-3", "zeros", "nan"])
def test_apply_local_unitaries_refuses_a_matrix_that_is_not_unitary(matrix):
    # diag(1, 3) would take GHZ_3 to coefficients (0.949, 0.316), out of its class
    with pytest.raises(InvalidArgs, match=r"subsystem 2 is not unitary \(residual"):
        apply_local_unitaries(ghz(3), [np.eye(2), matrix, np.eye(2)])
    # a wrong shape is still a DimensionMismatch, whatever the other matrices are
    with pytest.raises(DimensionMismatch):
        apply_local_unitaries(ghz(3), [matrix, np.eye(2), np.eye(3)])


def test_apply_local_unitaries_accepts_a_unitary_within_orth_tol():
    st = haar_random_state((2, 3, 2), seed=4)
    rng = np.random.default_rng(5)
    us = [haar_unitary(d, rng) + 1e-10 * rng.standard_normal((d, d)) for d in st.dims]
    got = apply_local_unitaries(st, us).amplitudes
    want = np.kron(np.kron(us[0], us[1]), us[2]) @ st.amplitudes
    assert np.max(np.abs(got - want / np.linalg.norm(want))) < 1e-12


def test_local_unitary_link_maps_onto_a_phased_target():
    # the target's global phase is carried by its own decomposition, so the
    # link reproduces it with no phase fit
    for seed, dims in enumerate(((2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2))):
        phi = random_decomposable_state(dims, 2, seed)
        rng = np.random.default_rng((seed, 11))
        rotated = apply_local_unitaries(phi, [haar_unitary(d, rng) for d in dims])
        target = StateTensor(dims, np.exp(2j * np.pi * rng.uniform()) * rotated.amplitudes)
        mapped = apply_local_unitaries(phi, local_unitary_link(target, phi))
        assert np.abs(mapped.amplitudes - target.amplitudes).max() <= tolerances.LINK_TOL


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


@pytest.mark.parametrize("dims", [(2, 3, 2, 3), (3, 4, 5), (4, 4, 4)], ids=str)
def test_local_unitary_link_off_support_depends_on_the_states(dims):
    # rank 2 leaves each family a complement, where U_k comes from the two
    # states alone: identical states give the identity, and a change in
    # the source's last bits leaves every U_k where it was
    for seed in range(5):
        phi = random_decomposable_state(dims, 2, seed)
        for u in local_unitary_link(phi, phi):
            assert np.abs(u - np.eye(len(u))).max() < 1e-12
        rng = np.random.default_rng((seed, 7))
        psi = apply_local_unitaries(phi, [haar_unitary(d, rng) for d in dims])
        amps = phi.amplitudes * (1 + 1e-15 * rng.standard_normal(phi.amplitudes.size))
        nudged = new_state(dims, amps / np.linalg.norm(amps))
        for u, v in zip(local_unitary_link(psi, phi), local_unitary_link(psi, nudged)):
            assert np.abs(u - v).max() < 1e-12


def test_local_unitary_link_refusals():
    phi = ghz(3)
    psi = random_decomposable_state((2, 2, 2), 2, seed=11)
    with pytest.raises(CoefficientsMismatch):
        local_unitary_link(psi, phi)
    with pytest.raises(NotDecomposable):
        local_unitary_link(w_state(), phi)
    with pytest.raises(DimensionMismatch):
        local_unitary_link(ghz(4), phi)


def test_local_unitary_link_checks_the_mapped_source():
    # a band state linked to itself under Haar unitaries: both sides
    # accept and their coefficients agree to rounding, but each rebuilds
    # its state only within RECONSTRUCT_TOL, and the mapped source misses
    # the target by 1.6e-8, between LINK_TOL and 3 LINK_TOL, entry by entry
    source = eps_band_state((3, 3, 3), 2e-8, 36)
    rng = np.random.default_rng(1036)
    target = apply_local_unitaries(source, [haar_unitary(3, rng) for _ in range(3)])
    reports = [check_decomposable(state) for state in (target, source)]
    assert all(rep.decomposable for rep in reports)
    ct, cs = (rep.decomposition.coefficients for rep in reports)
    assert ct.size == cs.size and np.abs(ct - cs).max() <= 1e-15
    with pytest.raises(DifferentStates, match=r"residual 1\.6\d+e-08"):
        local_unitary_link(target, source)


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


@pytest.mark.parametrize("dims", [(3,), (2, 3), (2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2),
                                  (3, 2, 4, 2), (2,) * 5], ids=str)
def test_equal_spectra_table_matches_partial_trace_oracle(dims):
    # a pass fills complements from their partner's spectrum, so check
    # them too; one subsystem has no proper cut, so its table is empty.
    # A fail's table is site 1 and the deciding cut, above SPECTRA_TOL
    n = len(dims)
    subsets = sorted((tuple(i + 1 for i in range(n) if mask >> i & 1)
                      for mask in range(1, 2 ** n - 1)), key=lambda s: (len(s), s))
    for state in (haar_random_state(dims, seed=5),
                  random_decomposable_state(dims, min(dims), seed=5)):
        ok, table = equal_spectra_check(state)
        want = {keep: np.linalg.eigvalsh(partial_trace(pure_density(state), keep).entries)[::-1]
                for keep in subsets}
        if not ok:
            assert_deciding_cut(state, table, want, 1e-12)
            continue
        assert list(table) == subsets
        for keep in subsets:
            assert table[keep].shape == want[keep].shape
            assert np.max(np.abs(table[keep] - want[keep])) < 1e-12, keep


def assert_deciding_cut(state, table, oracle=None, bound=1e-14):
    """A failed walk's table: site 1 and the first cut, by size and then
    subset, whose svd_spectrum differs from site 1's on its nonzero part;
    each entry is the oracle's (svd_spectrum unless given) above
    SPECTRA_TOL, within bound."""
    tol = tolerances.SPECTRA_TOL
    amps, dims = state.amplitudes, state.dims
    ref = svd_spectrum(amps, dims, (1,))
    cut = next(cut for cut in sorted(all_cuts_with_first(len(dims)), key=lambda c: (len(c), c))
               if not multipartite._same_nonzero(ref, svd_spectrum(amps, dims, cut), tol))
    assert list(table) == [(1,), cut]
    for key, got in table.items():
        want = svd_spectrum(amps, dims, key) if oracle is None else oracle[key]
        want = want[want > tol]
        assert np.shape(got) == want.shape and np.max(np.abs(got - want)) <= bound, key


def witness_table(report):
    """A SpectraUnequal witness read back into a table of arrays."""
    return {tuple(map(int, key.split(","))): np.array(spec)
            for key, spec in report.witness["spectra"].items()}


def eps_band_state(dims, eps, seed, offset=100):
    """Rank 2 plus eps times the Haar state of seed + offset, renormalised."""
    amps = (random_decomposable_state(dims, 2, seed=seed).amplitudes
            + eps * haar_random_state(dims, seed=seed + offset).amplitudes)
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
            if not ok:
                assert_deciding_cut(state, table, oracle, 1e-14)
            else:
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
    stack = _slice_tensor(COMMUTE_CASES[name]())
    _, got = positive_products_commute(stack)
    assert abs(got - commutator_eigenbasis(stack)) < 1e-12


@pytest.mark.parametrize("name", sorted(COMMUTE_CASES))
def test_commute_verdict_matches_pairwise_oracle(name):
    stack = _slice_tensor(COMMUTE_CASES[name]())
    ok, _ = positive_products_commute(stack)
    assert ok == (commutator_pairwise(stack) <= tolerances.DIAG_TOL)


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


def test_large_haar_reject_work_is_independent_of_subset_count():
    # a (2,)x16 Haar reject computes two cuts and is witnessed by them,
    # site 1 and (1, 2); its walk must not visit the 2^16 - 2 subsets of {1..16}
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    state = haar_random_state((2,) * 16, 1)
    sys.setprofile(count)
    try:
        rep = check_decomposable(state)
    finally:
        sys.setprofile(None)
    assert rep.stage == "SpectraUnequal" and list(rep.witness["spectra"]) == ["1", "1,2"]
    assert calls < 1000
    assert_deciding_cut(state, witness_table(rep))


def test_accept_and_reject_do_no_table_work_twice(monkeypatch):
    # an accept found at attempt 0 computes no cut and never builds the
    # table; a reject builds it from the cuts already taken, so no cut is
    # computed twice, and stops at the first failing cut: Haar misses
    # attempt 0 and fails at (1, 2), the walk's first cut, and computes two
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
    assert calls == []
    for dims in ((3, 3, 3), (2,) * 6):
        calls.clear()
        rep = check_decomposable(haar_random_state(dims, seed=4))
        assert rep.stage == "SpectraUnequal"
        assert calls == [(1,), (1, 2)]


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


def test_w_reject_rotations_pinned(monkeypatch):
    # W's S is read from {A_c A_c+} in the combination's eigenbasis; the
    # explain pass's commutation test, called by its public name, finds
    # both of W's families diagonal already and rotates neither
    calls = []
    real = multipartite._rotate_to_combination

    def counting(family):
        calls.append(family.shape)
        return real(family)

    monkeypatch.setattr(multipartite, "_rotate_to_combination", counting)
    rep = check_decomposable(w_state())
    assert rep.stage == "SNotScaledUnitary"
    assert calls == [(2, 2, 2)]
    third, two_thirds = 0.3333333333333334, 0.6666666666666669
    assert np.asarray(rep.witness["ss_dagger"]).tolist() == \
        [[third, third], [third, two_thirds]]
    assert rep.residuals == {"max_commutator": 0.0,
                             "max_off_diagonal": 0.2828028788442887}


@pytest.mark.parametrize("build, stage, count", [
    (w_state, "SNotScaledUnitary", 1),
    (lambda: ghz_w_mixture(0.5), "SlicesNotSimultaneouslyDiagonalizable", 1),
    (lambda: random_decomposable_state((3, 3, 3), 3, seed=0), None, 1),
    # single-site spectra differ: the certificate rejects before any commute test
    (lambda: haar_random_state((2, 3, 4), seed=0), "SpectraUnequal", 0),
], ids=["w", "ghz-w", "decomposable", "haar"])
def test_commute_test_is_called_by_name(build, stage, count, monkeypatch):
    # a span wrapped around the module attribute sees every commute test,
    # the accept's and the explain pass's
    calls = []
    real = multipartite.positive_products_commute

    def counting(stack):
        calls.append(stack.shape)
        return real(stack)

    monkeypatch.setattr(multipartite, "positive_products_commute", counting)
    rep = check_decomposable(build())
    assert rep.stage == stage
    assert len(calls) == count


@pytest.mark.parametrize("build", [
    lambda: random_decomposable_state((8, 8, 8), 8, seed=1),
    lambda: random_decomposable_state((16, 16, 16), 4, seed=1),
    lambda: random_decomposable_state((2,) * 8, 2, seed=1),
    lambda: ghz(4),
], ids=["888-r8", "161616-r4", "2x8-r2", "ghz4"])
def test_accept_reads_commutator_from_pair_rotation(build, monkeypatch):
    # the accept's one commute test gets the rotated stack the pair search
    # checked; its products are diagonal already, so nothing is rotated
    received, rotations = [], []
    real_commute = multipartite.positive_products_commute
    real_rotate = multipartite._rotate_to_combination

    def commute(stack):
        received.append(stack)
        return real_commute(stack)

    def rotate(family):
        rotations.append(family.shape)
        return real_rotate(family)

    pairs = record_pairs(monkeypatch)
    monkeypatch.setattr(multipartite, "positive_products_commute", commute)
    monkeypatch.setattr(multipartite, "_rotate_to_combination", rotate)
    rep = check_decomposable(build())
    assert rep.decomposable
    assert len(pairs) == len(received) == 1
    assert received[0] is pairs[0][3]
    assert rotations == []


def near_diagonal_stack(shape, eps, seed):
    """Diagonal slices of magnitude 0.2 to 1 plus eps times complex Gaussian off-diagonals."""
    rng = np.random.default_rng(seed)
    idx = np.arange(min(shape[1:]))
    stack = np.zeros(shape, dtype=complex)
    stack[:, idx, idx] = rng.uniform(0.2, 1.0, (shape[0], idx.size)) * \
        np.exp(2j * np.pi * rng.uniform(size=(shape[0], idx.size)))
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    noise[:, idx, idx] = 0.0
    return stack + eps * noise


@pytest.mark.parametrize("eps", [0.0, 1e-10, 3e-10, 1e-9, 1e-8, 3e-8])
@pytest.mark.parametrize("shape", [(4, 3, 3), (16, 2, 2), (3, 4, 4), (8, 3, 5)], ids=str)
def test_identity_basis_rule_matches_pairwise_oracle(shape, eps, monkeypatch):
    # products of these slices have off-diagonals of about 2 eps: read as
    # they stand up to eps = 1e-9, rotated from 1e-8 on.  Between the two
    # (eps near 3e-9) the oracle's Frobenius commutator and the largest
    # off-diagonal entry fall on opposite sides of DIAG_TOL, with or
    # without the rule, so no verdict is pinned there
    rotations = []
    real = multipartite._rotate_to_combination

    def counting(family):
        rotations.append(family.shape)
        return real(family)

    monkeypatch.setattr(multipartite, "_rotate_to_combination", counting)
    for seed in range(5):
        rotations.clear()
        stack = near_diagonal_stack(shape, eps, seed)
        ok, resid = positive_products_commute(stack)
        assert ok == (commutator_pairwise(stack) <= tolerances.DIAG_TOL), (seed, resid)
        assert ok == (eps < tolerances.DIAG_TOL)
        assert (rotations == []) == ok
        if eps == 0.0:
            assert resid == 0.0


ACCEPT_CASES = {
    "decomposable-333-r3": lambda: random_decomposable_state((3, 3, 3), 3, seed=2),
    "decomposable-888-r8": lambda: random_decomposable_state((8, 8, 8), 8, seed=2),
    "decomposable-234-r2": lambda: random_decomposable_state((2, 3, 4), 2, seed=2),
    "decomposable-2x6-r1": lambda: random_decomposable_state((2,) * 6, 1, seed=2),
    "decomposable-4444-r4": lambda: random_decomposable_state((4,) * 4, 4, seed=2),
    "ghz5": lambda: ghz(5),
    "rotated-ghz4": lambda: apply_local_unitaries(
        ghz(4), [haar_unitary(2, np.random.default_rng(k)) for k in range(4)]),
    "tie-444-r4": lambda: reconstruct(SchmidtDecomposition(
        (4, 4, 4), np.full(4, 0.5),
        tuple(haar_unitary(4, np.random.default_rng(k)) for k in range(3)))),
}


@pytest.mark.parametrize("name", sorted(ACCEPT_CASES))
def test_accept_max_commutator_is_tiny_outside_the_band(name):
    # R is diagonal to rounding, so R R+ and R+ R are too
    rep = check_decomposable(ACCEPT_CASES[name]())
    assert rep.decomposable
    assert rep.residuals["max_commutator"] <= 1e-12


@pytest.mark.parametrize("eps", [1e-6, 1e-5])
def test_no_pair_with_orthogonal_s_rows_rejects_at_diagonalization(eps):
    # 0.8|000> + 0.6|111> + eps(|012> + |102>): every product is diagonal
    # and S's rows overlap only at eps^2, but the third slice eps X is off
    # the diagonal in the only pair that fits the first two
    amps = np.zeros((2, 2, 3))
    amps[0, 0, 0], amps[1, 1, 1] = 0.8, 0.6
    amps[0, 1, 2] = amps[1, 0, 2] = eps
    flat = amps.reshape(-1)
    rep = check_decomposable(StateTensor((2, 2, 3), flat / np.linalg.norm(flat)))
    assert rep.stage == "SlicesNotSimultaneouslyDiagonalizable"
    assert set(rep.witness) == {"max_off_diagonal"}
    assert rep.witness["max_off_diagonal"] == pytest.approx(eps, rel=1e-6)
    assert rep.residuals == {"max_commutator": 0.0, **rep.witness}


def symmetric_state(dims, seed):
    """A Haar state averaged over all permutations of its subsystems."""
    tensor = haar_random_state(dims, seed).tensor()
    total = sum(np.transpose(tensor, perm)
                for perm in itertools.permutations(range(len(dims))))
    flat = total.reshape(-1)
    return StateTensor(dims, flat / np.linalg.norm(flat))


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
    # S's rows overlap and the candidate misses the rebuild: the explain
    # pass reads S after the gate, so the gate's residuals stay
    "eps-3e-8-222-28": (lambda: eps_band_state((2, 2, 2), 3e-8, 28, offset=1000),
                        ("SNotScaledUnitary", {"ss_dagger"},
                         {"max_commutator", "max_ss_off_diagonal", "reconstruction",
                          "tail_orthonormality"})),
}


@pytest.mark.parametrize("name", sorted(REJECT_REPORTS))
def test_reject_reports_pinned(name):
    build, (stage, witness, residuals) = REJECT_REPORTS[name]
    rep = check_decomposable(build())
    assert not rep.decomposable and rep.decomposition is None
    assert rep.stage == stage
    assert set(rep.witness) == witness
    assert set(rep.residuals) == residuals


def einsum_rebuild(decomposition):
    """sum_l c_l (x)_k v_lk as one einsum, flattened."""
    letters = "abcdefgh"[:len(decomposition.dims)]
    spec = ",".join(["z", *(f"z{x}" for x in letters)]) + f"->{letters}"
    return np.einsum(spec, decomposition.coefficients, *decomposition.vectors).reshape(-1)


@pytest.mark.parametrize("dims, seed", [
    ((2, 2, 2), 5), ((2, 2, 2), 13), ((3, 3, 3), 8), ((2, 2, 2, 2), 94)], ids=str)
def test_rebuild_alone_decides_when_s_rows_overlap(dims, seed, monkeypatch):
    # the pair's S is no scaled unitary, yet the candidate made of its
    # rows rebuilds the state: an accept, which no S test may refuse
    state = eps_band_state(dims, 3e-8, seed, offset=1000)
    verdicts = []
    real = multipartite._scaled_unitary_check

    def checking(s):
        verdicts.append(real(s)[0])
        return real(s)

    monkeypatch.setattr(multipartite, "_scaled_unitary_check", checking)
    rep = check_decomposable(state)
    assert verdicts == [False]
    assert rep.decomposable and rep.stage is None
    resid = np.abs(einsum_rebuild(rep.decomposition) - state.amplitudes).max()
    assert resid <= tolerances.RECONSTRUCT_TOL


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


@pytest.mark.parametrize("build", [
    *[(lambda n=n: w_qubits(n)) for n in (6, 8, 10)],
    lambda: haar_random_state((2,) * 10, seed=1),
], ids=["w6", "w8", "w10", "haar-2x10"])
def test_spectra_reject_stops_at_first_failing_cut(build, monkeypatch):
    # W's and Haar's site 1 differ from the cut (1, 2), the one the
    # decision compares and the walk's first, so the walk stops there
    calls = []
    real_spectra = multipartite.spectra

    def counting(state, keep):
        calls.append(tuple(keep))
        return real_spectra(state, keep)

    monkeypatch.setattr(multipartite, "spectra", counting)
    state = build()
    rep = check_decomposable(state)
    assert rep.stage == "SpectraUnequal"
    assert calls == [(1,), (1, 2)]
    # the witness is site 1 and the deciding cut
    assert_deciding_cut(state, witness_table(rep))


def w3_padded(n):
    """W_3 on the first three of n qubits, the others in |0>."""
    return StateTensor((2,) * n, np.kron(w_state().amplitudes, np.eye(2 ** (n - 3))[0]))


def ghz_padded(m):
    """GHZ_m on the first m of m + 1 qubits, the last in |0>."""
    return StateTensor((2,) * (m + 1), np.kron(ghz(m).amplitudes, [1.0, 0.0]))


def count_pair_attempts(monkeypatch):
    """The number k of each pair attempt check_decomposable makes, in order."""
    attempts = []
    real = multipartite._pair_attempt

    def attempt(stack, k):
        attempts.append(k)
        return real(stack, k)

    monkeypatch.setattr(multipartite, "_pair_attempt", attempt)
    return attempts


@pytest.mark.parametrize("build", [
    *[(lambda n=n: w_qubits(n)) for n in range(4, 13)],
    *[(lambda d=dims: swap_symmetric_state(d, 7))
      for dims in ((2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (32, 32, 32))],
], ids=[*(f"w{n}" for n in range(4, 13)), "swap12-222", "swap12-333", "swap12-2222",
        "swap12-32x3"])
def test_reject_at_the_first_cut_runs_no_pair_search(build, monkeypatch):
    # site 1 differs from the cut (1, 2), sites 3..n, for W_n and for states
    # whose sites 1 and 2 agree: after attempt 0 misses, the decision
    # rejects there with no further attempt, and the report is the one a
    # walk from no cuts gives
    state = build()
    attempts = count_pair_attempts(monkeypatch)
    rep = check_decomposable(state)
    assert attempts == [0]
    ok, table = equal_spectra_check(state)
    assert not ok and list(table)[1] == (1, 2)
    assert (rep.stage, rep.witness, rep.residuals, rep.decomposition) == (
        "SpectraUnequal",
        {"spectra": {",".join(map(str, cut)): spec.tolist() for cut, spec in table.items()}},
        {}, None)
    assert_deciding_cut(state, table)


@pytest.mark.parametrize("build", [
    lambda: StateTensor((2, 2, 2), RT2 * np.eye(8)[[0, 5]].sum(0)),
    lambda: swap_symmetric_state((2, 2, 2), 7, site=3),
    lambda: swap_symmetric_state((3, 3, 3), 7, site=3),
], ids=["bell13-0-222", "swap13-222", "swap13-333"])
def test_cuts_after_the_first_are_left_to_rebuild_and_table(build, monkeypatch):
    # site 1 agrees with the cut (1, 2), site 3 at n = 3, and not with the
    # cut (1, 3), site 2: after attempt 0 misses, the decision's walk passes
    # the first and rejects at the second, with no further attempt; the
    # explain walk then stops at the same cut, so the stage is SpectraUnequal
    state = build()
    site1, tol = spectra(state, (1,)), tolerances.SPECTRA_TOL
    assert multipartite._same_nonzero(site1, spectra(state, (1, 2)), tol)
    assert not multipartite._same_nonzero(site1, spectra(state, (1, 3)), tol)
    attempts = count_pair_attempts(monkeypatch)
    rep = check_decomposable(state)
    assert attempts == [0]
    assert rep.stage == "SpectraUnequal" and rep.decomposition is None
    # the witness is the one a walk from no cuts finds: site 1 and the deciding cut
    ok, table = equal_spectra_check(state)
    assert not ok and rep.witness["spectra"] == {
        ",".join(map(str, cut)): spec.tolist() for cut, spec in table.items()}
    assert_deciding_cut(state, table)


def haar_with_site_two_pure(seed):
    """A Haar state on sites 1, 3 and 4 of four qubits, site 2 in |0>."""
    tensor = np.einsum("acd,b->abcd", haar_random_state((2, 2, 2), seed).tensor(), [1.0, 0.0])
    return StateTensor((2, 2, 2, 2), tensor.reshape(-1))


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (3, 3, 3)], ids=str)
def test_no_pair_reject_reads_s_only_when_the_report_shows_it(dims, monkeypatch):
    # site 1 and the cut (1, 2) agree for these states (a Haar state with
    # a pure site 2, and a 1<->3-symmetric state), no pair is found for
    # them, and after one attempt the certificate rejects them at (1, 3):
    # S, whose read rotates the whole product family, is never read,
    # because the report would not show it (W and W_3 and |0>^k read it
    # once, test_w_reject_rotations_pinned and
    # test_w3_padded_reports_w3s_stage_and_s)
    calls = []
    real = multipartite._rotate_to_combination

    def counting(family):
        calls.append(family.shape)
        return real(family)

    monkeypatch.setattr(multipartite, "_rotate_to_combination", counting)
    state = haar_with_site_two_pure(7) if len(dims) == 4 else swap_symmetric_state(dims, 7, site=3)
    assert every_attempt_misses(_slice_tensor(state)) is not None
    attempts = count_pair_attempts(monkeypatch)
    rep = check_decomposable(state)
    assert attempts == [0] and rep.stage == "SpectraUnequal"
    assert list(rep.witness["spectra"]) == ["1", "1,3"]
    assert calls == []


@pytest.mark.parametrize("build, cuts", [
    (lambda: eps_band_state((2,) * 10, 1e-7, 2), [(1,), *((1, k) for k in range(2, 11))]),
    (lambda: ghz_padded(9), []),
], ids=["band-2x10", "ghz9-pad"])
def test_a_reject_reads_at_most_n_spectra(build, cuts, monkeypatch):
    # the band state's cuts (1, k) all agree with site 1, and GHZ_9 and |0>
    # misses the rebuild after the fast path's pair: neither is certified,
    # and the explain pass reads no spectrum, so the decision computes site
    # 1 and the cuts (1, k) at most, where a walk over every cut containing
    # site 1 would compute 511 and 503
    state = build()
    calls = []
    real = multipartite.spectra

    def counting(state, keep):
        calls.append(tuple(keep))
        return real(state, keep)

    with monkeypatch.context() as patch:
        patch.setattr(multipartite, "spectra", counting)
        rep = check_decomposable(state)
    assert not rep.decomposable and rep.stage != "SpectraUnequal"
    assert calls == cuts
    if cuts:
        # spectra --equal's walk still prints every proper subset
        ok, table = equal_spectra_check(state)
        assert ok and len(table) == 2 ** 10 - 2


@pytest.mark.parametrize("k", [1, 5])
def test_w3_padded_reports_w3s_stage_and_s(k, monkeypatch):
    # W_3 and |0>^k agrees with site 1 on every cut (1, k) and differs on
    # larger ones, which only a tolerance call would read: no cut (1, k)
    # certifies, so it reports W_3's stage, and its no-pair S, read once,
    # has W_3's Gram
    calls = []
    real = multipartite._rotate_to_combination

    def counting(family):
        calls.append(family.shape)
        return real(family)

    monkeypatch.setattr(multipartite, "_rotate_to_combination", counting)
    rep = check_decomposable(w3_padded(3 + k))
    assert rep.stage == "SNotScaledUnitary" and set(rep.witness) == {"ss_dagger"}
    assert calls == [(2 ** (k + 1), 2, 2)]
    w3 = check_decomposable(w_state())
    assert np.abs(np.asarray(rep.witness["ss_dagger"])
                  - np.asarray(w3.witness["ss_dagger"])).max() <= 1e-12


def test_s_read_and_rejects_stay_behind_the_explain_checks():
    # the no-pair S read (a rotation of the whole product family) lives in
    # check_decomposable's reject, after the commute test; only the commute
    # test rotates elsewhere.  Every reject report lives in reject, but for
    # the certificate's SpectraUnequal one, and reject reads no spectrum
    tree = ast.parse(Path(multipartite.__file__).read_text())
    rotations, rejects, spectra_reads = [], [], []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id == "_rotate_to_combination":
                    rotations.append(owner)
                accept = child.args and isinstance(child.args[0], ast.Constant) \
                    and child.args[0].value is True
                if child.func.id == "DecomposabilityReport" and not accept:
                    rejects.append((owner, ast.unparse(child.args[1])))
                if child.func.id in ("equal_spectra_check", "_no_candidate_passes", "_cut",
                                     "spectra"):
                    spectra_reads.append(owner)
            visit(child, owner)

    visit(tree, "")
    assert sorted(set(rotations)) == ["_commute_residual", "check_decomposable.reject"]
    assert sorted(rejects) == [("check_decomposable", "STAGE_SPECTRA"),
                               ("check_decomposable.reject", "STAGE_DIAG"),
                               ("check_decomposable.reject", "stage")]
    assert "check_decomposable.reject" not in spectra_reads


def test_rebuild_is_the_only_gate_after_a_pair():
    # check_decomposable rejects only where a cut (1, k) proves that no
    # candidate passes (asked only after attempt 0 misses, and reported
    # there with the walk's witness, read only then), where no pair is
    # found and where the rebuild misses; S's verdict is read once on the
    # way to the rebuild and once in reject
    tree = ast.parse(Path(multipartite.__file__).read_text())
    decide = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                  and node.name == "check_decomposable")
    gates, checks = [], []

    def visit(node, owner, guard):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, f"{owner}.{child.name}", None)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id == "_scaled_unitary_check":
                    checks.append(owner)
                report = child.func.id == "DecomposabilityReport" and not (
                    isinstance(child.args[0], ast.Constant) and child.args[0].value is True)
                if owner == "check_decomposable" and (
                        child.func.id in ("reject", "equal_spectra_check") or report):
                    gates.append((guard, child.func.id, isinstance(node, ast.Return)))
            if isinstance(child, ast.If):
                visit(child, owner, ast.unparse(child.test))
            elif isinstance(child, ast.ExceptHandler):
                visit(child, owner, ast.unparse(child.type))
            else:
                visit(child, owner, guard)

    visit(decide, "check_decomposable", None)
    certified = "attempt == 0 and _no_candidate_passes(state, cuts)"
    assert gates == [(certified, "equal_spectra_check", False),
                     (certified, "DecomposabilityReport", True),
                     ("pair is None", "reject", True),
                     ("not resid <= tolerances.RECONSTRUCT_TOL", "reject", True)]
    assert sorted(checks) == ["check_decomposable", "check_decomposable.reject"]


def masked_off_diagonal_max(matrices):
    """The boolean-mask gather that _off_diagonal_residual replaced."""
    mask = ~np.eye(*matrices.shape[-2:], dtype=bool)
    return float(np.abs(matrices[..., mask]).max(initial=0.0))


def _complex_gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _off_diagonal_cases():
    rng = np.random.default_rng(5)
    nan_on, nan_off = _complex_gaussian(rng, 3, 4, 4), _complex_gaussian(rng, 3, 4, 4)
    nan_on[1, 2, 2] = np.nan
    nan_off[2, 0, 3] = np.nan
    return {
        "square-stack": _complex_gaussian(rng, 5, 4, 4),
        "wide-stack": _complex_gaussian(rng, 5, 3, 6),
        "tall-stack": _complex_gaussian(rng, 5, 6, 3),
        "matrix": _complex_gaussian(rng, 4, 4),
        "wide-matrix": _complex_gaussian(rng, 2, 5),
        "one-by-one": _complex_gaussian(rng, 3, 1, 1),
        "real-stack": rng.standard_normal((4, 3, 3)),
        "diagonal-stack": np.eye(4) * _complex_gaussian(rng, 3, 1, 1),
        "strided-slices": _slice_tensor(haar_random_state((3, 4, 5), seed=1)),
        "nan-on-diagonal": nan_on,
        "nan-off-diagonal": nan_off,
    }


OFF_DIAGONAL_CASES = _off_diagonal_cases()


@pytest.mark.parametrize("name", sorted(OFF_DIAGONAL_CASES))
def test_off_diagonal_residual_matches_masked_gather(name):
    matrices = OFF_DIAGONAL_CASES[name]
    before = matrices.copy()
    got = multipartite._off_diagonal_residual(matrices)
    want = masked_off_diagonal_max(matrices)
    assert type(got) is float
    assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got) == (name == "nan-off-diagonal")
    assert np.array_equal(matrices, before, equal_nan=True)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (7, 5, 3), (4, 4, 4, 4),
                                  (2,) * 8, (16, 16, 16)], ids=str)
def test_random_combination_matches_tensordot(dims):
    # the slice view and a contiguous copy of it give the same bits
    for seed in range(3):
        raw = _slice_tensor(haar_random_state(dims, seed=seed))
        for stack in (raw, np.ascontiguousarray(raw)):
            got = multipartite._random_combination(stack, np.random.default_rng(seed))
            rng = np.random.default_rng(seed)
            coeffs = _complex_gaussian(rng, len(stack))
            assert np.array_equal(got, np.tensordot(coeffs, stack, axes=1))


def per_row_tail_split(rows, dims):
    """The split _split_tails replaced: one SVD per row and tail cut."""
    ratio = 0.0
    factors = [np.empty((len(rows), d), dtype=complex) for d in dims]
    for l, remainder in enumerate(rows):
        for k, d in enumerate(dims[:-1]):
            u, sing, vh = np.linalg.svd(remainder.reshape(d, -1), full_matrices=False)
            ratio = max(ratio, float(sing[1] / sing[0]) if sing.size > 1 else 0.0)
            factors[k][l], ph = phase_fix_row(u[:, 0])
            remainder = vh[0, :] * ph
        factors[-1][l] = remainder
    return factors, ratio


@pytest.mark.parametrize("dims", [(3,), (2, 2), (2, 3, 4), (4, 4), (1, 3), (3, 1),
                                  (2,) * 6], ids=str)
def test_split_tails_matches_per_row_split(dims):
    rng = np.random.default_rng(len(dims))
    products = np.array([functools.reduce(np.kron, (_complex_gaussian(rng, d) for d in dims))
                         for _ in range(3)])
    generic = _complex_gaussian(rng, 3, int(np.prod(dims)))
    for rows in (products, generic):
        rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        before = rows.copy()
        residuals = {}
        got = multipartite._split_tails(rows, dims, residuals)
        want, ratio = per_row_tail_split(rows, dims)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert residuals == ({"tail_product_ratio": ratio} if len(dims) > 1 else {})
        assert np.array_equal(rows, before)


@pytest.mark.parametrize("build", [
    lambda: _slice_tensor(haar_random_state((3, 4, 5), seed=2)),
    lambda: _slice_tensor(haar_random_state((4, 3, 2, 3), seed=2)),
    lambda: _slice_tensor(w_state()),
    lambda: _slice_tensor(eqspec_state()),
    lambda: multipartite._pair_attempt(_slice_tensor(
        random_decomposable_state((8, 8, 8), 8, seed=2)), 0)[0][3],
    lambda: near_diagonal_stack((8, 3, 5), 1e-8, 0),
    lambda: multipartite._pair_attempt(_slice_tensor(
        random_decomposable_state((32, 32, 32), 32, seed=2)), 0)[0][3],
    lambda: _slice_tensor(haar_random_state((32, 32, 32), seed=2)),
], ids=["haar-345", "haar-4323", "w", "eqspec", "rotated-888", "near-diagonal-835",
        "rotated-323232", "haar-323232"])
def test_commute_products_match_fresh_products(build, monkeypatch):
    # a family is formed a slab of slices at a time while it reads
    # diagonal, then whole if a slab does not; the slabs formed must make
    # up a freshly allocated family, or the last one formed must be it,
    # and the verdict's residual must be the fresh families' one
    stack = build()
    formed = {False: [], True: []}
    real = multipartite._products

    def recording(part, adjoint_first):
        formed[adjoint_first].append(real(part, adjoint_first))
        return formed[adjoint_first][-1]

    def fresh_residual(family):
        resid = multipartite._off_diagonal_residual(family)
        if resid <= tolerances.DIAG_TOL:
            return resid
        return multipartite._off_diagonal_residual(multipartite._rotate_to_combination(family))

    monkeypatch.setattr(multipartite, "_products", recording)
    ok, worst = positive_products_commute(stack)
    adjoint = stack.conj().transpose(0, 2, 1)
    fresh = {False: stack @ adjoint, True: adjoint @ stack}
    for flip, families in formed.items():
        whole = len(families) > 1 and len(families[-1]) == len(stack)
        got = families[-1] if whole else np.concatenate(families)
        assert np.array_equal(got, fresh[flip])
    assert len(formed[False]) > 1 or stack.size <= 8192
    assert worst == max(fresh_residual(fresh[False]), fresh_residual(fresh[True]))
    assert ok == (worst <= tolerances.DIAG_TOL)


def traced_peak(run, *args):
    """The tracemalloc peak of run(*args) over what was allocated before it.

    tracemalloc sees numpy's array buffers; run is called once before
    tracing to warm every lazy cache.
    """
    run(*args)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        result = run(*args)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def test_large_accept_makes_no_throwaway_full_size_copy():
    # the peak of a (32,32,32) rank-32 accept was 5.26 times the state's
    # bytes with throwaway full-size copies, and 4.24 times while the
    # rebuild gate, the spectra and the commutator each made full-size
    # temporaries; it is now the pair search's rotation, about 2.1 times
    state = random_decomposable_state((32, 32, 32), 32, seed=1)
    rep, peak = traced_peak(check_decomposable, state)
    assert rep.decomposable
    assert peak <= 2.25 * state.amplitudes.nbytes


def test_large_reject_and_site_two_cut_hold_one_copy_at_most():
    # the cut (1, 3), site 2's, sums its Gram over slabs (2.05 times the
    # state's bytes with a transposed and a conjugated copy), and a Haar
    # (32,32,32) reject holds at most the one conjugated copy of a prefix cut
    state = haar_random_state((32, 32, 32), 1)
    rep, peak = traced_peak(check_decomposable, state)
    assert rep.stage == "SpectraUnequal"
    assert peak <= 1.1 * state.amplitudes.nbytes
    assert_deciding_cut(state, witness_table(rep))
    vals, peak = traced_peak(spectra, state, (1, 3))
    assert np.max(np.abs(vals - svd_spectrum(state.amplitudes, state.dims, (1, 3)))) <= 1e-14
    assert peak <= 1.1 * state.amplitudes.nbytes


def test_haar_reject_report_holds_two_spectra():
    # a Haar (2,)x14 reject's witness is site 1's spectrum and (1, 2)'s,
    # six floats: the report retained 2.5 times the state's bytes (3.1 at
    # the peak) while it held every computed cut and its complement,
    # padded with zeros to its dimension
    state = haar_random_state((2,) * 14, 1)
    check_decomposable(state)  # warm every lazy cache
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    try:
        rep = check_decomposable(state)
        retained, peak = (mem - start for mem in tracemalloc.get_traced_memory())
    finally:
        if not tracing:
            tracemalloc.stop()
    assert rep.stage == "SpectraUnequal" and list(rep.witness["spectra"]) == ["1", "1,2"]
    assert retained <= 0.1 * state.amplitudes.nbytes
    assert peak <= 1.3 * state.amplitudes.nbytes


def test_no_pair_reject_holds_nothing_for_the_cyclic_gc(monkeypatch):
    # a reject after eight misses leaves no cycle that keeps
    # check_decomposable's frame and its cuts until the cyclic GC runs, as
    # a no-pair error bound to a local of the pair search once did (frame,
    # error, traceback, frame): 0.26 times a W_14 state's bytes.  W_3 and
    # |0> on 14 qubits agrees with site 1 on every cut (1, k), finds no
    # pair in eight attempts and rejects at W_3's stage, its rows of S
    state = w3_padded(14)
    attempts = count_pair_attempts(monkeypatch)
    check_decomposable(state)  # warm every lazy cache
    enabled, tracing = gc.isenabled(), tracemalloc.is_tracing()
    gc.disable()
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    try:
        rep = check_decomposable(state)
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        if not tracing:
            tracemalloc.stop()
        if enabled:
            gc.enable()
    assert attempts == 2 * list(range(8)) and rep.stage == "SNotScaledUnitary"
    assert list(rep.witness) == ["ss_dagger"]
    assert retained <= 0.02 * state.amplitudes.nbytes


def test_pair_search_frees_each_failed_rotation(monkeypatch):
    # a 1<->3-symmetric Haar state fails all eight pair attempts; each
    # rotates a slab of slices at a time and keeps no rotated slab once one
    # misses, so the search holds no full-size array (4.15 times the
    # state's bytes while a failed attempt's whole rotated stack stayed
    # until the next; 3.15 times while the no-pair branch still rotated
    # the whole product family before the explain pass).  The decision
    # makes one attempt and rejects at (1, 3)
    state = swap_symmetric_state((32, 32, 32), 2, site=3)

    def search(stack):
        # what the decision does when every attempt misses
        misses = every_attempt_misses(stack)
        return min(multipartite._missed_residual(stack, *miss) for miss in misses)

    _, peak = traced_peak(search, _slice_tensor(state))
    assert peak <= 1.1 * state.amplitudes.nbytes
    attempts = count_pair_attempts(monkeypatch)
    rep, peak = traced_peak(check_decomposable, state)
    assert attempts == [0, 0] and rep.stage == "SpectraUnequal"
    assert peak <= 3.25 * state.amplitudes.nbytes


def test_symmetric_reject_peaks_at_the_pair_search(monkeypatch):
    # this 1<->3-symmetric state is rejected at (1, 3) before S is read,
    # so its peak is a cut's or the pair search's rotation, as for the
    # (32,32,32) accept (3.15 times the state's bytes while S was read first)
    state = swap_symmetric_state((32, 32, 32), 2, site=3)
    attempts = count_pair_attempts(monkeypatch)
    rep, peak = traced_peak(check_decomposable, state)
    assert attempts == [0, 0] and rep.stage == "SpectraUnequal"
    assert peak <= 2.25 * state.amplitudes.nbytes


def test_nan_rebuild_fails_the_gate(monkeypatch):
    # a rebuild holding a NaN is no accept: the gate's test is
    # "not resid <= RECONSTRUCT_TOL", and the explain pass, whose
    # necessary conditions all pass, reports the gate's stage
    def nan_rebuild(candidate):
        return np.full(int(np.prod(candidate.dims)), np.nan, complex)

    monkeypatch.setattr(multipartite, "_rebuild", nan_rebuild)
    rep = check_decomposable(random_decomposable_state((3, 3, 3), 2, seed=1))
    assert not rep.decomposable and rep.decomposition is None
    assert rep.stage == "SlicesNotSimultaneouslyDiagonalizable"
    assert np.isnan(rep.witness["reconstruction"])
