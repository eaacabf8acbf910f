"""The decision's order: the pair search's attempt 0 first, then spectra.

An accept whose pair the fast path or attempt 0 finds computes no
reduced spectrum.  Once attempt 0 misses, the cuts (1, 2) to (1, n) are
compared with site 1, and the first that differs rejects only when its
l1 gap exceeds 8 sqrt(D) RECONSTRUCT_TOL, where no candidate can pass the
rebuild gate.  Each such reject here is checked against that bound with
an independent spectrum, and against the best rank-min(dims) fit that
alternating polar sweeps find.
"""

import numpy as np
import pytest

import schmidtkit.multipartite as multipartite
from schmidtkit import check_decomposable, haar_random_state, tolerances, w_state

from spectra_oracle import svd_spectrum
from state_corpus import (BASELINE_SHAPES, CORPUS, SYMMETRIC_SHAPES, shape_name,
                          swap_symmetric_state, w_qubits)
from test_stage_corpus import PINNED

CERTIFIED = {
    **{f"w-{n}": (lambda k=n: w_qubits(k)) for n in range(4, 13)},
    **{f"haar-{shape_name(dims)}": (lambda d=dims: haar_random_state(d, seed=2))
       for dims in BASELINE_SHAPES},
    **{f"swap1{site}-{shape_name(dims)}":
       (lambda d=dims, s=site: swap_symmetric_state(d, 11, site=s))
       for site in (2, 3) for dims in SYMMETRIC_SHAPES},
}


def record_decision(monkeypatch):
    """What check_decomposable asks: attempt numbers, cuts computed, certificates given."""
    seen = {"attempts": [], "cuts": [], "certified": []}
    attempt, spectra, certify = (multipartite._pair_attempt, multipartite.spectra,
                                 multipartite._no_candidate_passes)

    def attempting(stack, k):
        seen["attempts"].append(k)
        return attempt(stack, k)

    def computing(state, keep):
        seen["cuts"].append(tuple(keep))
        return spectra(state, keep)

    def certifying(state, cuts):
        seen["certified"].append(certify(state, cuts))
        return seen["certified"][-1]

    monkeypatch.setattr(multipartite, "_pair_attempt", attempting)
    monkeypatch.setattr(multipartite, "spectra", computing)
    monkeypatch.setattr(multipartite, "_no_candidate_passes", certifying)
    return seen


def l1_gap(first, second):
    """The l1 distance of two descending spectra, the shorter padded with zeros."""
    size = max(first.size, second.size)
    return float(np.abs(np.pad(first, (0, size - first.size))
                        - np.pad(second, (0, size - second.size))).sum())


def contracted(psi, families, k):
    """Row l: psi contracted with conj(families[j][l]) on every site j != k."""
    x = np.moveaxis(psi, k, -1)
    others = [fam for j, fam in enumerate(families) if j != k]
    x = others[0].conj() @ x.reshape(x.shape[0], -1)
    for fam in others[1:]:
        x = np.einsum("lb,lbz->lz", fam.conj(), x.reshape(len(x), fam.shape[1], -1))
    return x


def polar_fit_residual(state, sweeps=30):
    """The smallest gate residual of a rank-min(dims) joint Schmidt fit.

    Starts from each site's leading min(dims) left singular vectors (the
    truncated HOSVD); a sweep replaces each site's family by the polar
    factor of W_k, whose column l is psi contracted with the conjugates
    of vector l on every other site.  After each sweep the fit,
    sum_l g_l u_l1 x ... x u_ln with g_l = <u_l1 ... u_ln | psi>, is
    normalised as the gate normalises a rebuild and compared with psi
    entry by entry; the smallest residual over the sweeps is returned.
    """
    psi, dims, rank = state.tensor(), state.dims, min(state.dims)
    families = [np.linalg.svd(np.moveaxis(psi, k, 0).reshape(d, -1),
                              full_matrices=False)[0][:, :rank].T for k, d in enumerate(dims)]
    best = np.inf
    for _ in range(sweeps):
        for k in range(len(dims)):
            u, _, vh = np.linalg.svd(contracted(psi, families, k).T, full_matrices=False)
            families[k] = (u @ vh).T
        g = np.einsum("ld,ld->l", families[-1].conj(), contracted(psi, families, len(dims) - 1))
        head = g[:, None] * families[0]
        for fam in families[1:-1]:
            head = (head[:, :, None] * fam[:, None, :]).reshape(rank, -1)
        rebuilt = (head.T @ families[-1]).reshape(-1)
        rebuilt /= np.linalg.norm(rebuilt)
        best = min(best, float(np.abs(rebuilt - state.amplitudes).max()))
    return best


@pytest.mark.parametrize("name", list(CERTIFIED))
def test_certified_reject_beats_the_bound_and_every_fit(name, monkeypatch):
    # W_n, Haar and 1<->2- or 1<->3-symmetric states: attempt 0 misses,
    # a cut (1, k) certifies, and the report is the walk's at that cut
    state = CERTIFIED[name]()
    seen = record_decision(monkeypatch)
    rep = check_decomposable(state)
    assert seen["attempts"] == [0] and seen["certified"] == [True]
    assert rep.stage == "SpectraUnequal" and rep.residuals == {}
    site1, cut = (tuple(map(int, key.split(","))) for key in rep.witness["spectra"])
    assert len(cut) == 2 and seen["cuts"] == [(1,), *((1, k) for k in range(2, cut[1] + 1))]
    # the gap, from an independent spectrum, beats the bound; the bound
    # is what a candidate within the gate could leave, so no fit passes
    amps, dims = state.amplitudes, state.dims
    gap = l1_gap(svd_spectrum(amps, dims, site1), svd_spectrum(amps, dims, cut))
    assert gap > 8 * np.sqrt(state.total_dim) * tolerances.RECONSTRUCT_TOL
    assert polar_fit_residual(state) > tolerances.RECONSTRUCT_TOL


def test_polar_fit_rebuilds_a_decomposable_state():
    # the fit the certificate is checked against finds a form that exists
    for name in ("decomposable-3^3-r3", "tie-8^3-r8", "tiny-4^4", "rotated-ghz-6"):
        assert polar_fit_residual(CORPUS[name]()) <= 1e-12, name


@pytest.mark.parametrize("name", [name for name, pin in PINNED.items() if pin[0]])
def test_an_accept_computes_no_spectrum(name, monkeypatch):
    # every corpus accept finds its pair by the fast path or attempt 0
    state = CORPUS[name]()
    seen = record_decision(monkeypatch)
    assert check_decomposable(state).decomposable
    assert seen["cuts"] == [] and seen["certified"] == []
    assert seen["attempts"] in ([], [0])


def test_w3_still_makes_eight_attempts(monkeypatch):
    # W_3's cuts all agree with site 1, so no cut certifies; the report's
    # max_off_diagonal is still the best of the eight attempts (attempt 6)
    seen = record_decision(monkeypatch)
    rep = check_decomposable(w_state())
    assert seen["attempts"] == list(range(8)) and seen["certified"] == [False]
    assert seen["cuts"] == [(1,), (1, 2), (1, 3)]
    assert rep.stage == "SNotScaledUnitary"
    assert rep.residuals["max_off_diagonal"] == 0.2828028788442887
