"""Decomposability of pure states on three or more subsystems.

A state is called decomposable when it admits a joint Schmidt form
sum_l c_l |l_1>|l_2>...|l_n> with one orthonormal family per subsystem.
Unlike the bipartite case this is a real property: the W state has no
such form while GHZ states do.

The decision runs one code path for every n >= 3.  The n single-site
spectra must agree.  The amplitude tensor is sliced into one stack of
matrices A_c (rows = subsystem 1, columns = subsystem 2, one slice per
grouped index c of subsystems 3..n); the search for a unitary pair
(P, Q) making every P+ A_c Q+ diagonal hands over the diagonals it
checked, the coefficient matrix S.  One Gram matrix S S+ decides that
the rows of S are orthogonal and gives their norms, the coefficients;
each normalised row, a tail vector, must factor into one vector per
tail subsystem.  The candidate is accepted only if it rebuilds the
input within RECONSTRUCT_TOL, which also settles the orthonormality of
the tail families: the accept is its own proof.  A reject is explained
by the earlier necessary conditions, run only then: the spectra table,
walked by cut size and stopped at the first cut that fails (so for
n >= 4 its witness is a partial table), and the commutation of the
positive products C_c = A_c A_c+ (and A_c+ A_c), tested in the
eigenbasis P of one combination of them; with no pair,
S[l][c] = sqrt((P+ C_c P)_ll) is read there (W's rows overlap).  A
reject whose spectra all agree still computes every cut.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import prod

import numpy as np

from . import tolerances
from .errors import (
    CoefficientsMismatch,
    DifferentStates,
    DimensionMismatch,
    NoPairFound,
    NotDecomposable,
    RankTooLarge,
    TooFewSubsystems,
)
from .linalg import _split_blocks, gram_residual, phase_fix, polar
from .state import SchmidtDecomposition, StateTensor, reconstruct
from .bipartite import spectra

__all__ = [
    "SliceSet",
    "DiagonalizationPair",
    "DecomposabilityReport",
    "slice_tensor",
    "positive_products_commute",
    "find_diagonalizing_pair",
    "scaled_unitary_check",
    "equal_spectra_check",
    "check_decomposable",
    "random_decomposition",
    "random_decomposable_state",
    "local_unitary_link",
    "apply_local_unitaries",
]

MAX_PAIR_ATTEMPTS = 8

STAGE_SPECTRA = "SpectraUnequal"
STAGE_DIAG = "SlicesNotSimultaneouslyDiagonalizable"
STAGE_SCALED = "SNotScaledUnitary"
STAGE_TAIL = "TailNotProduct"


@dataclass(frozen=True)
class SliceSet:
    """The amplitude tensor viewed as a stack of matrices.

    matrices is a (C, d1, d2) array: matrices[c][i][j] is the amplitude
    at (i, j, c), with rows following subsystem 1, columns subsystem 2,
    and the slice index c running row-major over subsystems 3..n, whose
    dimensions are recorded in tail_dims.
    """

    matrices: np.ndarray
    dims: tuple[int, ...]
    tail_dims: tuple[int, ...]

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.ndim != 3 or len(mats) != prod(self.tail_dims):
            raise DimensionMismatch(
                f"slice stack of shape {mats.shape} does not match "
                f"tail dims {self.tail_dims}")
        total = float(np.vdot(mats, mats).real)
        if abs(total - 1.0) > tolerances.SLICE_NORM_TOL:
            raise DimensionMismatch(
                f"slice norms sum to {total!r}, expected 1 for a normalized state")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "tail_dims", tuple(int(d) for d in self.tail_dims))


@dataclass(frozen=True)
class DiagonalizationPair:
    """Unitaries (P, Q) with every P+ A_c Q+ diagonal; S[l][c] = (P+ A_c Q+)_ll."""

    p: np.ndarray
    q: np.ndarray
    s: np.ndarray


@dataclass(frozen=True)
class DecomposabilityReport:
    """Outcome of check_decomposable.

    stage is None on accept, otherwise the first pipeline stage that
    failed; witness carries the offending quantity (a matrix or scalar)
    and residuals collects the numeric slack observed along the way.
    """

    decomposable: bool
    stage: str | None
    witness: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    decomposition: SchmidtDecomposition | None = None
    tolerances_used: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "Decomposable" if self.decomposable else "NotDecomposable"


def slice_tensor(state: StateTensor) -> SliceSet:
    """Slice a state on >= 3 subsystems into its matrix stack.

    Rows follow subsystem 1, columns subsystem 2, and the slice index
    runs over the grouped tail 3..n.  The stack is a view of the
    amplitudes; no slice is copied.
    """
    n = state.subsystem_count
    if n < 3:
        raise TooFewSubsystems(f"slicing needs >= 3 subsystems, got {n}")
    d1, d2 = state.dims[:2]
    stack = state.amplitudes.reshape(d1, d2, -1).transpose(2, 0, 1)
    return SliceSet(stack, state.dims, state.dims[2:])


def positive_products_commute(slices: SliceSet) -> tuple[bool, float]:
    """Do {A_c A_c+} and {A_c+ A_c} each commute?  A necessary condition.

    Each family is rotated into the eigenbasis of one fixed pseudo-random
    positive combination of its members: if they commute, that is a
    common eigenbasis, with gaps as wide as the members' even where
    their sum's eigenvalues nearly meet.  Returns the verdict, which
    passes when the largest off-diagonal magnitude of the rotated stacks
    is at most DIAG_TOL, and that magnitude (the witness).
    """
    worst = _commute_residual(slices)
    return worst <= tolerances.DIAG_TOL, worst


def _commute_residual(slices: SliceSet, rotated: np.ndarray | None = None) -> float:
    """positive_products_commute's witness; rotated, if given, is {A_c A_c+} rotated."""
    stack = slices.matrices
    adjoint = stack.conj().transpose(0, 2, 1)
    # unnamed, so one rotated family is freed before the next is made
    worst = _off_diagonal_residual(
        _rotate_to_combination(stack @ adjoint) if rotated is None else rotated)
    return max(worst, _off_diagonal_residual(_rotate_to_combination(adjoint @ stack)))


def _rotate_to_combination(family: np.ndarray) -> np.ndarray:
    """The family rotated into the eigenbasis of its _commute_weights combination."""
    weights = _commute_weights(len(family))
    combined = (weights @ family.reshape(len(family), -1)).reshape(family.shape[1:])
    basis = np.linalg.eigh(combined)[1]
    return basis.conj().T @ family @ basis


@functools.lru_cache(maxsize=None)
def _commute_weights(count: int) -> np.ndarray:
    """positive_products_commute's weights: default_rng(0), uniform in [1, 2]."""
    return np.random.default_rng(0).uniform(1.0, 2.0, count)


def find_diagonalizing_pair(slices: SliceSet, seed: int = 0) -> DiagonalizationPair:
    """Search for unitaries (P, Q) with every P+ A_c Q+ diagonal within DIAG_TOL.

    The pair carries S, the diagonals it checked.  Fast path: slices
    already diagonal give the identity pair (GHZ-type states).  Otherwise
    a random complex combination B = sum_c r_c A_c is decomposed by SVD;
    for a decomposable state with generically distinct combined singular
    values its singular bases diagonalize every slice.  Degenerate
    singular values are refined block by block with a second
    combination.  Up to MAX_PAIR_ATTEMPTS seeded retries; raises
    NoPairFound (with the best residual seen) when all fail.
    """
    _, d1, d2 = slices.matrices.shape
    if _off_diagonal_residual(slices.matrices) <= tolerances.DIAG_TOL:
        return DiagonalizationPair(np.eye(d1, dtype=complex), np.eye(d2, dtype=complex),
                                   _diagonals(slices.matrices))
    best = np.inf
    for attempt in range(MAX_PAIR_ATTEMPTS):
        rng = np.random.default_rng((int(seed), attempt))
        p, q = _pair_attempt(slices, rng)
        rotated = p.conj().T @ slices.matrices @ q.conj().T
        resid = _off_diagonal_residual(rotated)
        if resid <= tolerances.DIAG_TOL:
            return DiagonalizationPair(p, q, _diagonals(rotated))
        best = min(best, resid)
    err = NoPairFound(
        f"no diagonalizing pair after {MAX_PAIR_ATTEMPTS} attempts "
        f"(best off-diagonal residual {best:.3e})")
    err.residual = best
    raise err


def _random_combination(slices: SliceSet, rng: np.random.Generator) -> np.ndarray:
    count = len(slices.matrices)
    coeffs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return np.tensordot(coeffs, slices.matrices, axes=1)


def _pair_attempt(
    slices: SliceSet, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    u, sing, vh = np.linalg.svd(_random_combination(slices, rng), full_matrices=True)
    scale = sing[0] if sing.size and sing[0] > 0 else 1.0
    blocks = [
        b for b in _split_blocks(sing, tolerances.PAIR_GAP_TOL * scale)
        if len(b) > 1 and sing[b[0]] > tolerances.RANK_TOL * scale
    ]
    if blocks:
        # a second combination splits subspaces the first one left mixed
        second = _random_combination(slices, rng)
        for block in blocks:
            sub = u[:, block].conj().T @ second @ vh[block, :].conj().T
            u2, _, vh2 = np.linalg.svd(sub)
            u[:, block] = u[:, block] @ u2
            vh[block, :] = vh2 @ vh[block, :]
    return u, vh


def _off_diagonal_residual(matrices: np.ndarray) -> float:
    """Largest off-diagonal magnitude of a matrix or a stack of matrices."""
    mask = ~np.eye(*matrices.shape[-2:], dtype=bool)
    return float(np.abs(matrices[..., mask]).max(initial=0.0))


def _diagonals(stack: np.ndarray) -> np.ndarray:
    return np.diagonal(stack, axis1=1, axis2=2).T.copy()


def scaled_unitary_check(s: np.ndarray) -> tuple[bool, np.ndarray, float]:
    """Is S a scaled unitary, i.e. are its nonzero rows orthogonal?

    Checks that the Gram matrix S S+ is diagonal within DIAG_TOL relative
    to its largest diagonal entry; zero rows are permitted.  Returns the
    verdict, S S+ and its largest off-diagonal magnitude.
    """
    gram = s @ s.conj().T
    worst = _off_diagonal_residual(gram)
    scale = np.real(np.diagonal(gram)).max(initial=0.0)
    return bool(scale > 0.0 and worst <= tolerances.DIAG_TOL * scale), gram, worst


def equal_spectra_check(
    state: StateTensor, *, cuts: dict | None = None
) -> tuple[bool, dict[tuple[int, ...], np.ndarray]]:
    """Necessary condition: all reduced spectra agree after dropping zeros.

    The table maps nonempty proper subsets of subsystems to their
    reduced spectra (descending).  Only the subsets containing
    subsystem 1 are computed, one small Gram eigensolve each, unless
    cuts (a dict of such spectra) holds them; a complement's entry is
    the same values padded or cut to its dimension.  The verdict
    compares the nonzero parts (above SPECTRA_TOL) of the subsets
    containing subsystem 1, walked by size, against subset (1,).

    Without cuts the table holds every subset.  Passing cuts, as
    check_decomposable's explain pass does, stops the walk at the first
    subset that fails: the table then holds only the cuts in cuts by
    then (those taken before the call count) and their complements, in
    the same key order.  Either way the verdict is the same.
    """
    stop_early = cuts is not None
    cuts = {} if cuts is None else cuts
    everyone = range(1, state.subsystem_count + 1)
    reference = _cut(state, cuts, (1,))
    ok = True
    for rest in itertools.chain.from_iterable(
            itertools.combinations(everyone[1:], size) for size in range(1, len(everyone) - 1)):
        if not _same_nonzero(reference, _cut(state, cuts, (1, *rest)),
                             tolerances.SPECTRA_TOL):
            ok = False
            if stop_early:
                break
    table: dict[tuple[int, ...], np.ndarray] = {}
    for size in range(1, len(everyone)):
        for subset in itertools.combinations(everyone, size):
            if subset[0] == 1:
                if subset in cuts:
                    table[subset] = cuts[subset]
                continue
            spec = cuts.get(tuple(i for i in everyone if i not in subset))
            if spec is not None:
                table[subset] = np.zeros(prod(state.dims[i - 1] for i in subset))
                table[subset][:spec.size] = spec[:table[subset].size]
    return ok, table


def _cut(state: StateTensor, cuts: dict, subset: tuple[int, ...]) -> np.ndarray:
    """The reduced spectrum of subset, computed once and kept in cuts."""
    if subset not in cuts:
        cuts[subset] = spectra(state, subset)
    return cuts[subset]


def _same_nonzero(first: np.ndarray, spec: np.ndarray, tol: float) -> bool:
    """Do two spectra agree within tol on their entries above tol?"""
    reference, nonzero = first[first > tol], spec[spec > tol]
    return nonzero.size == reference.size and \
        float(np.abs(nonzero - reference).max(initial=0.0)) <= tol


def _positive_product_s(rotated: np.ndarray) -> np.ndarray:
    """S[l][c] = sqrt((P+ C_c P)_ll), from the C_c = A_c A_c+ rotated by P."""
    return np.sqrt(np.real(np.diagonal(rotated, axis1=1, axis2=2)).clip(0.0)).T


def check_decomposable(state: StateTensor, seed: int = 0) -> DecomposabilityReport:
    """Decide whether a state on >= 3 subsystems has a joint Schmidt form.

    Decision path: the n single-site spectra agree (stopping at the
    first mismatch), pair search, S-matrix scaled unitarity, tail
    factorization (none for three subsystems), and a rebuild of the
    input from the candidate, which accepts within RECONSTRUCT_TOL.
    Every reject then runs the explain pass: the equal-spectra walk
    (from the cuts already taken, in size order, stopping at the first
    failing cut), then the commutation test; the first that fails is the
    stage reported, else the decision's stage.  For n >= 4 a
    SpectraUnequal witness is therefore a partial table: the cuts
    computed by then and their complements.  For n = 3 the decision has
    taken every cut containing subsystem 1, so the table is whole.
    """
    used = {"rank_tol": tolerances.RANK_TOL, "diag_tol": tolerances.DIAG_TOL,
            "orth_tol": tolerances.ORTH_TOL, "seed": int(seed)}
    n = state.subsystem_count
    if n < 3:
        raise TooFewSubsystems(f"need >= 3 subsystems, got {n}")

    residuals: dict[str, float] = {}
    cuts: dict[tuple[int, ...], np.ndarray] = {}

    def reject(stage: str, witness: dict,
               rotated: np.ndarray | None = None) -> DecomposabilityReport:
        ok, table = equal_spectra_check(state, cuts=cuts)
        if not ok:
            return DecomposabilityReport(False, STAGE_SPECTRA, {"spectra": {
                ",".join(map(str, s)): t.tolist() for s, t in table.items()}},
                tolerances_used=used)
        comm_resid = _commute_residual(slices, rotated)
        found = {"max_commutator": comm_resid}
        if not comm_resid <= tolerances.DIAG_TOL:  # a NaN residual fails too
            return DecomposabilityReport(False, STAGE_DIAG, dict(found), found,
                                         tolerances_used=used)
        return DecomposabilityReport(False, stage, witness, {**found, **residuals},
                                     tolerances_used=used)

    # site k's spectrum is that of the cut of all other sites; the table reuses it
    sites = [tuple(i for i in range(1, n + 1) if i != k) for k in range(2, n + 1)]
    if not all(_same_nonzero(_cut(state, cuts, (1,)), _cut(state, cuts, site),
                             tolerances.SPECTRA_TOL) for site in sites):
        return reject(STAGE_SPECTRA, {})  # the table fails too, before slices exist
    slices = slice_tensor(state)

    try:
        pair = find_diagonalizing_pair(slices, seed)
    except NoPairFound as err:
        residuals["max_off_diagonal"] = err.residual
        stack = slices.matrices
        rotated = _rotate_to_combination(stack @ stack.conj().transpose(0, 2, 1))
        ok, gram, _ = scaled_unitary_check(_positive_product_s(rotated))
        if not ok:
            return reject(STAGE_SCALED, {"ss_dagger": gram}, rotated)
        return reject(STAGE_DIAG, {"max_off_diagonal": err.residual}, rotated)

    ok, gram, residuals["max_ss_off_diagonal"] = scaled_unitary_check(pair.s)
    if not ok:
        return reject(STAGE_SCALED, {"ss_dagger": gram})

    candidate = _assemble(state, slices, pair, gram, residuals)
    if isinstance(candidate, tuple):
        return reject(*candidate)
    resid = float(np.abs(reconstruct(candidate).amplitudes - state.amplitudes).max())
    residuals["reconstruction"] = resid
    if resid > tolerances.RECONSTRUCT_TOL:
        # the discarded off-diagonal mass was too large to represent the
        # state after all; report it at the diagonalization stage
        return reject(STAGE_DIAG, {"reconstruction": resid})
    found = {"max_commutator": positive_products_commute(slices)[1]}
    return DecomposabilityReport(True, None, {}, {**found, **residuals}, candidate, used)


def _assemble(
    state: StateTensor,
    slices: SliceSet,
    pair: DiagonalizationPair,
    gram: np.ndarray,
    residuals: dict,
):
    """Turn a scaled-unitary S = pair.s with Gram matrix gram into a candidate.

    The row norms of S (from the Gram diagonal) above RANK_TOL, at most
    min(dims) of them and largest first, give the coefficients; the
    normalised rows are the tail vectors.  Each is split into one factor
    per tail subsystem by a rank-one SVD at every tail cut (none for
    three subsystems); a relative second singular value above DIAG_TOL
    means the tail vector is not a product.  A tail family further than
    ORTH_TOL from orthonormal is replaced by the polar factor of its
    coefficient-weighted rows, so a vector with a tiny coefficient takes
    the correction.  The caller's rebuild decides whether dropped rows
    and corrected families still represent the state.  Returns the
    decomposition, or (stage, witness) when a tail vector is no product.
    """
    norms = np.sqrt(np.real(np.diagonal(gram)).clip(0.0))
    keep = np.flatnonzero(norms > tolerances.RANK_TOL * norms.max())
    order = keep[np.argsort(norms[keep])[::-1]][:min(state.dims)]
    coeffs = norms[order] / np.linalg.norm(norms[order])

    first = pair.p[:, order].T.copy()
    second = pair.q[order, :].copy()
    chis = pair.s[order, :] / norms[order, None]
    tails = [np.empty((coeffs.size, d), dtype=complex) for d in slices.tail_dims]
    for l in range(coeffs.size):
        first[l], ph1 = phase_fix(first[l])
        second[l], ph2 = phase_fix(second[l])
        remainder = chis[l] * (ph1 * ph2)
        for k, d in enumerate(slices.tail_dims[:-1]):
            u, sing, vh = np.linalg.svd(remainder.reshape(d, -1),
                                        full_matrices=False)
            ratio = float(sing[1] / sing[0]) if sing.size > 1 else 0.0
            residuals["tail_product_ratio"] = max(
                residuals.get("tail_product_ratio", 0.0), ratio)
            if ratio > tolerances.DIAG_TOL:
                return STAGE_TAIL, {"tail_index": l, "second_singular_ratio": ratio}
            tails[k][l], ph = phase_fix(u[:, 0])
            remainder = vh[0, :] * ph
        tails[-1][l] = remainder

    resids = [gram_residual(t) for t in tails]
    residuals["tail_orthonormality"] = max(resids)
    for k, tail in enumerate(tails):
        if resids[k] > tolerances.ORTH_TOL:
            tails[k] = polar(coeffs[:, None] * tail)
    return SchmidtDecomposition(state.dims, coeffs, (first, second, *tails))


def random_decomposition(dims, rank: int, seed: int = 0) -> SchmidtDecomposition:
    """A random joint Schmidt form: simplex coefficients, QR families."""
    dims = tuple(int(d) for d in dims)
    if rank < 1 or rank > min(dims):
        raise RankTooLarge(f"rank {rank} not in 1..{min(dims)} for dims {dims}")
    rng = np.random.default_rng(seed)
    coeffs = np.sort(np.sqrt(rng.dirichlet(np.ones(rank))))[::-1]
    families = []
    for d in dims:
        z = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
        q, _ = np.linalg.qr(z)
        families.append(q.T.copy())
    return SchmidtDecomposition(dims, coeffs / np.linalg.norm(coeffs),
                                tuple(families))


def random_decomposable_state(dims, rank: int, seed: int = 0) -> StateTensor:
    """A seeded random state that is decomposable by construction."""
    return reconstruct(random_decomposition(dims, rank, seed))


def apply_local_unitaries(state: StateTensor, unitaries) -> StateTensor:
    """Apply one unitary per subsystem: |psi> -> (U_1 x ... x U_n)|psi>."""
    if len(unitaries) != state.subsystem_count:
        raise DimensionMismatch(
            f"need {state.subsystem_count} unitaries, got {len(unitaries)}")
    tensor = state.tensor()
    for k, u in enumerate(unitaries):
        u = np.asarray(u, dtype=complex)
        if u.shape != (state.dims[k], state.dims[k]):
            raise DimensionMismatch(
                f"unitary {k + 1} has shape {u.shape}, expected "
                f"({state.dims[k]}, {state.dims[k]})")
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [k])), 0, k)
    flat = tensor.reshape(-1)
    return StateTensor(state.dims, flat / np.linalg.norm(flat), state.label)


def local_unitary_link(
    target: StateTensor,
    source: StateTensor,
    seed: int = 0,
) -> list[np.ndarray]:
    """Unitaries U_k with (U_1 x ... x U_n)|source> = |target>.

    Both states must be decomposable with matching Schmidt coefficient
    multisets; the link maps the source's l-th Schmidt vector onto the
    target's for every subsystem, which reproduces the target exactly
    because the pairing is shared across subsystems (ties included).
    Each U_k is the polar factor of sum_l t_l s_l+; coefficients and the
    rebuilt target must agree within LINK_TOL.
    """
    if target.dims != source.dims:
        raise DimensionMismatch(
            f"states live on different dims {target.dims} vs {source.dims}")
    rep_t = check_decomposable(target, seed)
    rep_s = check_decomposable(source, seed)
    for name, rep in (("target", rep_t), ("source", rep_s)):
        if not rep.decomposable:
            raise NotDecomposable(f"{name} state is not decomposable "
                                  f"(stage {rep.stage})")
    ct = rep_t.decomposition.coefficients
    cs = rep_s.decomposition.coefficients
    if ct.size != cs.size or float(np.abs(ct - cs).max()) > tolerances.LINK_TOL:
        raise CoefficientsMismatch(
            f"coefficients differ: {ct.tolist()} vs {cs.tolist()}")
    unitaries = [polar(ft.T @ fs.conj()) for ft, fs in
                 zip(rep_t.decomposition.vectors, rep_s.decomposition.vectors)]
    mapped = apply_local_unitaries(source, unitaries)
    overlap = np.vdot(target.amplitudes, mapped.amplitudes)
    aligned = mapped.amplitudes * np.conj(overlap) / max(abs(overlap), 1e-300)
    resid = float(np.abs(aligned - target.amplitudes).max())
    if resid > tolerances.LINK_TOL:
        raise DifferentStates(f"link verification failed (residual {resid:.3e})")
    return unitaries
