"""Decomposability of pure states on three or more subsystems.

A state is called decomposable when it admits a joint Schmidt form
sum_l c_l |l_1>|l_2>...|l_n> with one orthonormal family per subsystem.
Unlike the bipartite case this is a real property: the W state has no
such form while GHZ states do.

The decision pipeline runs one code path for every n >= 3.  It slices
the amplitude tensor into one stack of matrices A_c (rows = subsystem
1, columns = subsystem 2, one slice per grouped index c of subsystems
3..n), looks for a unitary pair (P, Q) making every P+ A_c Q+
diagonal, collects the diagonals into the coefficient matrix S, and
requires S S+ to be diagonal (rows of S orthogonal).  The normalised
rows of S are the tail vectors; each must factor into one vector per
tail subsystem (for n = 3 it already is that vector).  Candidate
decompositions are only accepted after rebuilding the input within
RECONSTRUCT_TOL, so the accept path is sound by construction; that
rebuild, not a separate threshold, also settles whether the tail
families are orthonormal enough.

When no diagonalizing pair exists the rejection report still carries an
S-matrix diagnostic built from the commuting positive products
C_c = A_c A_c+: with P the common eigenbasis of the C_c (ascending in
their sum), S[l][c] = sqrt((P+ C_c P)_ll).  For a decomposable state
this reproduces the coefficient magnitudes, and for states like W it
pinpoints the scaled-unitarity failure quantitatively.
"""

from __future__ import annotations

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
    SlicesNotDiagonal,
    TooFewSubsystems,
)
from .linalg import (_split_blocks, common_hermitian_eigenbasis,
                     complete_orthonormal, gram_residual, phase_fix)
from .state import SchmidtDecomposition, StateTensor, reconstruct
from .bipartite import spectra

__all__ = [
    "SliceSet",
    "DiagonalizationPair",
    "DecomposabilityReport",
    "slice_tensor",
    "positive_products_commute",
    "find_diagonalizing_pair",
    "build_s_matrix",
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
        total = float(np.sum(np.abs(mats) ** 2))
        if abs(total - 1.0) > 1e-8:
            raise DimensionMismatch(
                f"slice norms sum to {total!r}, expected 1 for a normalized state")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "tail_dims", tuple(int(d) for d in self.tail_dims))

    @property
    def row_dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def col_dim(self) -> int:
        return self.matrices.shape[2]


@dataclass(frozen=True)
class DiagonalizationPair:
    """Unitaries (P, Q) intended to make every P+ A_c Q+ diagonal."""

    p: np.ndarray
    q: np.ndarray


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
    stack = np.moveaxis(state.amplitudes.reshape(d1, d2, -1), 2, 0)
    return SliceSet(stack, state.dims, state.dims[2:])


def positive_products_commute(
    slices: SliceSet, tol: float | None = None
) -> tuple[bool, float]:
    """Do {A_c A_c+} and {A_c+ A_c} each commute pairwise?

    Returns the verdict and the largest commutator Frobenius norm seen
    (the witness).  Commutation of both families is necessary for a
    diagonalizing pair to exist.  Each family is one batched product of
    the slice stack; each of its matrices is then commuted with all
    later ones in one batched call, so the C x C array of all pairwise
    commutators is never formed.
    """
    tol = tolerances.DIAG_TOL if tol is None else tol
    stack = slices.matrices
    adjoint = stack.conj().transpose(0, 2, 1)
    worst = 0.0
    for family in (stack @ adjoint, adjoint @ stack):
        for i in range(len(family) - 1):
            a, rest = family[i], family[i + 1:]
            norms = np.linalg.norm(a @ rest - rest @ a, axis=(1, 2))
            worst = max(worst, float(norms.max()))
    return worst <= tol, worst


def find_diagonalizing_pair(
    slices: SliceSet,
    seed: int = 0,
    diag_tol: float | None = None,
) -> DiagonalizationPair:
    """Search for unitaries (P, Q) with every P+ A_c Q+ diagonal.

    Fast path: if all slices are already diagonal the identity pair is
    returned (this handles GHZ-type states exactly).  Otherwise a
    random complex combination B = sum_c r_c A_c is decomposed by SVD;
    for a decomposable state with generically distinct combined
    singular values its singular bases diagonalize every slice.
    Degenerate singular values are refined block by block with a second
    combination.  Up to MAX_PAIR_ATTEMPTS seeded retries; raises
    NoPairFound (with the best residual seen) when all fail.
    """
    diag_tol = tolerances.DIAG_TOL if diag_tol is None else diag_tol
    if _off_diagonal_residual(slices.matrices) <= diag_tol:
        return DiagonalizationPair(
            np.eye(slices.row_dim, dtype=complex),
            np.eye(slices.col_dim, dtype=complex))
    best = np.inf
    for attempt in range(MAX_PAIR_ATTEMPTS):
        rng = np.random.default_rng((int(seed), attempt))
        p, q = _pair_attempt(slices, rng)
        resid = _off_diagonal_residual(p.conj().T @ slices.matrices @ q.conj().T)
        if resid <= diag_tol:
            return DiagonalizationPair(p, q)
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


def build_s_matrix(
    slices: SliceSet,
    pair: DiagonalizationPair,
    diag_tol: float | None = None,
) -> np.ndarray:
    """Collect rotated slice diagonals into S[l][c] = (P+ A_c Q+)_ll.

    Every rotated slice must actually be diagonal within diag_tol;
    silently extracting diagonals from non-diagonal rotations would
    accept states that merely look decomposable, so this raises
    SlicesNotDiagonal instead.
    """
    diag_tol = tolerances.DIAG_TOL if diag_tol is None else diag_tol
    rotated = pair.p.conj().T @ slices.matrices @ pair.q.conj().T
    worst = _off_diagonal_residual(rotated)
    if worst > diag_tol:
        raise SlicesNotDiagonal(
            f"max off-diagonal magnitude {worst:.3e} exceeds {diag_tol}")
    return np.diagonal(rotated, axis1=1, axis2=2).T.copy()


def scaled_unitary_check(
    s: np.ndarray, tol: float | None = None
) -> tuple[bool, np.ndarray]:
    """Is S a scaled unitary, i.e. are its nonzero rows orthogonal?

    Checks that S S+ is diagonal within tol relative to its largest
    diagonal entry.  Zero rows are permitted and dropped; the returned
    coefficients are the row norms of the surviving rows, descending.
    """
    tol = tolerances.DIAG_TOL if tol is None else tol
    gram = s @ s.conj().T
    diag = np.real(np.diagonal(gram)).clip(0.0)
    scale = diag.max() if diag.size else 0.0
    if scale == 0.0:
        return False, np.array([])
    ok = _off_diagonal_residual(gram) <= tol * scale
    lams = np.sqrt(diag)
    lams = lams[lams > tolerances.RANK_TOL * lams.max()]
    return bool(ok), np.sort(lams)[::-1]


def equal_spectra_check(
    state: StateTensor, tol: float | None = None
) -> tuple[bool, dict[tuple[int, ...], np.ndarray]]:
    """Necessary condition: all reduced spectra agree after dropping zeros.

    The returned table maps every nonempty proper subset of subsystems
    to its reduced spectrum (descending).  Only the subsets containing
    subsystem 1 are computed, one SVD of the flattening each; a subset's
    complement has the same nonzero spectrum, so its entry is the same
    values padded or cut to the complement's dimension.  The verdict
    compares the nonzero parts (above tol, SPECTRA_TOL by default) of
    the subsets containing subsystem 1 against subset (1,).
    """
    tol = tolerances.SPECTRA_TOL if tol is None else tol
    n = state.subsystem_count
    subsets = [subset for size in range(1, n)
               for subset in itertools.combinations(range(1, n + 1), size)]
    computed = {subset: spectra(state, subset)
                for subset in subsets if subset[0] == 1}
    table: dict[tuple[int, ...], np.ndarray] = {}
    for subset in subsets:
        if subset in computed:
            table[subset] = computed[subset]
            continue
        spec = computed[tuple(i for i in range(1, n + 1) if i not in subset)]
        entry = np.zeros(prod(state.dims[i - 1] for i in subset))
        count = min(entry.size, spec.size)
        entry[:count] = spec[:count]
        table[subset] = entry
    first = computed[(1,)]
    reference = first[first > tol]
    ok = True
    for spec in computed.values():
        nonzero = spec[spec > tol]
        if nonzero.size != reference.size or \
                float(np.abs(nonzero - reference).max(initial=0.0)) > tol:
            ok = False
    return ok, table


def _positive_product_s(slices: SliceSet) -> np.ndarray:
    """Coefficient-magnitude diagnostic from the positive products.

    With P the common eigenbasis of the commuting C_c = A_c A_c+
    (ascending in their sum), entry (l, c) is sqrt((P+ C_c P)_ll).
    For a decomposable state this equals |S| of the true S-matrix; it
    is used for reject reports when no diagonalizing pair exists.
    """
    stack = slices.matrices
    products = stack @ stack.conj().transpose(0, 2, 1)
    basis = common_hermitian_eigenbasis(products)
    rotated = basis.conj().T @ products @ basis
    return np.sqrt(np.real(np.diagonal(rotated, axis1=1, axis2=2)).clip(0.0)).T


def check_decomposable(
    state: StateTensor,
    seed: int = 0,
    *,
    rank_tol: float | None = None,
    diag_tol: float | None = None,
) -> DecomposabilityReport:
    """Decide whether a state on >= 3 subsystems has a joint Schmidt form.

    Pipeline: equal-spectra necessary condition, slice, commuting
    positive products, diagonalizing pair search, S-matrix scaled
    unitarity, tail factorization (no tail cut for three subsystems),
    and a final rebuild of the input from the candidate decomposition,
    which also settles whether the tail families are orthonormal.  The
    verdict Decomposable therefore implies reconstruct(decomposition)
    matches the input within RECONSTRUCT_TOL.
    """
    rank_tol = tolerances.RANK_TOL if rank_tol is None else rank_tol
    diag_tol = tolerances.DIAG_TOL if diag_tol is None else diag_tol
    used = {"rank_tol": rank_tol, "diag_tol": diag_tol,
            "orth_tol": tolerances.ORTH_TOL, "seed": int(seed)}
    n = state.subsystem_count
    if n < 3:
        raise TooFewSubsystems(f"need >= 3 subsystems, got {n}")

    residuals: dict[str, float] = {}

    def reject(stage: str, witness: dict) -> DecomposabilityReport:
        return DecomposabilityReport(False, stage, witness, residuals,
                                     tolerances_used=used)

    ok, table = equal_spectra_check(state)
    if not ok:
        return reject(STAGE_SPECTRA, {"spectra": {
            ",".join(map(str, s)): t.tolist() for s, t in table.items()}})

    slices = slice_tensor(state)
    commute, comm_resid = positive_products_commute(slices, diag_tol)
    residuals["max_commutator"] = comm_resid
    if not commute:
        return reject(STAGE_DIAG, {"max_commutator": comm_resid})

    try:
        pair = find_diagonalizing_pair(slices, seed, diag_tol)
    except NoPairFound as err:
        residuals["max_off_diagonal"] = err.residual
        s_diag = _positive_product_s(slices)
        if not scaled_unitary_check(s_diag, diag_tol)[0]:
            return reject(STAGE_SCALED, {"ss_dagger": s_diag @ s_diag.T})
        return reject(STAGE_DIAG, {"max_off_diagonal": err.residual})

    s = build_s_matrix(slices, pair, diag_tol)
    gram = s @ s.conj().T
    residuals["max_ss_off_diagonal"] = _off_diagonal_residual(gram)
    if not scaled_unitary_check(s, diag_tol)[0]:
        return reject(STAGE_SCALED, {"ss_dagger": gram})

    candidate = _assemble(state, slices, pair, s, rank_tol, residuals)
    if isinstance(candidate, tuple):
        return reject(*candidate)
    rebuilt = reconstruct(candidate)
    resid = float(np.abs(rebuilt.amplitudes - state.amplitudes).max())
    residuals["reconstruction"] = resid
    if resid > tolerances.RECONSTRUCT_TOL:
        # the discarded off-diagonal mass was too large to represent the
        # state after all; report it at the diagonalization stage
        return reject(STAGE_DIAG, {"reconstruction": resid})
    return DecomposabilityReport(True, None, {}, residuals, candidate, used)


def _assemble(
    state: StateTensor,
    slices: SliceSet,
    pair: DiagonalizationPair,
    s: np.ndarray,
    rank_tol: float,
    residuals: dict,
):
    """Turn a scaled-unitary S into a candidate decomposition.

    The rows of S above rank_tol, at most min(dims) of them and largest
    first, give the coefficients; their normalised rows are the tail
    vectors.  Each is split into one factor per tail subsystem by a
    rank-one SVD at every tail cut (none for three subsystems); a
    relative second singular value above DIAG_TOL means the tail vector
    is not a product.  A tail family further than ORTH_TOL from
    orthonormal is replaced by the polar factor of its
    coefficient-weighted rows, so a vector with a tiny coefficient takes
    the correction.  The caller's rebuild decides whether dropped rows
    and corrected families still represent the state.  Returns the
    decomposition, or (stage, witness) when a tail vector is no product.
    """
    norms = np.sqrt(np.real(np.diagonal(s @ s.conj().T)).clip(0.0))
    keep = np.flatnonzero(norms > rank_tol * norms.max())
    order = keep[np.argsort(norms[keep])[::-1]][:min(state.dims)]
    coeffs = norms[order] / np.linalg.norm(norms[order])

    first = pair.p[:, order].T.copy()
    second = pair.q[order, :].copy()
    chis = s[order, :] / norms[order, None]
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
            u, _, vh = np.linalg.svd(coeffs[:, None] * tail, full_matrices=False)
            tails[k] = u @ vh
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
    tol: float = 1e-8,
) -> list[np.ndarray]:
    """Unitaries U_k with (U_1 x ... x U_n)|source> = |target>.

    Both states must be decomposable with matching Schmidt coefficient
    multisets; the link maps the source's l-th Schmidt vector onto the
    target's for every subsystem, which reproduces the target exactly
    because the pairing is shared across subsystems (ties included).
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
    if ct.size != cs.size or float(np.abs(ct - cs).max()) > tol:
        raise CoefficientsMismatch(
            f"coefficients differ: {ct.tolist()} vs {cs.tolist()}")
    unitaries = []
    for k, d in enumerate(target.dims):
        basis_t = complete_orthonormal(rep_t.decomposition.vectors[k], d)
        basis_s = complete_orthonormal(rep_s.decomposition.vectors[k], d)
        unitaries.append(basis_t.T @ basis_s.conj())
    mapped = apply_local_unitaries(source, unitaries)
    overlap = np.vdot(target.amplitudes, mapped.amplitudes)
    aligned = mapped.amplitudes * np.conj(overlap) / max(abs(overlap), 1e-300)
    resid = float(np.abs(aligned - target.amplitudes).max())
    if resid > tol:
        raise DifferentStates(f"link verification failed (residual {resid:.3e})")
    return unitaries
