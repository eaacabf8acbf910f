"""Decomposability of pure states on three or more subsystems.

A state is called decomposable when it admits a joint Schmidt form
sum_l c_l |l_1>|l_2>...|l_n> with one orthonormal family per subsystem.
Unlike the bipartite case this is a real property: the W state has no
such form while GHZ states do.

The decision pipeline slices the amplitude tensor into matrices A_c
(rows = subsystem 1, columns = subsystem 2, one slice per grouped
remaining index c), looks for a unitary pair (P, Q) making every
P+ A_c Q+ diagonal, collects the diagonals into the coefficient matrix
S, and requires S S+ to be diagonal (rows of S orthogonal).  Candidate
decompositions are only accepted after rebuilding the input within
RECONSTRUCT_TOL, so the accept path is sound by construction.

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
    InvalidAxis,
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

    matrices[c][i][j] is the amplitude at (i, j, c) under the grouped
    three-way reshape: rows follow one subsystem, columns another, and
    the slice index c runs over the remaining (grouped) subsystems
    whose dimensions are recorded in tail_dims.
    """

    matrices: tuple[np.ndarray, ...]
    dims: tuple[int, ...]
    axis: int
    tail_dims: tuple[int, ...]

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        if len(mats) != prod(self.tail_dims):
            raise DimensionMismatch(
                f"{len(mats)} slices do not match tail dims {self.tail_dims}")
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise DimensionMismatch("slices must share one shape")
        total = sum(float(np.sum(np.abs(m) ** 2)) for m in mats)
        if abs(total - 1.0) > 1e-8:
            raise DimensionMismatch(
                f"slice norms sum to {total!r}, expected 1 for a normalized state")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "tail_dims", tuple(int(d) for d in self.tail_dims))

    @property
    def row_dim(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def col_dim(self) -> int:
        return self.matrices[0].shape[1]


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


def slice_tensor(state: StateTensor, axis: int | None = None) -> SliceSet:
    """Slice a state on >= 3 subsystems into its matrix stack.

    By default the slice index is the last subsystem; for more than
    three subsystems the middle is never regrouped, so rows follow
    subsystem 1, columns subsystem 2, and slices the grouped tail
    3..n.  A non-default axis is only supported for exactly three
    subsystems, where it picks which subsystem becomes the slice index
    (the remaining two stay in ascending order as rows and columns).
    """
    n = state.subsystem_count
    if n < 3:
        raise TooFewSubsystems(f"slicing needs >= 3 subsystems, got {n}")
    if axis is None:
        axis = n
    if axis < 1 or axis > n:
        raise InvalidAxis(f"axis {axis} out of range 1..{n}")
    if n > 3 and axis != n:
        raise InvalidAxis("custom slice axis is only supported for 3 subsystems")
    if n == 3:
        rows, cols = [k for k in (1, 2, 3) if k != axis]
        tensor = np.transpose(state.tensor(), (rows - 1, cols - 1, axis - 1))
        tail: tuple[int, ...] = (state.dims[axis - 1],)
    else:
        tensor = state.amplitudes.reshape(
            state.dims[0], state.dims[1], prod(state.dims[2:]))
        tail = state.dims[2:]
    mats = tuple(tensor[:, :, c].copy() for c in range(tensor.shape[2]))
    return SliceSet(mats, state.dims, axis, tail)


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
    stack = np.stack(slices.matrices)
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
    fast = max(_off_diagonal_residual(m) for m in slices.matrices)
    if fast <= diag_tol:
        return DiagonalizationPair(
            np.eye(slices.row_dim, dtype=complex),
            np.eye(slices.col_dim, dtype=complex))
    best = np.inf
    for attempt in range(MAX_PAIR_ATTEMPTS):
        rng = np.random.default_rng((int(seed), attempt))
        p, q = _pair_attempt(slices, rng)
        resid = max(
            _off_diagonal_residual(p.conj().T @ m @ q.conj().T)
            for m in slices.matrices)
        if resid <= diag_tol:
            return DiagonalizationPair(p, q)
        best = min(best, resid)
    err = NoPairFound(
        f"no diagonalizing pair after {MAX_PAIR_ATTEMPTS} attempts "
        f"(best off-diagonal residual {best:.3e})")
    err.residual = best
    raise err


def _random_combination(slices: SliceSet, rng: np.random.Generator) -> np.ndarray:
    coeffs = rng.standard_normal(len(slices.matrices)) \
        + 1j * rng.standard_normal(len(slices.matrices))
    total = np.zeros((slices.row_dim, slices.col_dim), dtype=complex)
    for r, m in zip(coeffs, slices.matrices):
        total += r * m
    return total

def _pair_attempt(
    slices: SliceSet, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    u, sing, vh = np.linalg.svd(_random_combination(slices, rng), full_matrices=True)
    scale = sing[0] if sing.size and sing[0] > 0 else 1.0
    blocks = [
        b for b in _split_blocks(sing, 1e-6 * scale)
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


def _off_diagonal_residual(matrix: np.ndarray) -> float:
    mask = np.ones(matrix.shape, dtype=bool)
    np.fill_diagonal(mask, False)
    if not mask.any():
        return 0.0
    return float(np.abs(matrix[mask]).max())


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
    rows = min(slices.row_dim, slices.col_dim)
    s = np.zeros((rows, len(slices.matrices)), dtype=complex)
    worst = 0.0
    for c, m in enumerate(slices.matrices):
        rotated = pair.p.conj().T @ m @ pair.q.conj().T
        worst = max(worst, _off_diagonal_residual(rotated))
        s[:, c] = np.diagonal(rotated)[:rows]
    if worst > diag_tol:
        raise SlicesNotDiagonal(
            f"max off-diagonal magnitude {worst:.3e} exceeds {diag_tol}")
    return s


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
    products = [m @ m.conj().T for m in slices.matrices]
    basis = common_hermitian_eigenbasis(products)
    s = np.zeros((slices.row_dim, len(products)))
    for c, prod_c in enumerate(products):
        s[:, c] = np.sqrt(np.real(np.diagonal(
            basis.conj().T @ prod_c @ basis)).clip(0.0))
    return s


def check_decomposable(
    state: StateTensor,
    seed: int = 0,
    *,
    rank_tol: float | None = None,
    diag_tol: float | None = None,
    orth_tol: float | None = None,
) -> DecomposabilityReport:
    """Decide whether a state on >= 3 subsystems has a joint Schmidt form.

    Pipeline: equal-spectra necessary condition, slice, commuting
    positive products, diagonalizing pair search, S-matrix scaled
    unitarity, tail factorization (for more than three subsystems),
    and a final rebuild of the input from the candidate decomposition.
    The verdict Decomposable therefore implies
    reconstruct(decomposition) matches the input within RECONSTRUCT_TOL.
    """
    rank_tol = tolerances.RANK_TOL if rank_tol is None else rank_tol
    diag_tol = tolerances.DIAG_TOL if diag_tol is None else diag_tol
    orth_tol = tolerances.ORTH_TOL if orth_tol is None else orth_tol
    used = {"rank_tol": rank_tol, "diag_tol": diag_tol,
            "orth_tol": orth_tol, "seed": int(seed)}
    n = state.subsystem_count
    if n < 3:
        raise TooFewSubsystems(f"need >= 3 subsystems, got {n}")

    residuals: dict[str, float] = {}
    ok, table = equal_spectra_check(state)
    if not ok:
        spectra_table = {",".join(map(str, s)): t.tolist()
                         for s, t in table.items()}
        return DecomposabilityReport(
            False, STAGE_SPECTRA,
            witness={"spectra": spectra_table},
            residuals=residuals, tolerances_used=used)

    slices = slice_tensor(state)
    commute, comm_resid = positive_products_commute(slices, diag_tol)
    residuals["max_commutator"] = comm_resid
    if not commute:
        return DecomposabilityReport(
            False, STAGE_DIAG,
            witness={"max_commutator": comm_resid},
            residuals=residuals, tolerances_used=used)

    try:
        pair = find_diagonalizing_pair(slices, seed, diag_tol)
    except NoPairFound as err:
        residuals["max_off_diagonal"] = err.residual
        s_diag = _positive_product_s(slices)
        gram = s_diag @ s_diag.T
        scaled_ok, _ = scaled_unitary_check(s_diag, diag_tol)
        if not scaled_ok:
            return DecomposabilityReport(
                False, STAGE_SCALED,
                witness={"ss_dagger": gram},
                residuals=residuals, tolerances_used=used)
        return DecomposabilityReport(
            False, STAGE_DIAG,
            witness={"max_off_diagonal": err.residual},
            residuals=residuals, tolerances_used=used)

    s = build_s_matrix(slices, pair, diag_tol)
    gram = s @ s.conj().T
    residuals["max_ss_off_diagonal"] = _off_diagonal_residual(gram)
    scaled_ok, _ = scaled_unitary_check(s, diag_tol)
    if not scaled_ok:
        return DecomposabilityReport(
            False, STAGE_SCALED,
            witness={"ss_dagger": gram},
            residuals=residuals, tolerances_used=used)

    outcome = _assemble(state, slices, pair, s, rank_tol, orth_tol, residuals)
    if isinstance(outcome, DecomposabilityReport):
        report = outcome
        return DecomposabilityReport(
            report.decomposable, report.stage, report.witness,
            residuals, report.decomposition, used)
    candidate = outcome

    rebuilt = reconstruct(candidate)
    resid = float(np.abs(rebuilt.amplitudes - state.amplitudes).max())
    residuals["reconstruction"] = resid
    if resid > tolerances.RECONSTRUCT_TOL:
        # the discarded off-diagonal mass was too large to represent the
        # state after all; report it at the diagonalization stage
        return DecomposabilityReport(
            False, STAGE_DIAG,
            witness={"reconstruction": resid},
            residuals=residuals, tolerances_used=used)
    return DecomposabilityReport(
        True, None, witness={}, residuals=residuals,
        decomposition=candidate, tolerances_used=used)


def _assemble(
    state: StateTensor,
    slices: SliceSet,
    pair: DiagonalizationPair,
    s: np.ndarray,
    rank_tol: float,
    orth_tol: float,
    residuals: dict,
):
    """Turn a scaled-unitary S into a candidate decomposition.

    Returns a SchmidtDecomposition, or a partial DecomposabilityReport
    when the grouped tail fails to factor into per-subsystem families.
    """
    norms = np.sqrt(np.real(np.diagonal(s @ s.conj().T)).clip(0.0))
    keep = np.flatnonzero(norms > rank_tol * norms.max())
    order = keep[np.argsort(norms[keep])[::-1]]
    coeffs = norms[order]
    coeffs = coeffs / np.linalg.norm(coeffs)

    first = pair.p[:, order].T.copy()
    second = pair.q[order, :].copy()
    chis = s[order, :] / norms[order, None]
    for l in range(coeffs.size):
        first[l], ph1 = phase_fix(first[l])
        second[l], ph2 = phase_fix(second[l])
        chis[l] = chis[l] * (ph1 * ph2)

    if len(slices.tail_dims) == 1:
        resid = gram_residual(chis)
        residuals["tail_orthonormality"] = resid
        if resid > orth_tol:
            return DecomposabilityReport(
                False, STAGE_SCALED, witness={"tail_overlap": resid})
        families = (first, second, chis)
    else:
        tails, fail = _factor_tails(chis, slices.tail_dims, residuals, orth_tol)
        if tails is None:
            return DecomposabilityReport(False, STAGE_TAIL, witness=fail)
        families = (first, second, *tails)
    return SchmidtDecomposition(state.dims, coeffs, families)


def _factor_tails(
    chis: np.ndarray,
    tail_dims: tuple[int, ...],
    residuals: dict,
    orth_tol: float,
):
    """Split each tail vector into one factor per tail subsystem.

    Factors out the leading subsystem by rank-one SVD and recurses on
    the remainder; any cut with a relative second singular value above
    DIAG_TOL means the tail is not a product.  The resulting families
    must each be orthonormal across l.
    """
    count = chis.shape[0]
    factors: list[list[np.ndarray]] = [[] for _ in tail_dims]
    worst_ratio = 0.0
    for l in range(count):
        remainder = chis[l]
        for k, d in enumerate(tail_dims[:-1]):
            m = remainder.reshape(d, -1)
            u, sing, vh = np.linalg.svd(m, full_matrices=False)
            ratio = float(sing[1] / sing[0]) if sing.size > 1 else 0.0
            worst_ratio = max(worst_ratio, ratio)
            if ratio > tolerances.DIAG_TOL:
                residuals["tail_product_ratio"] = worst_ratio
                return None, {"tail_index": l, "second_singular_ratio": ratio}
            head, ph = phase_fix(u[:, 0])
            factors[k].append(head)
            remainder = sing[0] * vh[0, :] * ph
        last = remainder / np.linalg.norm(remainder)
        factors[-1].append(last)
    residuals["tail_product_ratio"] = worst_ratio
    worst_gram = 0.0
    families = []
    for fam in factors:
        rows = np.array(fam)
        worst_gram = max(worst_gram, gram_residual(rows))
        families.append(rows)
    residuals["tail_orthonormality"] = worst_gram
    if worst_gram > orth_tol:
        return None, {"family_overlap": worst_gram}
    return tuple(families), None


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
