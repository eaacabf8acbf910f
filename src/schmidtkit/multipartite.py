"""Decomposability of pure states on three or more subsystems.

A state is called decomposable when it admits a joint Schmidt form
sum_l c_l |l_1>|l_2>...|l_n> with one orthonormal family per subsystem.
Unlike the bipartite case this is a real property: the W state has no
such form while GHZ states do.

The decision runs one code path for every n >= 3.  The amplitude tensor
is viewed as one (C, d1, d2) array, the stack of matrices A_c (rows =
subsystem 1, columns = subsystem 2, one slice per grouped index c of
subsystems 3..n); the search for a unitary pair (P, Q) making every
R_c = P+ A_c Q+ diagonal within DIAG_TOL returns the tuple (P, Q, S, R),
S being the diagonals of R it checked, the coefficient matrix: the
identity pair when the slices are diagonal already, else the first of up
to MAX_PAIR_ATTEMPTS = 8 attempts within DIAG_TOL, each one SVD of a
seeded complex combination of the slices and two mode products a slab
of slices at a time.  The Gram matrix S S+ gives the coefficients, the
row norms of S; each normalised row, a tail vector, is split into one
vector per tail subsystem.  The candidate is accepted only if it
rebuilds the input within RECONSTRUCT_TOL, which also settles that the
rows of S are near orthogonal, the tail vectors products, the tail
families orthonormal and the cuts' spectra equal: the accept is its own
proof, computes no reduced spectrum when the fast path or attempt 0
finds its pair, and reads its max_commutator from R R+ and R+ R, with
no eigensolve when they are diagonal.  Only when attempt 0 misses are
spectra compared, before attempts 1 to 7: the cuts (1, 2) to (1, n), in
the explain walk's order, up to the first that differs from site 1's at
SPECTRA_TOL; that cut rejects when its l1 gap to site 1's spectrum
exceeds 8 sqrt(D) RECONSTRUCT_TOL, a proof that no candidate passes the
gate (D the total dimension).  A reject is explained by the necessary
conditions, run only then: the spectra walk by cut size, stopped at the
first cut whose nonzero spectrum differs from site 1's (the two spectra
are its witness), the commutation of the positive products
C_c = A_c A_c+ (and A_c+ A_c), tested in the eigenbasis P of one
combination of them unless already diagonal, and the orthogonality of
the rows of S: the pair's, or with no pair S[l][c] = sqrt((P+ C_c P)_ll)
read there (W's rows overlap).  The walk reuses every cut the decision
took.  A reject whose cuts (1, k) all agree with site 1, or whose first
differing one proves nothing, makes all eight attempts before its walk,
and one whose spectra all agree still computes every cut.
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
    InvalidArgs,
    NoPairFound,
    NotDecomposable,
    RankTooLarge,
    TooFewSubsystems,
)
from .linalg import gram_residual, phase_fix, polar
from .state import (SchmidtDecomposition, StateTensor, _integer, _rebuild, _sized_dims, _slabs,
                    new_state, reconstruct)
from .bipartite import _spectra_doc, spectra

__all__ = [
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


@dataclass(frozen=True)
class DecomposabilityReport:
    """Outcome of check_decomposable.

    stage is None on accept, otherwise the stage the explain pass names
    (see check_decomposable); witness carries the offending quantity (a
    matrix or scalar) and residuals the numeric slack seen on the way.
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


def slice_tensor(state: StateTensor) -> np.ndarray:
    """Slice a state on >= 3 subsystems into its matrix stack.

    Returns a (C, d1, d2) view of the amplitudes, C = d3*...*dn, with no
    copy: stack[c][i][j] is the amplitude at (i, j, c), so rows follow
    subsystem 1, columns subsystem 2, and c runs row-major over 3..n.
    """
    n = state.subsystem_count
    if n < 3:
        raise TooFewSubsystems(f"need >= 3 subsystems, got {n}")
    d1, d2 = state.dims[:2]
    return state.amplitudes.reshape(d1, d2, -1).transpose(2, 0, 1)


def positive_products_commute(stack: np.ndarray) -> tuple[bool, float]:
    """Do {A_c A_c+} and {A_c+ A_c} each commute?  A necessary condition.

    A family already diagonal within DIAG_TOL is read as it stands, a
    slab of slices at a time, in the identity basis, with no eigensolve
    (the rule of the pair search's GHZ fast path).  Any other family is
    formed whole and rotated into the eigenbasis of one fixed
    pseudo-random positive combination of its members: if they commute,
    that is a common eigenbasis, with gaps as wide as the members' even
    where their sum's eigenvalues nearly meet.  Returns the verdict, which
    passes when the largest off-diagonal magnitude of the families so
    read is at most DIAG_TOL, and that magnitude (the witness).
    """
    worst = max(_commute_residual(stack, adjoint_first) for adjoint_first in (False, True))
    return worst <= tolerances.DIAG_TOL, worst


def _products(stack: np.ndarray, adjoint_first: bool) -> np.ndarray:
    adjoint = stack.conj().transpose(0, 2, 1)
    return adjoint @ stack if adjoint_first else stack @ adjoint


def _commute_residual(stack: np.ndarray, adjoint_first: bool) -> float:
    """One family's off-diagonal witness: read in slabs if diagonal, else rotated whole."""
    resid = _diagonal_residual(stack, lambda part: _products(part, adjoint_first))
    if not resid <= tolerances.DIAG_TOL:  # a NaN fails too
        return _off_diagonal_residual(_rotate_to_combination(_products(stack, adjoint_first)))
    return resid


def _diagonal_residual(stack: np.ndarray, form=lambda part: part) -> float:
    """The largest off-diagonal magnitude of form(slab) over slabs of the stack's slices.

    A slab of slices at a time, so no full-size array is formed; the
    first slab past DIAG_TOL settles the test, and its residual is
    returned.
    """
    worst = 0.0
    for part in _slabs(len(stack), stack.size):
        resid = _off_diagonal_residual(form(stack[part]))
        if not resid <= tolerances.DIAG_TOL:  # a NaN fails too
            return resid
        worst = max(worst, resid)
    return worst


def _rotate_to_combination(family: np.ndarray) -> np.ndarray:
    """The family rotated into the eigenbasis of its _commute_weights combination."""
    weights = _commute_weights(len(family))
    combined = (weights @ family.reshape(len(family), -1)).reshape(family.shape[1:])
    basis = np.linalg.eigh(combined)[1]
    return basis.conj().T @ family @ basis


def _commute_weights(count: int) -> np.ndarray:
    """positive_products_commute's weights: default_rng(0), uniform in [1, 2], drawn per call."""
    return np.random.default_rng(0).uniform(1.0, 2.0, count)


def find_diagonalizing_pair(stack: np.ndarray) -> tuple[np.ndarray, ...]:
    """Search for unitaries (P, Q) with every P+ A_c Q+ diagonal within DIAG_TOL.

    Returns the tuple (p, q, s, r): r is the rotated stack it checked,
    R_c = P+ A_c Q+, and s its diagonals, S[l][c] = (R_c)_ll.  Fast
    path: slices already diagonal give the identity pair and r is the
    stack itself (GHZ-type states).  Otherwise up to MAX_PAIR_ATTEMPTS
    attempts, each one full SVD of a random complex combination
    B = sum_c r_c A_c, attempt k drawing r from the fixed stream
    default_rng((0, k)); the first whose singular bases leave every
    slice diagonal within DIAG_TOL wins.  For a decomposable state, with
    tail vectors t_l, B's singular values are c_l |sum_c r_c t_lc|,
    distinct for almost every draw, and a small gap between two of them
    tilts their vectors by only about machine epsilon * sigma_max / gap.
    Raises NoPairFound (with the best residual seen) when all fail.
    """
    pair, best = _first_pair(_pair_attempts(stack))
    if pair is None:  # raised unbound: a local would keep this frame in a cycle
        raise NoPairFound(f"no diagonalizing pair after {MAX_PAIR_ATTEMPTS} attempts "
                          f"(best off-diagonal residual {best:.3e})", best)
    return pair


def _pair_attempts(stack: np.ndarray):
    """The pair search's steps: yields (pair, None) on a find, else (None, residual).

    The fast path's identity pair when every slice is diagonal within
    DIAG_TOL (read a slab of slices at a time, up to the first slab
    past it), and nothing more; else each attempt in turn.  A miss's
    residual is a function that computes it (_pair_attempt).
    """
    _, d1, d2 = stack.shape
    if _diagonal_residual(stack) <= tolerances.DIAG_TOL:
        identity = np.eye(d1, dtype=complex), np.eye(d2, dtype=complex)
        yield (*identity, _diagonals(stack), stack), None
        return
    for attempt in range(MAX_PAIR_ATTEMPTS):
        yield _pair_attempt(stack, attempt)


def _first_pair(attempts, best: float = np.inf) -> tuple[tuple | None, float]:
    """The first pair the attempts find, or None; and the best residual of those that missed."""
    for pair, residual in attempts:
        if pair is not None:
            return pair, best
        best = min(best, residual())
    return None, best


def _pair_attempt(stack: np.ndarray, attempt: int) -> tuple:
    """One attempt: its pair (p, q, s, r) and None, or None and its residual's reader.

    The slices are rotated a slab at a time (_rotate_slab), and R is kept
    only while its slabs pass DIAG_TOL.  A miss stops at its first slab
    past DIAG_TOL and holds neither a full-size array nor its bases; its
    residual, the largest off-diagonal magnitude over every slice, is
    computed only when the function returned is called, which a decision
    whose cut proves the reject never does.
    """
    count, d1, d2 = stack.shape
    p, q = _attempt_bases(stack, attempt)
    parts, rotated = _slabs(count, stack.size), None
    for k, part in enumerate(parts):
        slab = _rotate_slab(stack, part, p, q)
        resid = _off_diagonal_residual(slab)
        if not resid <= tolerances.DIAG_TOL:  # a NaN fails too
            return None, lambda: _missed_residual(stack, attempt, resid, parts[k + 1:])
        if rotated is None:
            rotated = np.empty((d1, count, d2), complex).transpose(1, 0, 2)
        rotated[part] = slab
        del slab  # freed before the next slab's products
    return (p, q, _diagonals(rotated), rotated), None


def _attempt_bases(stack: np.ndarray, attempt: int) -> tuple[np.ndarray, np.ndarray]:
    """The singular bases (P, Q) of attempt's combination, drawn from default_rng((0, attempt))."""
    p, _, q = np.linalg.svd(_random_combination(stack, np.random.default_rng((0, attempt))))
    return p, q


def _missed_residual(stack: np.ndarray, attempt: int, first: float, rest: list) -> float:
    """A missed attempt's residual: the largest of first and the slabs' in rest.

    The slabs in rest are rotated by the attempt's bases, drawn again.
    """
    bases = _attempt_bases(stack, attempt) if rest else ()
    return float(np.max([first, *(_off_diagonal_residual(_rotate_slab(stack, part, *bases))
                                  for part in rest)]))


def _rotate_slab(stack: np.ndarray, part: slice, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P+ A_c Q+ for the slices in part, by two mode products, each one matmul.

    The slab, copied as one (d1, slices * d2) matrix, takes P+ on the
    left, and then, read as (d1 * slices, d2), Q+ on the right, however
    many slices there are (P+ A_c Q+ groups as a batched matmul over the
    slices does).  Returns a (slices, d1, d2) view of that array.
    """
    _, d1, d2 = stack.shape
    half = p.conj().T @ stack[part].transpose(1, 0, 2).reshape(d1, -1)
    return (half.reshape(-1, d2) @ q.conj().T).reshape(d1, -1, d2).transpose(1, 0, 2)


def _random_combination(stack: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    count, d1, d2 = stack.shape
    coeffs = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    # slice_tensor's stack is a view of (d1, d2, C) amplitudes: no copy
    return (stack.transpose(1, 2, 0).reshape(d1 * d2, count) @ coeffs).reshape(d1, d2)


def _off_diagonal_residual(matrices: np.ndarray) -> float:
    """Largest off-diagonal magnitude of a matrix or a stack of matrices."""
    mags = np.abs(matrices)
    diagonal = np.arange(min(matrices.shape[-2:]))
    mags[..., diagonal, diagonal] = 0.0
    return float(mags.max(initial=0.0))


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

    The subsets containing subsystem 1 are walked by size and then by
    subset, and their reduced spectra (descending) computed, one small
    Gram eigensolve each, unless cuts (a dict of spectra already computed)
    holds them; the walk stops at the first whose entries above
    SPECTRA_TOL differ from subset (1,)'s.  A fail's table is those two
    spectra, each cut to its entries above SPECTRA_TOL.  A pass's table
    is every proper subset, ordered by size and then subset; a
    complement's entry is its cut's values padded or cut to its dimension.
    """
    cuts = dict(cuts or {})
    everyone = range(1, state.subsystem_count + 1)
    reference, tol = _cut(state, cuts, (1,)), tolerances.SPECTRA_TOL
    for rest in itertools.chain.from_iterable(
            itertools.combinations(everyone[1:], size) for size in range(1, len(everyone) - 1)):
        spec = _cut(state, cuts, (1, *rest))
        if not _same_nonzero(reference, spec, tol):
            return False, {(1,): reference[reference > tol], (1, *rest): spec[spec > tol]}
    table: dict[tuple[int, ...], np.ndarray] = {}
    for cut, spec in cuts.items():
        complement = tuple(sorted(set(everyone).difference(cut)))
        if complement:
            table[cut] = spec
            table[complement] = np.zeros(prod(state.dims[i - 1] for i in complement))
            table[complement][:spec.size] = spec[:table[complement].size]
    return True, dict(sorted(table.items(), key=lambda entry: (len(entry[0]), entry[0])))


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


def check_decomposable(state: StateTensor) -> DecomposabilityReport:
    """Decide whether a state on >= 3 subsystems has a joint Schmidt form.

    Decision path: the pair search's fast path or attempt 0, then a
    rebuild of the input from the candidate, which accepts within
    RECONSTRUCT_TOL; rows of S far from orthogonal, a tail vector that is
    no product, or a cut whose spectrum differs fail the rebuild, and an
    accept computes no reduced spectrum.  When attempt 0 misses, the cuts
    (1, 2) to (1, n), the explain walk's first n - 1, are compared with
    site 1 up to the first that differs at SPECTRA_TOL, and that cut
    rejects if its l1 gap to site 1's zero-padded spectrum exceeds
    8 sqrt(D) RECONSTRUCT_TOL (no candidate can then pass the gate; see
    _no_candidate_passes); otherwise attempts 1 to 7 follow, and a pair
    found goes to the rebuild.  Every reject then runs the explain pass:
    the equal-spectra walk (from the cuts already taken, in size order,
    stopping at the first failing cut), the commutation test, then the
    rows of S (the pair's, or with no pair one read only then: overlap
    gives SNotScaledUnitary); the first that fails is the stage
    reported, else the decision's.  A SpectraUnequal witness is site 1's
    spectrum and the failing cut's, above SPECTRA_TOL.
    An accept's max_commutator is the commutation test of the pair's
    rotated stack R, read before the gate so that R is gone when the
    rebuild is formed; a reject's is that of the raw stack.
    """
    used = {"rank_tol": tolerances.RANK_TOL, "diag_tol": tolerances.DIAG_TOL,
            "orth_tol": tolerances.ORTH_TOL, "seed": 0}  # the pair search's fixed stream
    stack = slice_tensor(state)
    residuals: dict[str, float] = {}
    cuts: dict[tuple[int, ...], np.ndarray] = {}

    def reject(witness: dict, scaled: tuple | None = None) -> DecomposabilityReport:
        ok, table = equal_spectra_check(state, cuts=cuts)
        if not ok:
            return DecomposabilityReport(False, STAGE_SPECTRA, {"spectra": _spectra_doc(table)},
                                         tolerances_used=used)
        ok, comm_resid = positive_products_commute(stack)
        found = {"max_commutator": comm_resid}
        if not ok:  # a NaN residual fails too
            return DecomposabilityReport(False, STAGE_DIAG, dict(found), found,
                                         tolerances_used=used)
        if scaled is None:  # no pair: S[l][c] = sqrt((P+ C_c P)_ll), C_c = A_c A_c+
            rotated = _rotate_to_combination(_products(stack, False))
            scaled = scaled_unitary_check(np.sqrt(np.real(_diagonals(rotated)).clip(0.0)))
        ok, gram, _ = scaled
        stage, witness = (STAGE_DIAG, witness) if ok else (STAGE_SCALED, {"ss_dagger": gram})
        return DecomposabilityReport(False, stage, witness, {**residuals, **found},
                                     tolerances_used=used)

    attempts = _pair_attempts(stack)
    pair, residual = next(attempts)  # the fast path's pair, or attempt 0's
    if pair is None:
        if _no_candidate_passes(state, cuts):
            return reject({})
        pair, best = _first_pair(attempts, residual())
    if pair is None:
        residuals["max_off_diagonal"] = best
        return reject({"max_off_diagonal": best})
    p, q, s, rotated = pair
    del pair  # so that del rotated below frees R

    # S's verdict does not gate: the rebuild decides, and a reject reads it
    scaled = scaled_unitary_check(s)
    _, gram, residuals["max_ss_off_diagonal"] = scaled
    candidate = _assemble(state, p, q, s, gram, residuals)
    residuals["max_commutator"] = positive_products_commute(rotated)[1]
    del rotated  # so the rebuild is the gate's one full-size array
    diff = _rebuild(candidate)
    diff -= state.amplitudes
    resid = residuals["reconstruction"] = float(np.abs(diff).max())  # NaN if the rebuild has one
    del diff
    if not resid <= tolerances.RECONSTRUCT_TOL:  # a NaN rebuild fails too
        # the discarded off-diagonal mass, overlapping rows of S, or a
        # tail that is no product was too large to represent the state;
        # the explain pass names the stage, S's if its rows overlap
        return reject({"reconstruction": resid}, scaled)
    return DecomposabilityReport(True, None, {}, residuals, candidate, used)


def _no_candidate_passes(state: StateTensor, cuts: dict) -> bool:
    """Does a cut (1, k) prove that no candidate can pass the rebuild gate?

    The cuts (1, 2) to (1, n), the explain walk's first n - 1 in its
    order, are computed into cuts up to the first whose spectrum differs
    from site 1's at SPECTRA_TOL.  That cut proves it when the l1 gap
    between the two spectra, zero-padded, exceeds 8 sqrt(D)
    RECONSTRUCT_TOL, D the total dimension: a candidate passes only
    within sqrt(D) RECONSTRUCT_TOL of the input in 2-norm, every cut
    spectrum of a unit decomposable state is one zero-padded list, and
    by the Lidskii-Mirsky inequality two cuts of a state within delta of
    one are at most 4 delta apart in l1 (a further factor 2 is slack for
    families only within ORTH_TOL of orthonormal).
    """
    reference = _cut(state, cuts, (1,))
    for k in range(2, state.subsystem_count + 1):
        spec = _cut(state, cuts, (1, k))  # never shorter than site 1's
        if not _same_nonzero(reference, spec, tolerances.SPECTRA_TOL):
            gap = np.abs(spec[:reference.size] - reference).sum() + spec[reference.size:].sum()
            bound = 8 * np.sqrt(state.total_dim) * tolerances.RECONSTRUCT_TOL  # see above
            return bool(gap > bound)
    return False


def _assemble(state: StateTensor, p: np.ndarray, q: np.ndarray, s: np.ndarray,
              gram: np.ndarray, residuals: dict) -> SchmidtDecomposition:
    """Turn find_diagonalizing_pair's (p, q, s) into a candidate.

    gram is S S+.  The row norms of S (from the Gram diagonal) above
    RANK_TOL, at most min(dims) of them and largest first, give the
    coefficients; the normalised rows are the tail vectors, split by
    _split_tails into one factor per tail subsystem (no split for three
    subsystems).  A tail family further than ORTH_TOL from orthonormal,
    as rows of S that overlap make it, is replaced by the polar factor
    of its coefficient-weighted rows, so a vector with a tiny
    coefficient takes the correction.  The caller's rebuild decides
    whether dropped rows, overlapping rows, split tails and corrected
    families still represent the state.
    """
    norms = np.sqrt(np.real(np.diagonal(gram)).clip(0.0))
    keep = np.flatnonzero(norms > tolerances.RANK_TOL * norms.max())
    order = keep[np.argsort(norms[keep])[::-1]][:min(state.dims)]
    coeffs = norms[order] / np.linalg.norm(norms[order])

    first, ph1 = phase_fix(p.T[order])
    second, ph2 = phase_fix(q[order, :])
    chis = s[order, :] / norms[order, None] * (ph1 * ph2)[:, None]
    tails = _split_tails(chis, state.dims[2:], residuals)

    resids = [gram_residual(t) for t in tails]
    residuals["tail_orthonormality"] = max(resids)
    for k, tail in enumerate(tails):
        if resids[k] > tolerances.ORTH_TOL:
            tails[k] = polar(coeffs[:, None] * tail)
    return SchmidtDecomposition(state.dims, coeffs, (first, second, *tails))


def _split_tails(rows: np.ndarray, dims: tuple[int, ...], residuals: dict) -> list[np.ndarray]:
    """Split each row, a vector on dims, into one factor per subsystem.

    Each tail cut takes one SVD of all rows at once; a row's leading
    singular pair gives its factor there, phase-fixed, with the phase
    pushed onto the row's rest, which is split at the next cut.  The
    largest relative second singular value over rows and cuts is kept
    as residuals["tail_product_ratio"].
    """
    factors = []
    for d in dims[:-1]:
        u, sing, vh = np.linalg.svd(rows.reshape(len(rows), d, -1), full_matrices=False)
        ratio = float((sing[:, 1] / sing[:, 0]).max()) if sing.shape[1] > 1 else 0.0
        residuals["tail_product_ratio"] = max(
            residuals.get("tail_product_ratio", 0.0), ratio)
        factor, ph = phase_fix(u[:, :, 0])
        factors.append(factor)
        rows = vh[:, 0, :] * ph[:, None]
    return [*factors, rows]


def random_decomposition(dims, rank: int, seed: int = 0) -> SchmidtDecomposition:
    """A random joint Schmidt form: simplex coefficients, QR families."""
    dims, _ = _sized_dims(dims)
    rank = _integer(rank, InvalidArgs, "rank")
    if rank < 1 or rank > min(dims):
        raise RankTooLarge(f"rank {rank} not in 1..{min(dims)} for dims {dims}")
    if _integer(seed, InvalidArgs, "seed") < 0:
        raise InvalidArgs(f"seed must be a nonnegative integer, got {seed}")
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
    """Apply one unitary per subsystem: |psi> -> (U_1 x ... x U_n)|psi>.

    A matrix further than ORTH_TOL from unitary raises InvalidArgs; the
    result goes through new_state, which repairs its rounding.
    """
    if len(unitaries) != state.subsystem_count:
        raise DimensionMismatch(
            f"need {state.subsystem_count} unitaries, got {len(unitaries)}")
    unitaries = [np.asarray(u, dtype=complex) for u in unitaries]
    for k, (u, d) in enumerate(zip(unitaries, state.dims), 1):
        if u.shape != (d, d):
            raise DimensionMismatch(f"unitary {k} has shape {u.shape}, expected ({d}, {d})")
    for k, u in enumerate(unitaries, 1):
        resid = gram_residual(u)
        if not resid <= tolerances.ORTH_TOL:  # a NaN fails too
            raise InvalidArgs(f"matrix for subsystem {k} is not unitary (residual {resid:.3e})")
    tensor = state.tensor()
    for k, u in enumerate(unitaries):
        tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [k])), 0, k)
    return new_state(state.dims, tensor, state.label)


def local_unitary_link(target: StateTensor, source: StateTensor) -> list[np.ndarray]:
    """Unitaries U_k with (U_1 x ... x U_n)|source> = |target>.

    Both states must be decomposable with matching Schmidt coefficient
    multisets; the link maps the source's l-th Schmidt vector onto the
    target's for every subsystem, which reproduces the target exactly
    because the pairing is shared across subsystems (ties included).
    Each U_k is the polar factor of sum_l t_l s_l+ + P_t P_s, with P the
    projector onto the orthogonal complement of a family, so U_k off the
    support depends on the states alone (a state linked to itself gets
    the identity).  It is unique when P_t P_s is invertible from the
    source's complement onto the target's; where it is singular, the
    SVD's rounding picks the completion.  Coefficients, and the mapped
    source and the target entry by entry, must agree within LINK_TOL:
    each decomposition rebuilds its own state, global phase included,
    so no phase is fitted.
    """
    if target.dims != source.dims:
        raise DimensionMismatch(
            f"states live on different dims {target.dims} vs {source.dims}")
    rep_t = check_decomposable(target)
    rep_s = check_decomposable(source)
    for name, rep in (("target", rep_t), ("source", rep_s)):
        if not rep.decomposable:
            raise NotDecomposable(f"{name} state is not decomposable "
                                  f"(stage {rep.stage})")
    ct = rep_t.decomposition.coefficients
    cs = rep_s.decomposition.coefficients
    if ct.size != cs.size or float(np.abs(ct - cs).max()) > tolerances.LINK_TOL:
        raise CoefficientsMismatch(
            f"coefficients differ: {ct.tolist()} vs {cs.tolist()}")
    unitaries = [polar(ft.T @ fs.conj() + (np.eye(d) - ft.T @ ft.conj())
                       @ (np.eye(d) - fs.T @ fs.conj()))
                 for ft, fs, d in zip(rep_t.decomposition.vectors,
                                      rep_s.decomposition.vectors, target.dims)]
    mapped = apply_local_unitaries(source, unitaries)
    resid = float(np.abs(mapped.amplitudes - target.amplitudes).max())
    if resid > tolerances.LINK_TOL:
        raise DifferentStates(f"link verification failed (residual {resid:.3e})")
    return unitaries
