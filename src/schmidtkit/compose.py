"""Tensor composition of decomposable states and the rank inequality.

Composing an m-partite joint Schmidt form with an n-partite one
(m >= n) under a grouping of the m subsystems into n contiguous blocks
yields an n-partite joint Schmidt form whose coefficients are all
pairwise products: rank multiplies.  The rank inequality bounds the
Schmidt number of a superposition: for psi = alpha*phi + beta*gamma,
Sch(psi) >= |Sch(phi) - Sch(gamma)| across any fixed cut.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .bipartite import schmidt_number
from .errors import DegenerateCombination, DimensionMismatch, GroupingMismatch, InvalidArgs, NotDecomposable
from .linalg import row_kron
from .multipartite import check_decomposable
from .state import Bipartition, SchmidtDecomposition, StateTensor, _integer, _positive_entries

__all__ = [
    "Grouping",
    "SchmidtDimension",
    "RankInequalityReport",
    "enumerate_groupings",
    "compose",
    "schmidt_dimension",
    "rank_inequality_check",
]


@dataclass(frozen=True)
class Grouping:
    """Block sizes assigning m leading subsystems to n groups in order."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = _positive_entries(self.sizes, GroupingMismatch, "a group size",
                                  "group sizes must be positive")
        object.__setattr__(self, "sizes", sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class SchmidtDimension:
    """Subsystem count and rank of a joint Schmidt form, written (n, k)."""

    parts: int
    rank: int


@dataclass(frozen=True)
class RankInequalityReport:
    applicable: bool
    holds: bool | None
    rank_phi: int
    rank_gamma: int
    rank_psi: int | None
    mode: str
    detail: str = ""


def enumerate_groupings(m: int, n: int) -> list[Grouping]:
    """All ways to split m subsystems into n nonempty contiguous blocks.

    There are C(m-1, n-1) of them (divider placements among the m-1
    gaps); returned in ascending lexicographic order of block sizes
    read left to right.
    """
    m, n = _integer(m, InvalidArgs, "m"), _integer(n, InvalidArgs, "n")
    if n < 1 or m < n:
        raise InvalidArgs(f"need 1 <= n <= m, got m={m}, n={n}")
    result = []
    for cuts in itertools.combinations(range(1, m), n - 1):
        bounds = (0,) + cuts + (m,)
        result.append(Grouping(tuple(b - a for a, b in zip(bounds, bounds[1:]))))
    return result


def compose(
    left: SchmidtDecomposition,
    right: SchmidtDecomposition,
    grouping: Grouping,
) -> SchmidtDecomposition:
    """Merge two joint Schmidt forms into one on the grouped subsystems.

    Group g of the result combines the g-th contiguous block of the
    left decomposition's subsystems with the g-th subsystem of the
    right one.  Coefficients are all products c_i * c_j, re-sorted
    descending; the vector families stay orthonormal because each
    factor family is.
    """
    m, n = len(left.dims), len(right.dims)
    if m < n:
        raise GroupingMismatch(
            f"left operand must have at least as many subsystems ({m} < {n})")
    if len(grouping.sizes) != n or grouping.total != m:
        raise GroupingMismatch(
            f"grouping {grouping.sizes} does not split {m} subsystems "
            f"into {n} blocks")
    # pair (i, j) sits at flat index i * right.rank + j
    coeffs = np.outer(left.coefficients, right.coefficients).reshape(-1)
    order = np.argsort(coeffs)[::-1]
    ii, jj = np.divmod(order, right.rank)
    coeffs = coeffs[order]

    bounds = np.concatenate(([0], np.cumsum(grouping.sizes)))
    families = []
    for g in range(n):
        block = range(int(bounds[g]), int(bounds[g + 1]))
        family = left.vectors[block[0]][ii]
        for b in block[1:]:
            family = row_kron(family, left.vectors[b][ii])
        families.append(row_kron(family, right.vectors[g][jj]))
    dims = tuple(f.shape[1] for f in families)
    return SchmidtDecomposition(dims, coeffs / np.linalg.norm(coeffs),
                                tuple(families))


def schmidt_dimension(decomposition: SchmidtDecomposition) -> SchmidtDimension:
    """The (subsystem count, rank) signature of a joint Schmidt form."""
    return SchmidtDimension(len(decomposition.dims), decomposition.rank)


def rank_inequality_check(
    phi: StateTensor,
    gamma: StateTensor,
    alpha: complex,
    beta: complex,
    cut: Bipartition | None = None,
) -> RankInequalityReport:
    """Verify Sch(alpha*phi + beta*gamma) >= |Sch(phi) - Sch(gamma)|.

    With a cut, ranks are bipartite Schmidt numbers across it.  Without
    one, ranks are joint Schmidt ranks: phi and gamma must then be
    decomposable, and if the superposition is not, the inequality has
    no rank to compare and the report says so instead of guessing.  A
    non-finite alpha or beta raises InvalidArgs before any arithmetic;
    finite ones of any size are scaled before they combine.
    """
    if phi.dims != gamma.dims:
        raise DimensionMismatch(
            f"states live on different dims {phi.dims} vs {gamma.dims}")
    for name, scalar in (("alpha", alpha), ("beta", beta)):
        if not np.isfinite(scalar):
            raise InvalidArgs(f"{name} must be finite, got {scalar}")
    # alpha and beta over a power of two near their largest part: no finite
    # pair overflows, and the combination rounds as it would unscaled
    top = float(np.abs(np.array([alpha, beta], dtype=complex).view(float)).max())
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
    combined = alpha / scale * phi.amplitudes + beta / scale * gamma.amplitudes
    unit = np.linalg.norm(combined)
    norm = scale * float(unit)  # a Python float: past the largest double it is inf, unwarned
    if not norm >= tolerances.COMBINATION_NORM_TOL:  # a NaN fails too
        raise DegenerateCombination(
            f"combination norm {norm:.3e} is below {tolerances.COMBINATION_NORM_TOL:g}")
    psi = StateTensor(phi.dims, combined / unit)

    if cut is not None:
        rp = schmidt_number(phi, cut)
        rg = schmidt_number(gamma, cut)
        rs = schmidt_number(psi, cut)
        return RankInequalityReport(
            True, rs >= abs(rp - rg), rp, rg, rs, mode="bipartite")

    reports = {}
    for name, st in (("phi", phi), ("gamma", gamma)):
        reports[name] = check_decomposable(st)
        if not reports[name].decomposable:
            raise NotDecomposable(
                f"{name} is not decomposable (stage {reports[name].stage})")
    rp = reports["phi"].decomposition.rank
    rg = reports["gamma"].decomposition.rank
    rep_psi = check_decomposable(psi)
    if not rep_psi.decomposable:
        return RankInequalityReport(
            False, None, rp, rg, None, mode="multipartite",
            detail="superposition is not decomposable; inequality not applicable")
    rs = rep_psi.decomposition.rank
    return RankInequalityReport(
        True, rs >= abs(rp - rg), rp, rg, rs, mode="multipartite")
