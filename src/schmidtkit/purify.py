"""Purification of density matrices and links between purifications.

A rank-r density matrix rho on system A extends to a pure state
|AR> = sum_i sqrt(p_i) |i_A>|i_R> on A plus a reference R of dimension
at least r; tracing R back out returns rho.  Any two purifications of
the same rho with equal reference dimension differ by a unitary acting
on R alone: the polar factor of B+ A, where A and B are their base x
reference matrices.  When A is itself multipartite, whether the
purification admits a joint Schmidt form is a property of rho, not of
the chosen purification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import DifferentStates, DimensionMismatch, ReferenceTooSmall, TooFewSubsystems
from .linalg import phase_fix, polar
from .multipartite import DecomposabilityReport, check_decomposable
from .state import DensityMatrix, StateTensor

__all__ = [
    "Purification",
    "purify",
    "trace_out_reference",
    "linking_unitary",
    "purification_class",
]


@dataclass(frozen=True)
class Purification:
    """A pure state on (A, R) whose trace over R gives the source matrix.

    The reference is always the last subsystem; base_dims are the
    original dims of A (possibly several subsystems).
    """

    state: StateTensor
    base_dims: tuple[int, ...]
    reference_dim: int

    def __post_init__(self):
        object.__setattr__(self, "base_dims", tuple(int(d) for d in self.base_dims))
        expect = self.base_dims + (self.reference_dim,)
        if self.state.dims != expect:
            raise DimensionMismatch(
                f"purification dims {self.state.dims} != {expect}")

    @property
    def reference_axis(self) -> int:
        """1-based index of the reference subsystem."""
        return len(self.base_dims) + 1


def _spectral(rho: DensityMatrix):
    """Eigenpairs of rho sorted descending, modes at or below RANK_TOL dropped.

    Eigenvectors are phase fixed so repeated runs produce identical
    purifications.
    """
    vals, vecs = np.linalg.eigh(rho.entries)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    keep = vals > tolerances.RANK_TOL * max(vals[0], 1.0)
    return vals[keep], phase_fix(vecs.T[keep])[0].T


def purify(
    rho: DensityMatrix,
    reference_dim: int | None = None,
    base_dims: tuple[int, ...] | None = None,
) -> Purification:
    """Standard purification |AR> = sum_i sqrt(p_i) |i_A>|i_R>.

    The reference dimension defaults to the rank of rho and must be at
    least that.  base_dims lets a composite A keep its subsystem
    structure; it defaults to treating A as a single subsystem.
    """
    dim = rho.entries.shape[0]
    if base_dims is None:
        base_dims = rho.dims
    else:
        base_dims = tuple(int(d) for d in base_dims)
        if int(np.prod(base_dims)) != dim:
            raise DimensionMismatch(
                f"base dims {base_dims} do not multiply to {dim}")
    vals, vecs = _spectral(rho)
    rank = len(vals)
    if reference_dim is None:
        reference_dim = rank
    if reference_dim < rank:
        raise ReferenceTooSmall(
            f"reference dimension {reference_dim} is below the rank {rank}")
    mat = np.zeros((dim, reference_dim), dtype=complex)
    mat[:, :rank] = vecs * np.sqrt(vals)
    amps = mat.reshape(-1)
    amps /= np.linalg.norm(amps)
    state = StateTensor(base_dims + (reference_dim,), amps)
    return Purification(state, base_dims, reference_dim)


def trace_out_reference(purification: Purification) -> DensityMatrix:
    """Recover the purified density matrix by tracing the reference."""
    m = purification.state.amplitudes.reshape(-1, purification.reference_dim)
    return DensityMatrix((m.shape[0],), m @ m.conj().T)


def linking_unitary(
    first: Purification, second: Purification
) -> tuple[np.ndarray, float]:
    """Unitary U on the reference with (I x U)|second> = |first>.

    Both purifications must share base and reference dimensions.  U is
    the transpose of the best unitary X = polar(B+ A), where A and B are
    the base x reference matrices of first and second; if B X misses A
    by more than LINK_TOL, no reference-only unitary links the two and
    DifferentStates is raised.  Returns U and the residual ||B X - A||.
    """
    if (first.base_dims != second.base_dims
            or first.reference_dim != second.reference_dim):
        raise DimensionMismatch(
            f"purifications live on different spaces: "
            f"{first.state.dims} vs {second.state.dims}")
    d = first.reference_dim
    a = first.state.amplitudes.reshape(-1, d)
    b = second.state.amplitudes.reshape(-1, d)
    x = polar(b.conj().T @ a)
    resid = float(np.linalg.norm(b @ x - a))
    if resid > tolerances.LINK_TOL:
        raise DifferentStates(
            f"linking unitary leaves residual {resid:.3e} > "
            f"{tolerances.LINK_TOL:.1e}")
    return x.T, resid


def purification_class(
    rho: DensityMatrix,
    reference_dim: int | None = None,
    base_dims: tuple[int, ...] | None = None,
) -> DecomposabilityReport:
    """Decomposability verdict for a purification of a multipartite rho.

    A must itself split into at least two subsystems so that the
    purification has three or more parts; by default the split is read
    off rho.dims.  The verdict is the same for every purification with
    the given reference dimension, since all are related by a unitary
    on the reference alone.
    """
    if base_dims is None:
        base_dims = rho.dims
    base_dims = tuple(int(d) for d in base_dims)
    if len(base_dims) < 2:
        raise TooFewSubsystems(
            f"need a composite base system, got dims {base_dims}")
    pur = purify(rho, reference_dim, base_dims)
    return check_decomposable(pur.state)
