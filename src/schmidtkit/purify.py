"""Purification of density matrices and links between purifications.

A rank-r density matrix rho on system A extends to a pure state
|AR> = sum_i sqrt(p_i) |i_A>|i_R> on A plus a reference R of dimension
at least r; tracing R back out returns rho, on rho's own dims.  A
purification keeps rho's subsystems and adds R as the last one.  Any
two purifications of the same rho with equal reference dimension
differ by a unitary acting on R alone: the polar factor of B+ A, where
A and B are their base x reference matrices.  When A is itself
multipartite, whether the purification admits a joint Schmidt form is
a property of rho, not of the chosen purification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import (DifferentStates, DimensionMismatch, InvalidArgs, ReferenceTooSmall,
                     TooFewSubsystems)
from .linalg import phase_fix, polar
from .multipartite import DecomposabilityReport, check_decomposable
from .state import DensityMatrix, StateTensor, _integer, reduced_density

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

    The reference R is the last subsystem; A is every subsystem before
    it, so the state needs at least two.
    """

    state: StateTensor

    def __post_init__(self):
        if self.state.subsystem_count < 2:
            raise TooFewSubsystems(
                f"a purification needs a reference subsystem, got dims {self.state.dims}")

    @property
    def base_dims(self) -> tuple[int, ...]:
        return self.state.dims[:-1]

    @property
    def reference_dim(self) -> int:
        return self.state.dims[-1]


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


def purify(rho: DensityMatrix, reference_dim: int | None = None) -> Purification:
    """Standard purification |AR> = sum_i sqrt(p_i) |i_A>|i_R>.

    The state's dims are rho.dims followed by the reference dimension,
    which defaults to the rank of rho and must be at least that.
    """
    dim = rho.entries.shape[0]
    vals, vecs = _spectral(rho)
    rank = len(vals)
    reference_dim = _integer(rank if reference_dim is None else reference_dim, InvalidArgs,
                             "reference_dim")
    if reference_dim < rank:
        raise ReferenceTooSmall(
            f"reference dimension {reference_dim} is below the rank {rank}")
    mat = np.zeros((dim, reference_dim), dtype=complex)
    mat[:, :rank] = vecs * np.sqrt(vals)
    amps = mat.reshape(-1)
    amps /= np.linalg.norm(amps)
    return Purification(StateTensor(rho.dims + (reference_dim,), amps))


def trace_out_reference(purification: Purification) -> DensityMatrix:
    """Recover the purified density matrix, on its own dims, by tracing R out."""
    state = purification.state
    return reduced_density(state, range(1, state.subsystem_count))


def linking_unitary(
    first: Purification, second: Purification
) -> tuple[np.ndarray, float]:
    """Unitary U on the reference with (I x U)|second> = |first>.

    Both purifications must have the same dims.  U is the transpose of
    the best unitary X = polar(B+ A), where A and B are the base x
    reference matrices of first and second; if B X misses A by more
    than LINK_TOL, no reference-only unitary links the two and
    DifferentStates is raised.  Returns U and the residual ||B X - A||.
    """
    if first.state.dims != second.state.dims:
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


def purification_class(rho: DensityMatrix) -> DecomposabilityReport:
    """Decomposability verdict for the purification of a multipartite rho.

    rho.dims must name at least two subsystems, so that the purification
    has three or more parts; otherwise check_decomposable raises
    TooFewSubsystems.  The verdict is the same for every purification
    with the same reference dimension, since all are related by a
    unitary on the reference alone.
    """
    return check_decomposable(purify(rho).state)
