"""Bipartite Schmidt decomposition, Schmidt number, and reduced spectra.

The bipartite decomposition always exists: flatten the state across the
cut and take the singular value decomposition.  Singular values are the
Schmidt coefficients, left singular vectors belong to the left block,
and rows of V+ (conjugated right singular vectors) to the right block.
Reduced spectra are the eigenvalues of the Gram matrix of the
flattening's smaller side, at most min(d_left, d_right) square.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from . import tolerances
from .linalg import phase_fix
from .state import (Bipartition, SchmidtDecomposition, StateTensor, _flatten,
                    _keep_set, _slabs, flatten)

__all__ = [
    "BipartiteDecomposition",
    "schmidt_decompose_bipartite",
    "schmidt_number",
    "spectra",
]


@dataclass(frozen=True)
class BipartiteDecomposition:
    """A two-family Schmidt decomposition plus the cut it came from.

    The underlying decomposition lives on the grouped dimensions
    (prod of left dims, prod of right dims); reconstructing it yields
    the state with its axes permuted to left-block-then-right-block.
    """

    decomposition: SchmidtDecomposition
    bipartition: Bipartition

    @property
    def coefficients(self) -> np.ndarray:
        return self.decomposition.coefficients

    @property
    def rank(self) -> int:
        return self.decomposition.rank


def schmidt_decompose_bipartite(
    state: StateTensor, bipartition: Bipartition
) -> BipartiteDecomposition:
    """Schmidt decomposition of a pure state across one cut.

    Coefficients are the singular values above RANK_TOL * sigma_max
    (descending).  For reproducible output each left vector's first
    nonzero component is made real positive, with the compensating
    phase pushed onto the matching right vector.
    """
    m = flatten(state, bipartition)
    u, sing, vh = np.linalg.svd(m, full_matrices=False)
    keep = sing > tolerances.RANK_TOL * sing[0]
    coeffs = sing[keep]
    left, phases = phase_fix(u.T[keep])
    right = vh[keep, :] * phases[:, None]
    dims = (left.shape[1], right.shape[1])
    dec = SchmidtDecomposition(dims, coeffs / np.linalg.norm(coeffs), (left, right))
    return BipartiteDecomposition(dec, bipartition)


def schmidt_number(state: StateTensor, bipartition: Bipartition) -> int:
    """Rank of the flattened state across the cut.

    Counts singular values above RANK_TOL * sigma_max, which equals the
    number of nonzero eigenvalues of either side's reduced density.
    """
    sing = np.linalg.svd(flatten(state, bipartition), compute_uv=False)
    return int(np.count_nonzero(sing > tolerances.RANK_TOL * sing[0]))


def spectra(state: StateTensor, keep) -> np.ndarray:
    """Eigenvalues of the reduced density on the kept subsystems.

    Read from the Gram matrix of the smaller side of the flattening
    M = keep | rest (M M+, or M^T conj(M) with the same nonzero
    eigenvalues), accurate to about 1e-16 absolute and clipped at 0.  A
    cut that is no prefix or suffix of 1..n, so no view, sums the Gram over
    slabs of the other side's first subsystem and never copies the state.
    Returned descending, padded with zeros to the kept dimension;
    keeping every subsystem gives the pure spectrum [1, 0, ...].
    """
    n = state.subsystem_count
    keep = _keep_set(keep, n)
    vals = np.zeros(prod(state.dims[i - 1] for i in keep))
    if len(keep) == n:
        vals[0] = 1.0
        return vals
    side = min(vals.size, state.amplitudes.size // vals.size)  # the Gram's dimension
    axis, parts, gram = 0, [slice(None)], None  # a prefix or suffix cut flattens to a view
    if keep[-1] != len(keep) and keep[0] != n - len(keep) + 1:  # else slab the other side
        axis = keep[0] - 1 if side < vals.size else next(i for i in range(n) if i + 1 not in keep)
        parts = _slabs(state.dims[axis], state.amplitudes.size)
    for part in parts:
        m = _flatten(state.tensor()[(slice(None),) * axis + (part,)], keep)
        m = m.T if side < vals.size else m
        gram = m @ m.conj().T if gram is None else np.add(gram, m @ m.conj().T, out=gram)
    eig = np.linalg.eigvalsh(gram)
    np.maximum(eig[::-1], 0.0, out=vals[:eig.size])
    return vals


def _spectra_doc(table: dict[tuple[int, ...], np.ndarray]) -> dict[str, list]:
    """A table of spectra as JSON lists, each subset keyed "1,3"."""
    return {",".join(map(str, subset)): spec.tolist() for subset, spec in table.items()}
