"""Core state types and reshaping operations.

Conventions used everywhere in the package:

* Subsystems are numbered 1..n, matching the CLI cut syntax.
* Subsystem 1 is the slowest-varying index: the amplitude of basis
  state |i1 i2 ... in> sits at flat position i1*(d2*...*dn) + ... + in
  (row-major order).
* All container types are immutable after construction and validate
  their own invariants, so downstream operations can assume well-formed
  inputs.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from math import prod

import numpy as np

from . import tolerances
from .errors import (
    DimensionMismatch,
    InvalidPartition,
    NotNormalizable,
    NotPSD,
    RankTooLarge,
)
from .linalg import row_kron

__all__ = [
    "StateTensor",
    "DensityMatrix",
    "Bipartition",
    "SchmidtDecomposition",
    "new_state",
    "flatten",
    "reduced_density",
    "partial_trace",
    "reconstruct",
    "pure_density",
]


def _check_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if len(dims) == 0 or any(d < 1 for d in dims):
        raise DimensionMismatch(f"dimensions must be positive integers, got {dims}")
    return dims


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateTensor:
    """A pure state on an ordered list of subsystems.

    Amplitudes are stored flat in row-major order and must be unit-norm
    within NORM_TOL.  Use new_state() to construct from slightly
    off-normal data (it repairs norms within REPAIR_WINDOW).
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    label: str | None = None

    def __post_init__(self):
        dims = _check_dims(self.dims)
        amps = _frozen_array(self.amplitudes, complex)
        if amps.ndim != 1 or amps.size != prod(dims):
            raise DimensionMismatch(
                f"expected {prod(dims)} amplitudes for dims {dims}, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > tolerances.NORM_TOL:
            raise NotNormalizable(
                f"state norm {norm!r} is not 1 within {tolerances.NORM_TOL}; "
                "use new_state() to repair near-normal input")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def subsystem_count(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per subsystem."""
        return self.amplitudes.reshape(self.dims)


def new_state(dims, amplitudes, label: str | None = None) -> StateTensor:
    """Validate and normalize raw amplitudes into a StateTensor.

    Inputs within REPAIR_WINDOW of unit norm are renormalized exactly;
    anything further off (including the zero vector) is rejected as a
    user error rather than silently rescaled.
    """
    dims = _check_dims(dims)
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.size != prod(dims):
        raise DimensionMismatch(
            f"expected {prod(dims)} amplitudes for dims {dims}, got {amps.size}")
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise NotNormalizable("zero vector cannot be normalized")
    if abs(norm - 1.0) > tolerances.REPAIR_WINDOW:
        raise NotNormalizable(
            f"norm {norm!r} differs from 1 by more than {tolerances.REPAIR_WINDOW}")
    return StateTensor(dims, amps / norm, label)


@dataclass(frozen=True)
class Bipartition:
    """A two-block partition of subsystems {1..n}, both sides sorted."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left = tuple(sorted(int(i) for i in self.left))
        right = tuple(sorted(int(i) for i in self.right))
        if not left or not right:
            raise InvalidPartition("both sides of a bipartition must be nonempty")
        n = len(left) + len(right)
        if set(left) & set(right):
            raise InvalidPartition(f"sides overlap: {left} | {right}")
        if set(left) | set(right) != set(range(1, n + 1)):
            raise InvalidPartition(
                f"sides {left} | {right} do not cover subsystems 1..{n}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def from_left(cls, left, n: int) -> "Bipartition":
        left = tuple(sorted(int(i) for i in left))
        right = tuple(i for i in range(1, n + 1) if i not in set(left))
        return cls(left, right)

    @property
    def subsystem_count(self) -> int:
        return len(self.left) + len(self.right)


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix with per-subsystem dimension metadata.

    Construction checks hermiticity (HERMITIAN_TOL), unit trace
    (NORM_TOL) and positive semidefiniteness (eigenvalues above
    -PSD_TOL).
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self):
        dims = _check_dims(self.dims)
        d = prod(dims)
        entries = _frozen_array(self.entries, complex)
        if entries.shape != (d, d):
            raise DimensionMismatch(
                f"expected a {d}x{d} matrix for dims {dims}, got {entries.shape}")
        herm = np.abs(entries - entries.conj().T).max()
        if herm > tolerances.HERMITIAN_TOL:
            raise NotPSD(f"matrix is not Hermitian (residual {herm:.3e})")
        trace = entries.trace()
        if abs(trace - 1.0) > tolerances.NORM_TOL:
            raise DimensionMismatch(f"trace {trace!r} is not 1")
        low = np.linalg.eigvalsh(entries).min()
        if low < -tolerances.PSD_TOL:
            raise NotPSD(f"eigenvalue {low:.3e} below -{tolerances.PSD_TOL}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """A state written as sum_l c_l v_l1 x v_l2 x ... x v_lk.

    coefficients are real, strictly positive, descending, with squares
    summing to 1.  vectors[k] holds the family for subsystem k+1 as a
    matrix whose row l is the l-th vector; each family is orthonormal
    within ORTH_TOL.
    """

    dims: tuple[int, ...]
    coefficients: np.ndarray
    vectors: tuple[np.ndarray, ...] = field(default=())

    def __post_init__(self):
        dims = _check_dims(self.dims)
        coeffs = _frozen_array(self.coefficients, float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DimensionMismatch("coefficients must be a nonempty 1-D array")
        if np.any(coeffs <= 0.0):
            raise DimensionMismatch("coefficients must be strictly positive")
        if np.any(np.diff(coeffs) > 0.0):
            raise DimensionMismatch("coefficients must be sorted descending")
        if abs(np.sum(coeffs ** 2) - 1.0) > tolerances.COEFF_NORM_TOL:
            raise NotNormalizable("squared coefficients must sum to 1")
        if coeffs.size > min(dims):
            raise RankTooLarge(
                f"rank {coeffs.size} exceeds smallest dimension {min(dims)}")
        fams = []
        for k, fam in enumerate(self.vectors):
            fam = _frozen_array(fam, complex)
            if fam.shape != (coeffs.size, dims[k]):
                raise DimensionMismatch(
                    f"family {k + 1} has shape {fam.shape}, expected "
                    f"({coeffs.size}, {dims[k]})")
            resid = np.abs(fam @ fam.conj().T - np.eye(coeffs.size)).max()
            if resid > tolerances.ORTH_TOL:
                raise DimensionMismatch(
                    f"family {k + 1} not orthonormal (residual {resid:.3e})")
            fams.append(fam)
        if len(fams) != len(dims):
            raise DimensionMismatch(
                f"need {len(dims)} vector families, got {len(fams)}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "vectors", tuple(fams))

    @property
    def rank(self) -> int:
        return self.coefficients.size


def flatten(state: StateTensor, bipartition: Bipartition) -> np.ndarray:
    """Matrix view of the state: rows = left block, columns = right block.

    Indices within each block stay in ascending subsystem order, so the
    row (column) index is the row-major flattening of the left (right)
    subsystem indices.
    """
    if bipartition.subsystem_count != state.subsystem_count:
        raise InvalidPartition(
            f"bipartition covers {bipartition.subsystem_count} subsystems, "
            f"state has {state.subsystem_count}")
    return _flatten(state, bipartition.left)


def _flatten(state: StateTensor, left: tuple[int, ...]) -> np.ndarray:
    """flatten() across left | rest, left sorted 1-based and already checked."""
    axes = [i - 1 for i in left]
    perm = axes + [i for i in range(state.subsystem_count) if i not in axes]
    d_left = prod(state.dims[i] for i in axes)
    return np.transpose(state.tensor(), perm).reshape(d_left, -1)


def _keep_set(keep, n: int) -> tuple[int, ...]:
    """Sorted, deduplicated 1-based kept subsystems, checked against 1..n."""
    keep = tuple(sorted(set(int(i) for i in keep)))
    if not keep or any(i < 1 or i > n for i in keep):
        raise InvalidPartition(f"keep set {keep} invalid for {n} subsystems")
    return keep


def reduced_density(state: StateTensor, keep) -> DensityMatrix:
    """Reduced density matrix of the kept subsystems.

    Computed as M M+ where M = flatten(state, keep | rest).  keep is a
    set of 1-based subsystem indices; the kept dimensions stay in
    ascending order.
    """
    n = state.subsystem_count
    keep = _keep_set(keep, n)
    if len(keep) == n:
        return pure_density(state)
    m = _flatten(state, keep)
    kept_dims = tuple(state.dims[i - 1] for i in keep)
    return DensityMatrix(kept_dims, m @ m.conj().T)


def partial_trace(density: DensityMatrix, keep) -> DensityMatrix:
    """Trace out everything except the kept subsystems.

    Works by index contraction on the (dims + dims)-shaped tensor, so it
    is an independent route from reduced_density and usable as an oracle
    against it.
    """
    n = len(density.dims)
    keep = _keep_set(keep, n)
    letters = string.ascii_letters
    if 2 * n > len(letters):
        raise DimensionMismatch("too many subsystems for contraction labels")
    row = list(letters[:n])
    col = list(letters[n:2 * n])
    for i in range(n):
        if (i + 1) not in keep:
            col[i] = row[i]
    out = "".join(row[i] for i in range(n) if (i + 1) in keep)
    out += "".join(col[i] for i in range(n) if (i + 1) in keep)
    tensor = density.entries.reshape(density.dims + density.dims)
    reduced = np.einsum("".join(row) + "".join(col) + "->" + out, tensor)
    kept_dims = tuple(density.dims[i - 1] for i in keep)
    d = prod(kept_dims)
    return DensityMatrix(kept_dims, reduced.reshape(d, d))


def reconstruct(decomposition: SchmidtDecomposition) -> StateTensor:
    """Rebuild the state sum_l c_l (x)_k v_lk from a decomposition.

    The coefficients are folded into the first family, the families
    before the last are multiplied out row by row, and the last one is
    contracted by a single matrix product, so no rank x total_dim array
    is ever formed.
    """
    *leading, last = decomposition.vectors
    head = decomposition.coefficients[:, None]
    for fam in leading:
        head = row_kron(head, fam)
    total = (head.T @ last).reshape(-1)
    return StateTensor(decomposition.dims, total / np.linalg.norm(total))


def pure_density(state: StateTensor) -> DensityMatrix:
    """The rank-one density matrix |state><state|."""
    amps = state.amplitudes
    return DensityMatrix(state.dims, np.outer(amps, amps.conj()))
