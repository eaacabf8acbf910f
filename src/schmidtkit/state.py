"""Core state types and reshaping operations.

Conventions used everywhere in the package:

* Subsystems are numbered 1..n, matching the CLI cut syntax.
* Subsystem 1 is the slowest-varying index: the amplitude of basis
  state |i1 i2 ... in> sits at flat position i1*(d2*...*dn) + ... + in
  (row-major order).
* All container types are immutable after construction and validate
  their own invariants, so downstream operations can assume well-formed
  inputs.  Each check is written so that a NaN fails it.
"""

from __future__ import annotations

import operator
import string
from dataclasses import dataclass
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
from .linalg import gram_residual, row_kron

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
    return _positive_entries(dims, DimensionMismatch, "a dimension",
                             "dimensions must be positive integers")


def _positive_entries(values, error: type[Exception], entry: str, rule: str) -> tuple[int, ...]:
    """values through _integer, nonempty and each >= 1; error(rule) names the first that is not."""
    values = tuple(_integer(v, error, entry) for v in values)
    if not values:
        raise error(f"{rule}, got ()")
    for position, value in enumerate(values, 1):
        if value < 1:  # by position and count, so a long input gives a short message
            raise error(f"{rule}, got {value} at position {position} of {len(values)}")
    return values


def _integer(value, error: type[Exception], what: str) -> int:
    """value through operator.index: 2.5, 2.0 and True too raise error instead of truncating."""
    if not isinstance(value, bool):  # operator.index reads True as 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


def _subsystems(indices) -> tuple[int, ...]:
    """1-based subsystem indices, sorted; a non-integral one raises InvalidPartition."""
    return tuple(sorted(_integer(i, InvalidPartition, "a subsystem index") for i in indices))


def _sized_dims(dims) -> tuple[tuple[int, ...], int]:
    """Checked dims and their product, which must fit a numpy array's index."""
    dims = _check_dims(dims)
    total, limit = prod(dims), np.iinfo(np.intp).max
    if total > limit:
        raise DimensionMismatch(f"dims multiply to more than {limit}, the most an array holds")
    return dims, total


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
        if not abs(norm - 1.0) <= tolerances.NORM_TOL:  # a NaN fails too
            raise NotNormalizable(
                f"state norm {float(norm)} is not 1 within {tolerances.NORM_TOL}; "
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
    if not abs(norm - 1.0) <= tolerances.REPAIR_WINDOW:  # the zero vector and a NaN fail too
        raise NotNormalizable(
            f"norm {float(norm)} differs from 1 by more than {tolerances.REPAIR_WINDOW}")
    return StateTensor(dims, amps / norm, label)


@dataclass(frozen=True)
class Bipartition:
    """A two-block partition of subsystems {1..n}, both sides sorted."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        left, right = _subsystems(self.left), _subsystems(self.right)
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
        left = _subsystems(left)
        everyone = range(1, _integer(n, InvalidPartition, "n") + 1)
        return cls(left, tuple(sorted(set(everyone).difference(left))))

    @property
    def subsystem_count(self) -> int:
        return len(self.left) + len(self.right)


@dataclass(frozen=True)
class DensityMatrix:
    """A density matrix with per-subsystem dimension metadata.

    Construction checks hermiticity (largest entry of rho - rho+) and unit
    trace, both within NORM_TOL as a state's norm is, and positive
    semidefiniteness (eigenvalues above -PSD_TOL).
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
        if not herm <= tolerances.NORM_TOL:
            raise NotPSD(f"matrix is not Hermitian (residual {herm:.3e})")
        trace = entries.trace()
        if not abs(trace - 1.0) <= tolerances.NORM_TOL:
            raise DimensionMismatch(f"trace {complex(trace)} is not 1")
        low = np.linalg.eigvalsh(entries).min()
        if not low >= -tolerances.PSD_TOL:
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
    matrix whose row l is the l-th vector; each family is orthonormal.
    Both hold within ORTH_TOL.
    """

    dims: tuple[int, ...]
    coefficients: np.ndarray
    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = _check_dims(self.dims)
        coeffs = _frozen_array(self.coefficients, float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise DimensionMismatch("coefficients must be a nonempty 1-D array")
        if not np.all(coeffs > 0.0):  # a NaN fails too
            raise DimensionMismatch("coefficients must be strictly positive")
        if not np.all(np.diff(coeffs) <= 0.0):
            raise DimensionMismatch("coefficients must be sorted descending")
        if not abs(np.sum(coeffs ** 2) - 1.0) <= tolerances.ORTH_TOL:
            raise NotNormalizable("squared coefficients must sum to 1")
        if coeffs.size > min(dims):
            raise RankTooLarge(
                f"rank {coeffs.size} exceeds smallest dimension {min(dims)}")
        fams = tuple(_frozen_array(fam, complex) for fam in self.vectors)
        if len(fams) != len(dims):
            raise DimensionMismatch(
                f"need {len(dims)} vector families, got {len(fams)}")
        for k, fam in enumerate(fams):
            if fam.shape != (coeffs.size, dims[k]):
                raise DimensionMismatch(
                    f"family {k + 1} has shape {fam.shape}, expected "
                    f"({coeffs.size}, {dims[k]})")
            resid = gram_residual(fam)
            if not resid <= tolerances.ORTH_TOL:
                raise DimensionMismatch(
                    f"family {k + 1} not orthonormal (residual {resid:.3e})")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "vectors", fams)

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
    return _flatten(state.tensor(), bipartition.left)


def _flatten(tensor: np.ndarray, left: tuple[int, ...]) -> np.ndarray:
    """flatten() of a one-axis-per-subsystem tensor, left sorted 1-based and checked."""
    axes = [i - 1 for i in left]
    moved = tensor.transpose(axes + [i for i in range(tensor.ndim) if i not in axes])
    return moved.reshape(prod(moved.shape[:len(axes)]), -1)


def _slabs(length: int, size: int) -> list[slice]:
    """Slices over range(length), an axis of size entries, of about 2^13 entries each."""
    step = (1 << 13) * length // max(size, 1) or 1  # 128 KiB of complex
    return [slice(start, start + step) for start in range(0, length, step)]


def _keep_set(keep, n: int) -> tuple[int, ...]:
    """Sorted, deduplicated 1-based kept subsystems, checked against 1..n."""
    keep = tuple(sorted(set(_subsystems(keep))))
    if not keep or keep[0] < 1 or keep[-1] > n:
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
    m = _flatten(state.tensor(), keep)
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
    """Rebuild the state sum_l c_l (x)_k v_lk from a decomposition (see _rebuild)."""
    return StateTensor(decomposition.dims, _rebuild(decomposition))


def _rebuild(decomposition: SchmidtDecomposition) -> np.ndarray:
    """reconstruct()'s normalised amplitudes, built a slab at a time.

    The coefficients are folded into the first family; over each slab of
    its index the families before the last are multiplied out row by row
    and contracted with the last, so the rebuild is the one full-size array.
    """
    *leading, last = decomposition.vectors
    first = decomposition.coefficients[:, None] * (leading.pop(0) if leading else 1.0)
    total = np.empty((first.shape[1], prod(decomposition.dims[1:-1]), last.shape[1]), complex)
    for part in _slabs(len(total), first.size * total.shape[1]):
        head = first[:, part]
        for fam in leading:
            head = row_kron(head, fam)
        np.matmul(head.T, last, out=total[part].reshape(-1, last.shape[1]))
    total /= np.linalg.norm(total)
    return total.reshape(-1)


def pure_density(state: StateTensor) -> DensityMatrix:
    """The rank-one density matrix |state><state|."""
    amps = state.amplitudes
    return DensityMatrix(state.dims, np.outer(amps, amps.conj()))
