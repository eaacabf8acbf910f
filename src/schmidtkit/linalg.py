"""Small dense linear algebra helpers shared by the other modules."""

from __future__ import annotations

import numpy as np

from . import tolerances
from .errors import DimensionMismatch


def phase_fix(vector: np.ndarray, cutoff: float = 1e-12) -> tuple[np.ndarray, complex]:
    """Rotate a vector so its first nonzero component is real positive.

    Returns the rotated vector and the phase that was removed, so the
    caller can push the compensating phase onto a partner vector.  The
    first component with magnitude above cutoff * max|v| counts as the
    first nonzero one.
    """
    mags = np.abs(vector)
    top = mags.max()
    if top == 0.0:
        return vector.copy(), 1.0 + 0.0j
    idx = int(np.argmax(mags > cutoff * top))
    phase = vector[idx] / mags[idx]
    return vector * np.conj(phase), phase


def gram_residual(rows: np.ndarray) -> float:
    """Max deviation of a family of row vectors from orthonormality."""
    gram = rows @ rows.conj().T
    return float(np.abs(gram - np.eye(rows.shape[0])).max())


def is_unitary(matrix: np.ndarray, tol: float | None = None) -> bool:
    tol = tolerances.ORTH_TOL if tol is None else tol
    d = matrix.shape[0]
    if matrix.shape != (d, d):
        return False
    return bool(np.abs(matrix @ matrix.conj().T - np.eye(d)).max() <= tol)


def complete_orthonormal(rows: np.ndarray, dim: int) -> np.ndarray:
    """Extend a family of orthonormal row vectors to a full basis of C^dim.

    The completion is deterministic: standard basis vectors are folded in
    by Gram-Schmidt in index order, skipping those that are (nearly)
    dependent on the span so far.
    """
    family = [np.asarray(r, dtype=complex) for r in rows]
    if len(family) > dim:
        raise DimensionMismatch(
            f"cannot complete {len(family)} vectors in dimension {dim}")
    for j in range(dim):
        if len(family) == dim:
            break
        cand = np.zeros(dim, dtype=complex)
        cand[j] = 1.0
        for v in family:
            cand = cand - np.vdot(v, cand) * v
        norm = np.linalg.norm(cand)
        # anything above sqrt-eps survives two orthogonalization passes
        if norm > tolerances.COMPLETION_TOL:
            cand = cand / norm
            for v in family:
                cand = cand - np.vdot(v, cand) * v
            cand = cand / np.linalg.norm(cand)
            family.append(cand)
    if len(family) != dim:
        raise DimensionMismatch("orthonormal completion failed")
    return np.array(family)


def row_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product: row l is np.kron(a[l], b[l])."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # normalize the QR phase ambiguity so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def common_hermitian_eigenbasis(matrices: list[np.ndarray]) -> np.ndarray:
    """Joint eigenbasis of a family of commuting Hermitian matrices.

    Starts from the eigendecomposition of the sum (ascending eigenvalues)
    and refines within each degenerate block using the individual
    matrices one at a time.  Columns of the returned unitary are the
    shared eigenvectors; ordering is deterministic for a fixed input.
    Eigenvalues within EIGEN_GAP_TOL * max(1, max|v|) count as degenerate.
    """
    def split(values):
        scale = max(1.0, float(np.abs(values).max(initial=0.0)))
        return _split_blocks(values, tolerances.EIGEN_GAP_TOL * scale)

    d = matrices[0].shape[0]
    total = np.zeros((d, d), dtype=complex)
    for m in matrices:
        total = total + m
    vals, basis = np.linalg.eigh(total)
    blocks = split(vals)
    for m in matrices:
        if all(len(b) == 1 for b in blocks):
            break
        new_blocks: list[list[int]] = []
        for block in blocks:
            if len(block) == 1:
                new_blocks.append(block)
                continue
            sub = basis[:, block]
            proj = sub.conj().T @ m @ sub
            proj = (proj + proj.conj().T) / 2
            w, v = np.linalg.eigh(proj)
            basis[:, block] = sub @ v
            for piece in split(w):
                new_blocks.append([block[i] for i in piece])
        blocks = new_blocks
    return basis


def _split_blocks(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group runs of sorted values whose neighbours differ by at most tol.

    Works for ascending and descending input alike; returns index lists.
    """
    blocks: list[list[int]] = []
    current = [0]
    for i in range(1, len(values)):
        if abs(values[i] - values[i - 1]) <= tol:
            current.append(i)
        else:
            blocks.append(current)
            current = [i]
    blocks.append(current)
    return blocks
