"""Small dense linear algebra helpers shared by the other modules."""

from __future__ import annotations

import numpy as np


def phase_fix(vector: np.ndarray) -> tuple[np.ndarray, complex]:
    """Rotate a vector so its first nonzero component is real positive.

    Returns the rotated vector and the phase that was removed, so the
    caller can push the compensating phase onto a partner vector.  The
    first component with magnitude above 1e-12 * max|v| counts as the
    first nonzero one.
    """
    mags = np.abs(vector)
    top = mags.max()
    if top == 0.0:
        return vector.copy(), 1.0 + 0.0j
    idx = int(np.argmax(mags > 1e-12 * top))
    phase = vector[idx] / mags[idx]
    return vector * np.conj(phase), phase


def gram_residual(rows: np.ndarray) -> float:
    """Max deviation of a family of row vectors from orthonormality."""
    gram = rows @ rows.conj().T
    return float(np.abs(gram - np.eye(rows.shape[0])).max())


def polar(m: np.ndarray) -> np.ndarray:
    """Polar factor u @ vh of the thin SVD of m.

    It is the nearest matrix to m with orthonormal rows or columns, so
    polar(B+ A) is the unitary X minimising ||B X - A|| (orthogonal
    Procrustes).
    """
    u, _, vh = np.linalg.svd(m, full_matrices=False)
    return u @ vh


def row_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product: row l is np.kron(a[l], b[l])."""
    return (a[:, :, None] * b[:, None, :]).reshape(a.shape[0], -1)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # normalize the QR phase ambiguity so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


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
