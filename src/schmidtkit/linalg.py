"""Small dense linear algebra helpers shared by the other modules."""

from __future__ import annotations

import numpy as np

from . import tolerances


def phase_fix(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each row of a family so its first nonzero component is real positive.

    Returns the rotated rows as a new array and one phase per row, the
    phase that was removed, so the caller can push the compensating
    phase onto a partner vector.  In each row the first component with
    magnitude above PHASE_TOL * max|row| counts as the first nonzero
    one; a zero row is returned unchanged with phase 1.
    """
    mags = np.abs(rows)
    top = np.maximum.reduce(mags, 1, keepdims=True)
    lead = np.arange(len(rows)), (mags > tolerances.PHASE_TOL * top).argmax(1)
    size, phases = mags[lead], rows[lead]
    zero = size == 0.0  # phase 1, and the row's signed zeros kept as they are
    size[zero] = phases[zero] = 1.0
    phases /= size
    fixed = rows * phases.conj()[:, None]
    np.copyto(fixed, rows, where=zero[:, None])
    return fixed, phases


def gram_residual(rows: np.ndarray) -> float:
    """Max deviation of a family of row vectors from orthonormality."""
    gram = rows @ rows.conj().T
    gram.flat[::len(gram) + 1] -= 1.0
    return float(np.abs(gram).max())


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

