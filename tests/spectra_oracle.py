"""SVD oracle for reduced spectra.

bipartite.spectra reads a cut's spectrum from the eigenvalues of the
Gram matrix of the flattening's smaller side.  svd_spectrum takes the
other route: it moves the kept axes to the front with an einsum
relabelling, flattens kept | rest and squares the singular values of the
whole flattening.  It works on raw amplitudes and dimensions and shares
no code with the package.
"""

import string
from math import prod

import numpy as np


def svd_spectrum(amplitudes, dims, keep) -> np.ndarray:
    """Squared singular values of the flattening keep | rest.

    Descending, zero-padded to the kept dimension; keeping every
    subsystem flattens to one column, so the spectrum is [1, 0, ...].
    """
    dims = tuple(dims)
    kept = sorted({int(i) - 1 for i in keep})
    rest = [i for i in range(len(dims)) if i not in kept]
    labels = string.ascii_letters[:len(dims)]
    moved = "".join(labels[i] for i in kept + rest)
    tensor = np.einsum(f"{labels}->{moved}", np.asarray(amplitudes).reshape(dims))
    d_keep = prod(dims[i] for i in kept)
    sing = np.linalg.svd(tensor.reshape(d_keep, -1), compute_uv=False)
    vals = np.zeros(d_keep)
    vals[:sing.size] = sing ** 2
    return vals


def all_cuts_with_first(n: int):
    """Every nonempty proper subset of 1..n that contains subsystem 1."""
    return [(1,) + tuple(i + 2 for i in range(n - 1) if mask >> i & 1)
            for mask in range(2 ** (n - 1) - 1)]
