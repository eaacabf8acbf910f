"""Oracles for the positive-product commutation test.

positive_products_commute rotates each family {A A+} and {A+ A} that
is not already diagonal into the eigenbasis of a weighted sum of its
members, built from batched products and the Hermitian eigensolver.
commutator_eigenbasis recomputes its witness one matrix at a time from
the general (non-Hermitian) eigensolver, so the two share no logic
beyond the definition; commutator_pairwise is the pairwise definition
of commutation, quadratic in the number of slices, against which the
verdict is compared.
"""

import itertools

import numpy as np


def _families(matrices):
    left = [m @ m.conj().T for m in matrices]
    right = [m.conj().T @ m for m in matrices]
    return left, right


def commutator_pairwise(matrices) -> float:
    """Largest ||a b - b a||_F over pairs within {A A+} and within {A+ A}."""
    worst = 0.0
    for family in _families(matrices):
        for a, b in itertools.combinations(family, 2):
            worst = max(worst, float(np.linalg.norm(a @ b - b @ a)))
    return worst


def commutator_eigenbasis(matrices) -> float:
    """Largest off-diagonal |v_i+ M v_j| with v the eigenvectors of sum_c w_c M_c.

    The weights w_c are the ones positive_products_commute documents:
    numpy's default_rng(0) drawn uniformly from [1, 2], one per slice.
    The basis is unique up to phases, which leave the magnitudes alone,
    only when the combination's nonzero eigenvalues are distinct; every
    member of a PSD family vanishes on its null space, so a repeated
    zero eigenvalue does not matter.  The oracle refuses any other input.
    """
    weights = np.random.default_rng(0).uniform(1.0, 2.0, len(matrices))
    worst = 0.0
    for family in _families(matrices):
        total = sum(w * m for w, m in zip(weights, family))
        vals, vecs = np.linalg.eig(total)
        order = np.argsort(vals.real)
        vals, vecs = vals.real[order], vecs[:, order]
        nonzero = vals[vals > 1e-12]
        assert np.all(np.diff(nonzero) > 1e-6), "combination has a repeated eigenvalue"
        vecs = vecs / np.linalg.norm(vecs, axis=0)
        for m in family:
            for i, j in itertools.permutations(range(len(vals)), 2):
                entry = abs(np.vdot(vecs[:, i], m @ vecs[:, j]))
                worst = max(worst, float(entry))
    return worst
