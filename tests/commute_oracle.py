"""Pairwise oracle for the positive-product commutation witness.

positive_products_commute forms each family by one batched product and
commutes every matrix with all later ones in one batched call; this
walks the pairs one at a time instead, so the two share no logic beyond
the definition of the witness.  Quadratic in the number of slices.
"""

import itertools

import numpy as np


def commutator_pairwise(matrices) -> float:
    """Largest ||a b - b a||_F over pairs within {A A+} and within {A+ A}."""
    left = [m @ m.conj().T for m in matrices]
    right = [m.conj().T @ m for m in matrices]
    worst = 0.0
    for family in (left, right):
        for a, b in itertools.combinations(family, 2):
            worst = max(worst, float(np.linalg.norm(a @ b - b @ a)))
    return worst
