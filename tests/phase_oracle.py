"""One-vector oracle for the phase rule.

linalg.phase_fix fixes the phase of a whole family at once.
phase_fix_row is the rule written for one vector: the first component
with magnitude above PHASE_TOL * max|v| is made real positive, and a
zero vector is copied with phase 1.  Applied row by row it gives the
reference bits for the family version.
"""

import numpy as np

from schmidtkit import tolerances


def phase_fix_row(vector: np.ndarray) -> tuple[np.ndarray, complex]:
    """The rotated vector and the phase removed from it."""
    mags = np.abs(vector)
    top = mags.max()
    if top == 0.0:
        return vector.copy(), 1.0 + 0.0j
    idx = int(np.argmax(mags > tolerances.PHASE_TOL * top))
    phase = vector[idx] / mags[idx]
    return vector * np.conj(phase), phase
