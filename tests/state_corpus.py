"""Seeded states that the decision tests share, and a corpus off the band.

CORPUS maps a name to a builder for each of: W_3 to W_12, GHZ_3 to GHZ_8
as given and under a Haar unitary on every site, Haar states on the
Baseline shapes (ROADMAP), states symmetric under the swap of sites 1
and 2 or of sites 1 and 3, and decomposable states at full, half and
unit rank, with exact ties and with a 1e-9 coefficient; and two GHZ_3-W_3
mixtures, whose slice products do not commute.  No item is
within a few orders of magnitude of a tolerance (the band near them is
a separate corpus), so each item's verdict and stage are settled by
every order the decision may take its steps in.
"""

import numpy as np

from schmidtkit import (SchmidtDecomposition, StateTensor, apply_local_unitaries, ghz,
                        haar_random_state, random_decomposable_state, reconstruct, w_state)
from schmidtkit.linalg import haar_unitary

BASELINE_SHAPES = ((2, 2, 2), (8, 8, 8), (16, 16, 16), (32, 32, 32),
                   (2,) * 8, (2,) * 10, (2,) * 12, (2,) * 14, (2,) * 16)


def w_qubits(n):
    """W on n qubits: equal weight on the n single-excitation basis states."""
    amps = np.zeros(2 ** n)
    amps[[2 ** k for k in range(n)]] = 1.0 / np.sqrt(n)
    return StateTensor((2,) * n, amps)


def swap_symmetric_state(dims, seed, site=2):
    """A Haar state plus its swap of sites 1 and site, normalised: those two agree."""
    tensor = haar_random_state(dims, seed).tensor()
    flat = (tensor + np.swapaxes(tensor, 0, site - 1)).reshape(-1)
    return StateTensor(dims, flat / np.linalg.norm(flat))


def rotated_ghz(n, seed):
    """GHZ_n under a seeded Haar unitary on every site."""
    rng = np.random.default_rng(seed)
    return apply_local_unitaries(ghz(n), [haar_unitary(2, rng) for _ in range(n)])


def decomposable_with(dims, coeffs, seed):
    """sum_l c_l of seeded Haar families, coefficients normalised and sorted."""
    rng = np.random.default_rng(seed)
    coeffs = np.sort(np.asarray(coeffs, float))[::-1]
    families = tuple(haar_unitary(d, rng)[:coeffs.size] for d in dims)
    return reconstruct(SchmidtDecomposition(dims, coeffs / np.linalg.norm(coeffs), families))


def shape_name(dims):
    """(2, 2, 2) as 2^3 and (2, 3, 4) as 2x3x4."""
    return f"{dims[0]}^{len(dims)}" if len(set(dims)) == 1 else "x".join(map(str, dims))


def ghz_w_mixture(angle):
    """cos(angle) GHZ_3 + sin(angle) W_3, normalised: its slice products do not commute."""
    amps = np.cos(angle) * ghz(3).amplitudes + np.sin(angle) * w_state().amplitudes
    return StateTensor((2, 2, 2), amps / np.linalg.norm(amps))


def ranks(dims):
    """Full, half and unit rank on dims, ascending."""
    return sorted({min(dims), (min(dims) + 1) // 2, 1})


DECOMPOSABLE_SHAPES = ((3, 3, 3), (8, 8, 8), (2, 3, 4), (2, 2, 2, 2), (4, 4, 4, 4), (2,) * 8)
SYMMETRIC_SHAPES = ((2, 2, 2), (3, 3, 3), (8, 8, 8), (32, 32, 32), (2, 2, 2, 2), (2,) * 6)

CORPUS = {
    **{f"w-{n}": (lambda k=n: w_qubits(k)) for n in range(3, 13)},
    **{f"ghz-{n}": (lambda k=n: ghz(k)) for n in range(3, 9)},
    **{f"rotated-ghz-{n}": (lambda k=n: rotated_ghz(k, k)) for n in range(3, 9)},
    **{f"haar-{shape_name(dims)}": (lambda d=dims: haar_random_state(d, seed=1))
       for dims in BASELINE_SHAPES},
    **{f"swap1{site}-{shape_name(dims)}":
       (lambda d=dims, s=site: swap_symmetric_state(d, 7, site=s))
       for site in (2, 3) for dims in SYMMETRIC_SHAPES},
    **{f"decomposable-{shape_name(dims)}-r{rank}":
       (lambda d=dims, r=rank: random_decomposable_state(d, r, 3))
       for dims in DECOMPOSABLE_SHAPES for rank in ranks(dims)},
    **{f"tie-{shape_name(dims)}-r{rank}":
       (lambda d=dims, r=rank: decomposable_with(d, np.ones(r), 5))
       for dims in DECOMPOSABLE_SHAPES for rank in ranks(dims)[1:]},
    **{f"tiny-{shape_name(dims)}": (lambda d=dims: decomposable_with(d, [0.8, 0.6, 1e-9], 6))
       for dims in ((3, 3, 3), (8, 8, 8), (4, 4, 4, 4))},
    **{f"ghz-w-{angle}": (lambda a=angle: ghz_w_mixture(a)) for angle in (0.5, 1.0)},
}
