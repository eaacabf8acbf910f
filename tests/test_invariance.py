"""Verdicts respect the paper's equivalence classes.

A product of single-site unitaries maps a joint Schmidt form onto
another, and so does a relabelling of the subsystems, so every state
reached from one of the corpus below by either must get the same
verdict.  The stage of a reject is not such an invariant: the decision
compares site 1 with the cut (1, 2) and slices the tail in its given
basis, so the stage may move, and the moves seen are declared here one by one.  A
new move fails the test, and so does a declared one that no longer
happens.
"""

import itertools

import numpy as np
import pytest

from schmidtkit import (
    SchmidtDecomposition,
    StateTensor,
    apply_local_unitaries,
    check_decomposable,
    ghz,
    haar_random_state,
    random_decomposable_state,
    reconstruct,
    w_state,
)
from schmidtkit.linalg import haar_unitary

from test_multipartite import (eqspec_state, ghz_w_mixture, swap_symmetric_state,
                               symmetric_state, w_qubits)
from test_tolerances import near_product_tail

DIAG = "SlicesNotSimultaneouslyDiagonalizable"
SCALED = "SNotScaledUnitary"


def schmidt_state(dims, weights, seed):
    """sum_l c_l |l_1>...|l_n>, c the normalised weights, Haar families."""
    rng = np.random.default_rng(seed)
    coeffs = np.sort(np.asarray(weights, float))[::-1]
    families = tuple(haar_unitary(d, rng)[:len(coeffs)] for d in dims)
    return reconstruct(SchmidtDecomposition(dims, coeffs / np.linalg.norm(coeffs), families))


CASES = {
    **{f"decomposable-{dims}-r{rank}": (lambda d=dims, r=rank: random_decomposable_state(d, r, r))
       for dims in ((2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2), (3, 2, 2, 3))
       for rank in range(1, min(dims) + 1)},
    "tie-333-111": lambda: schmidt_state((3, 3, 3), [1, 1, 1], 1),
    "tie-2222-11": lambda: schmidt_state((2, 2, 2, 2), [1, 1], 2),
    "tie-444-1111": lambda: schmidt_state((4, 4, 4), [1, 1, 1, 1], 3),
    "tie-444-2111": lambda: schmidt_state((4, 4, 4), [2, 1, 1, 1], 4),
    "near-tie-333": lambda: schmidt_state((3, 3, 3), [1, 1 + 1e-8, 0.5], 5),
    "tiny-333": lambda: schmidt_state((3, 3, 3), [1, 0.5, 1e-9], 6),
    "ghz3": lambda: ghz(3),
    "ghz4": lambda: ghz(4),
    "w3": w_state,
    "w4": lambda: w_qubits(4),
    **{f"haar-{dims}": (lambda d=dims: haar_random_state(d, seed=len(d)))
       for dims in ((2, 2, 2), (3, 3, 3), (2, 3, 4), (2, 2, 2, 2))},
    "swap12-333": lambda: swap_symmetric_state((3, 3, 3), 7),
    "swap12-2222": lambda: swap_symmetric_state((2, 2, 2, 2), 7),
    "symmetric-222": lambda: symmetric_state((2, 2, 2), 900),
    "symmetric-2222": lambda: symmetric_state((2, 2, 2, 2), 900),
    "eqspec": eqspec_state,
    **{f"ghz-w-{angle}": (lambda a=angle: ghz_w_mixture(a)) for angle in (0.05, 0.5, 1.0, 1.5)},
    "near-product-tail": lambda: near_product_tail(1e-5),
}

# (variant, stage before, stage after) for every stage that moves
DECLARED = {
    # W's slice products commute in site 3's computational basis and not
    # in a rotated one (max_commutator up to about 0.1), and the explain pass
    # runs the commute test before it reads S
    "w3": {("site-3", SCALED, DIAG), ("all-sites", SCALED, DIAG)},
    # with the non-product pair of sites first, the candidate still
    # misses the rebuild, and its S rows now overlap (2.8e-6)
    "near-product-tail": {(f"relabel-{perm}", DIAG, SCALED)
                          for perm in ((3, 4, 1, 2), (3, 4, 2, 1), (4, 3, 1, 2), (4, 3, 2, 1))},
}


def variants(state, seed):
    """Every relabelling but the identity, a Haar unitary on each site, one on all."""
    dims, n, tensor = state.dims, state.subsystem_count, state.tensor()
    moved = {}
    for perm in itertools.permutations(range(n)):
        if list(perm) != sorted(perm):
            flat = np.transpose(tensor, perm).reshape(-1)
            moved["relabel-" + str(tuple(k + 1 for k in perm))] = \
                StateTensor(tuple(dims[k] for k in perm), flat)
    rng = np.random.default_rng(seed)
    for site in range(n):
        unitaries = [np.eye(d) for d in dims]
        unitaries[site] = haar_unitary(dims[site], rng)
        moved[f"site-{site + 1}"] = apply_local_unitaries(state, unitaries)
    moved["all-sites"] = apply_local_unitaries(state, [haar_unitary(d, rng) for d in dims])
    return moved


@pytest.mark.parametrize("name", list(CASES))
def test_verdict_is_invariant_and_stage_moves_as_declared(name):
    state = CASES[name]()
    base = check_decomposable(state)
    flips = set()
    for variant, other in variants(state, list(CASES).index(name)).items():
        rep = check_decomposable(other)
        assert rep.verdict == base.verdict, variant
        if rep.stage != base.stage:
            flips.add((variant, base.stage, rep.stage))
    assert flips == DECLARED.get(name, set())
