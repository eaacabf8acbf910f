"""Exact best-bipartition search and the subset-sum adapter."""

import itertools
import math
import random

import pytest

from schmidtkit import (
    Bipartition,
    InvalidArgs,
    OverflowRisk,
    ProductOverflow,
    SchmidtError,
    TooFewSubsystems,
    TooManySubsystems,
    decide,
    max_schmidt_number,
    qubit_bound,
    subset_sum_to_partition,
)
from schmidtkit.partition import _lex_min_left, _value_mitm

from partition_oracle import value_bruteforce


def exhaustive_best(dims):
    """All 1-containing proper subsets, explicit tie-break: max K, then
    lexicographically smallest left tuple."""
    n = len(dims)
    total = math.prod(dims)
    best = None
    for r in range(1, n):
        for rest in itertools.combinations(range(2, n + 1), r - 1):
            left = (1,) + rest
            p = math.prod(dims[i - 1] for i in left)
            k = min(p, total // p)
            key = (-k, left)
            if best is None or key < best[0]:
                best = (key, left, k)
    return best[2], best[1]


def test_pinned_examples():
    sol = max_schmidt_number([2, 3, 4, 5])
    assert sol.k == 10
    assert sol.bipartition.left == (1, 4)
    assert sol.bipartition.right == (2, 3)
    assert (sol.left_product, sol.right_product) == (10, 12)

    sol = max_schmidt_number([2, 2, 2, 2])
    assert sol.k == 4 and sol.bipartition.left == (1, 2)

    sol = max_schmidt_number([7, 1, 1])
    assert sol.k == 1

    sol = max_schmidt_number([3, 5])
    assert sol.k == 3 and sol.bipartition.left == (1,)


def test_qubit_bound_values():
    assert [qubit_bound(n) for n in (2, 3, 4)] == [2, 2, 4]
    for n in range(2, 13):
        assert max_schmidt_number([2] * n).k == qubit_bound(n) == 2 ** (n // 2)


def test_solution_matches_exhaustive_oracle():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(2, 8)
        dims = [rng.randint(1, 9) for _ in range(n)]
        want_k, want_left = exhaustive_best(dims)
        sol = max_schmidt_number(dims)
        assert sol.k == want_k, dims
        assert sol.bipartition.left == want_left, dims
        assert min(sol.left_product, sol.right_product) == sol.k
        assert sol.k <= math.isqrt(math.prod(dims))


def test_value_searches_agree():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(2, 12)
        dims = tuple(sorted(rng.randint(1, 9) for _ in range(n)))
        assert value_bruteforce(dims) == _value_mitm(dims), dims
    # wider lists, up to the oracle's practical limit of n = 20
    for n in (14, 16, 18, 20):
        dims = tuple(rng.randint(1, 9) for _ in range(n))
        assert value_bruteforce(dims) == _value_mitm(dims), dims


def test_lex_min_left_rejects_unreachable_value():
    # left sets containing subsystem 1 have product 2 or 6, never 5 or 6 // 5
    with pytest.raises(SchmidtError):
        _lex_min_left((2, 3), 5)


def test_mitm_handles_wide_instances():
    dims = [2, 3] * 12 + [5] * 4  # n = 28, exercises the split search
    sol = max_schmidt_number(dims)
    total = math.prod(dims)
    assert sol.left_product * sol.right_product == total
    assert sol.k == min(sol.left_product, sol.right_product)
    assert sol.k <= math.isqrt(total)


def test_decide_threshold():
    assert decide([2, 2, 2, 2], 4) is not None
    assert decide([2, 2, 2, 2], 5) is None
    sol = decide([3, 5], 3)
    assert sol is not None and sol.k == 3
    # feasibility exactly matches the optimum
    for dims in ([2, 3, 4], [6, 6], [2, 2, 3, 5]):
        kmax = max_schmidt_number(dims).k
        assert decide(dims, kmax) is not None
        assert decide(dims, kmax + 1) is None
    with pytest.raises(InvalidArgs):
        decide([2, 2], 0)


def test_dimension_guards():
    with pytest.raises(TooFewSubsystems):
        max_schmidt_number([5])
    with pytest.raises(TooManySubsystems):
        max_schmidt_number([2] * 31)
    with pytest.raises(ProductOverflow):
        max_schmidt_number([2 ** 200] * 21)
    with pytest.raises(Exception):
        max_schmidt_number([2, 0, 2])


def subset_sum_dp(values, target):
    reach = {0}
    for v in values:
        reach |= {r + v for r in reach}
    return target in reach


def test_adapter_pinned_instances():
    red = subset_sum_to_partition([1, 2, 3], 3)
    assert red.plain.dims == (2, 4, 8)
    assert red.plain.target == 8
    assert decide(red.padded.dims, red.padded.target) is not None

    red = subset_sum_to_partition([5], 3)
    assert decide(red.padded.dims, red.padded.target) is None

    red = subset_sum_to_partition([2, 2], 2)
    assert decide(red.padded.dims, red.padded.target) is not None


def test_adapter_edge_targets():
    # full-sum and impossible targets, where a single balancing pad
    # would misclassify
    assert decide(*_solve([5], 5)) is not None
    assert decide(*_solve([4], 2)) is None
    assert decide(*_solve([3, 3], 6)) is not None
    assert decide(*_solve([3, 3], 5)) is None


def _solve(values, target):
    red = subset_sum_to_partition(values, target)
    return red.padded.dims, red.padded.target


def test_adapter_agrees_with_dp_oracle():
    rng = random.Random(23)
    for _ in range(120):
        n = rng.randint(1, 12)
        values = [rng.randint(1, 20) for _ in range(n)]
        top = 2 * sum(values)
        target = rng.randint(1, top)
        feasible = decide(*_solve(values, target)) is not None
        assert feasible == subset_sum_dp(values, target), (values, target)


def test_adapter_input_guards():
    with pytest.raises(InvalidArgs):
        subset_sum_to_partition([0, 2], 1)
    with pytest.raises(InvalidArgs):
        subset_sum_to_partition([2, 2], 0)
    with pytest.raises(InvalidArgs):
        subset_sum_to_partition([2, 2], 9)  # above twice the sum
    with pytest.raises(OverflowRisk):
        subset_sum_to_partition([3000], 10)


def test_tie_break_never_leaves_trivial_side():
    # whenever some split keeps both sides nontrivial, the winner does too
    for dims in ([2, 2, 1], [4, 2, 2, 1, 1], [2, 3, 4, 5]):
        sol = max_schmidt_number(dims)
        if sol.k >= 2:
            assert sol.left_product >= 2 and sol.right_product >= 2


def test_left_side_always_contains_subsystem_one():
    rng = random.Random(5)
    for _ in range(20):
        dims = [rng.randint(1, 6) for _ in range(rng.randint(2, 7))]
        sol = max_schmidt_number(dims)
        assert 1 in sol.bipartition.left
        assert isinstance(sol.bipartition, Bipartition)
