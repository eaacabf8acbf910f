"""Exact best-bipartition search and the subset-sum adapter."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schmidtkit import (
    Bipartition,
    DimensionMismatch,
    InvalidArgs,
    ProductOverflow,
    SchmidtError,
    TooFewSubsystems,
    TooManySubsystems,
    decide,
    max_schmidt_number,
    qubit_bound,
    subset_sum_to_partition,
)
from schmidtkit import partition
from schmidtkit.partition import _lex_min_left, _suffix_products

from partition_oracle import left_bruteforce, value_bruteforce, value_dp, value_sweep


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
    with pytest.raises(TooFewSubsystems):
        qubit_bound(1)
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
        assert value_bruteforce(dims) == max_schmidt_number(dims).k, dims
    # wider lists, up to the oracle's practical limit of n = 20
    for n in (14, 16, 18, 20):
        dims = tuple(rng.randint(1, 9) for _ in range(n))
        assert value_bruteforce(dims) == max_schmidt_number(dims).k, dims


def test_lex_min_left_rejects_unreachable_value():
    # left sets containing subsystem 1 have product 2 or 6, never 5 or 6 // 5
    with pytest.raises(SchmidtError):
        _lex_min_left((2, 3), 5, 6, _suffix_products((2,)), _suffix_products((3,)))


def first_primes(n):
    primes = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def padded_instance(rng, count, top):
    """Dims of a padded subset-sum instance over count values in 1..top, and S."""
    values = [rng.randint(1, top) for _ in range(count)]
    s = sum(values)
    return subset_sum_to_partition(values, rng.randint(1, 2 * s)).padded.dims, s


def structured_lists(rng, n):
    """Repeated, 1-padded and 2**x lists of length n, the cases that
    collapse to few distinct products."""
    pool = [rng.randint(2, 12) for _ in range(rng.randint(1, 3))]
    return [
        [rng.choice(pool) for _ in range(n)],
        [rng.choice([1, 1, 1, 2, 3, 6]) for _ in range(n)],
        [1] * (n - 2) + [rng.randint(2, 9), rng.randint(2, 9)],
        padded_instance(rng, n - 2, 6)[0],
    ]


def test_solution_matches_oracles_on_structured_lists():
    rng = random.Random(29)
    for n in range(3, 15):
        for dims in structured_lists(rng, n) + [[rng.randint(2, 9) for _ in range(n)]]:
            sol = max_schmidt_number(dims)
            assert sol.k == max(value_dp(dims)), dims
            assert sol.bipartition.left == left_bruteforce(dims), dims


def test_value_matches_dp_oracle_at_width():
    rng = random.Random(37)
    for n in (24, 27, 30):
        lists = structured_lists(rng, n) + [
            [2] * n, [rng.randint(2, 9) for _ in range(n)],
            [rng.randint(2, 9) for _ in range(n)]]
        for dims in lists:
            sol = max_schmidt_number(dims)
            assert sol.k == max(value_dp(dims)), dims
            assert sol.left_product in (sol.k, math.prod(dims) // sol.k), dims


def test_value_on_duplicate_free_list():
    # every subset product is distinct: the worst case for the half tables
    dims = first_primes(30)
    sol = max_schmidt_number(dims)
    assert sol.k == value_sweep(dims)
    assert min(sol.left_product, sol.right_product) == sol.k


def test_oracles_agree():
    rng = random.Random(41)
    for _ in range(40):
        dims = [rng.randint(1, 9) for _ in range(rng.randint(2, 12))]
        assert value_bruteforce(dims) == max(value_dp(dims)) == value_sweep(dims), dims
    assert value_sweep(first_primes(12)) == value_bruteforce(first_primes(12))


@pytest.fixture
def half_tables(monkeypatch):
    """The suffix tables max_schmidt_number builds, one list per half."""
    built = []
    build = partition._suffix_products

    def recording(values):
        built.append(build(values))
        return built[-1]

    monkeypatch.setattr(partition, "_suffix_products", recording)
    return built


def test_padded_instances_keep_distinct_products_only(half_tables):
    # the padded total is 2**(4S): a half's products are powers of two
    # with distinct exponent sums <= 4S (Bellman's bound), and the first
    # half, which holds no pad, sums to at most S
    rng = random.Random(43)
    for _ in range(5):
        dims, s = padded_instance(rng, 28, 8)
        assert len(dims) == 30 and math.prod(dims) == 2 ** (4 * s)
        half_tables.clear()
        max_schmidt_number(dims)
        first, second = half_tables
        assert len(first[0]) <= s + 1
        assert len(second[0]) <= 4 * s + 1


def test_qubit_tables_hold_one_product_per_size(half_tables):
    max_schmidt_number((2,) * 30)
    first, second = half_tables
    assert len(first[0]) == len(second[0]) == 16


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
    with pytest.raises(InvalidArgs):  # not read as 2, which the k = 2 split meets
        decide((2, 3), 2.5)


def test_dimension_guards():
    with pytest.raises(TooFewSubsystems):
        max_schmidt_number([5])
    with pytest.raises(TooManySubsystems):
        max_schmidt_number([2] * 31)
    with pytest.raises(ProductOverflow):
        max_schmidt_number([2 ** 200] * 21)
    with pytest.raises(Exception):
        max_schmidt_number([2, 0, 2])
    with pytest.raises(DimensionMismatch):
        max_schmidt_number((2.5, 3))


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
    with pytest.raises(ProductOverflow):
        subset_sum_to_partition([3000], 10)
    with pytest.raises(InvalidArgs):
        subset_sum_to_partition((1.7, 2), 2)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 120), min_size=1, max_size=32), st.integers(0, 2 ** 32))
@example([1000, 23], 0)  # sum 1023: padded total 2**4092, admitted
@example([1000, 24], 0)  # sum 1024: 2**4096, one bit past the limit
@example([1] * 28, 0)  # 30 padded subsystems, admitted
@example([1] * 29, 0)
@example([10 ** 12], 0)  # refused before 2**(4 * 10**12) is built
def test_adapter_returns_only_instances_decide_accepts(values, draw):
    target = 1 + draw % (2 * sum(values))
    try:
        red = subset_sum_to_partition(values, target)
    except TooManySubsystems:
        assert len(values) > 28
        return
    except ProductOverflow:
        assert sum(values) > 1023 and len(values) <= 28
        return
    assert len(values) <= 28 and sum(values) <= 1023
    feasible = decide(red.padded.dims, red.padded.target) is not None
    assert feasible == subset_sum_dp(values, target), (values, target)


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
