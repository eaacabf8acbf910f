"""Best-balanced bipartitions of subsystem dimension lists.

The maximum Schmidt number attainable by any pure state on subsystems
with dimensions d_1..d_n, maximized over bipartitions, is
max over subsets of min(prod(left), prod(right)).  Finding it is a
product-balancing problem (subset sum in the exponents), so the solver
is exact and combinatorial, up to 30 subsystems.  Each call builds, per
half of the list, the sets of distinct subset products of its suffixes
(with repeated dimensions, a few divisors of the half's total).  One
sorted sweep over the two halves gives the value, where decide() stops
if its target exceeds it; else the tables serve the greedy choice of
the tie-broken left set.  Products are exact integers, never logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod

from .errors import InvalidArgs, ProductOverflow, SchmidtError, TooFewSubsystems, TooManySubsystems
from .state import Bipartition, _integer, _positive_entries, _check_dims as _positive_integers

__all__ = [
    "PartitionInstance", "PartitionSolution", "SubsetSumReduction",
    "max_schmidt_number", "decide", "subset_sum_to_partition", "qubit_bound",
]

# unused by the solver: the n-band boundary `perfbench/run.py --trace 1` reports against
BRUTE_FORCE_LIMIT = 20
SUBSYSTEM_LIMIT = 30
PRODUCT_BIT_LIMIT = 4096


@dataclass(frozen=True)
class PartitionInstance:
    """A dimension list with its feasibility target."""

    dims: tuple[int, ...]
    target: int


@dataclass(frozen=True)
class PartitionSolution:
    """A bipartition achieving min-side product k."""

    bipartition: Bipartition
    left_product: int
    right_product: int
    k: int


@dataclass(frozen=True)
class SubsetSumReduction:
    """Subset-sum instance rephrased as partition problems.

    plain asks decide() whether some side reaches at least 2**target in
    log terms; padded adds two balancing dimensions sized so that the
    only way to meet its target is a perfectly balanced split, which
    forces an exact subset sum.  Query the padded instance when the
    question is exact-target feasibility; decide() accepts every one
    returned.
    """

    values: tuple[int, ...]
    target: int
    plain: PartitionInstance
    padded: PartitionInstance


def _check_limits(count: int, bits: int) -> None:
    """Refuse count subsystems, or a product of bits bits, past the solver's limits."""
    if count > SUBSYSTEM_LIMIT:
        raise TooManySubsystems(
            f"{count} subsystems exceed the supported limit {SUBSYSTEM_LIMIT}")
    if bits > PRODUCT_BIT_LIMIT:
        raise ProductOverflow(f"total dimension exceeds 2**{PRODUCT_BIT_LIMIT}")


def _check_dims(dims) -> tuple[tuple[int, ...], int]:
    dims = tuple(dims)
    if len(dims) < 2:
        raise TooFewSubsystems("a bipartition needs at least 2 subsystems")
    dims = _positive_integers(dims)
    # a list past the count limit is refused by its count, before a long product is formed
    total = prod(dims[:SUBSYSTEM_LIMIT + 1])
    _check_limits(len(dims), total.bit_length())
    return dims, total


def qubit_bound(n: int) -> int:
    """Largest Schmidt number over bipartitions of n qubits: 2**(n//2)."""
    if _integer(n, InvalidArgs, "n") < 2:
        raise TooFewSubsystems("need at least 2 qubits")
    return 2 ** (n // 2)


def max_schmidt_number(dims) -> PartitionSolution:
    """Best achievable min-side product over all bipartitions.

    Deterministic tie-break: among optimal bipartitions the returned
    left side is the lexicographically smallest index set containing
    subsystem 1.
    """
    return _solve(dims, 1)


def decide(dims, target: int) -> PartitionSolution | None:
    """A bipartition with min-side product >= target, or None.

    Feasible exactly when target <= max_schmidt_number(dims).k; the
    returned solution is the maximizer itself so the tie-break matches.
    """
    target = _integer(target, InvalidArgs, "target")
    if target < 1:
        raise InvalidArgs(f"target must be a positive integer, got {target}")
    return _solve(dims, target)


def _solve(dims, target: int) -> PartitionSolution | None:
    """The maximizer, or None as soon as its value falls below target."""
    dims, total = _check_dims(dims)
    half = len(dims) // 2
    first, second = _suffix_products(dims[:half]), _suffix_products(dims[half:])
    best = _value_mitm(first[0], second[0], total)
    if best < target:
        return None
    left = _lex_min_left(dims, best, total, first, second)
    left_prod = prod(dims[i - 1] for i in left)
    return PartitionSolution(
        Bipartition.from_left(left, len(dims)),
        left_prod, total // left_prod, best)


def _suffix_products(values) -> list[set[int]]:
    """tables[j] is the set of distinct subset products of values[j:]."""
    tables = [{1}]
    for v in reversed(values):
        tables.append(tables[-1].union(map(v.__mul__, tables[-1])))
    return tables[::-1]


def _value_mitm(first: set[int], second: set[int], total: int) -> int:
    """Largest product p1 * p2 <= isqrt(total) above 1, else 1.

    A side with product p > isqrt(total) has a complement with product
    total // p below it, so the best min-side product is the largest
    achievable product not above the root.  As p1 rises its largest
    partner only falls, at worst to the 1 that every table holds.
    """
    root = isqrt(total)
    high = sorted(second, reverse=True)
    best, j = 1, 0
    for p1 in sorted(first):
        if p1 > root:
            break
        q = p1 * high[j]
        while q > root:
            j += 1
            q = p1 * high[j]
        if q > best:
            best = q
    return best


def _lex_min_left(dims: tuple[int, ...], k: int, total: int,
                  first: list[set[int]], second: list[set[int]]) -> tuple[int, ...]:
    """Lexicographically smallest achieving left set containing index 1.

    Greedy over indices in order: stop as soon as the chosen prefix
    achieves (a shorter tuple beats any extension), otherwise include
    the next index whenever an achieving completion still exists.  A
    left product P achieves exactly when P in {k, total // k}.  The
    distinct products of dims[i + 1:] are p * q, p in first[i + 1] and
    q in second[0] inside the first half, and second[i + 1 - half]
    past it (first[half] is {1}).
    """
    half = len(first) - 1
    targets = {k, total // k}
    chosen = [0]
    prefix = dims[0]
    for i in range(1, len(dims)):
        if prefix in targets:
            break
        step = prefix * dims[i]
        rest = first[min(i + 1, half)], second[max(i + 1 - half, 0)]
        if any(_is_product(t // step, *rest) for t in targets if t % step == 0):
            chosen.append(i)
            prefix = step
    if prefix not in targets:
        raise SchmidtError("achieving set construction failed")
    return tuple(i + 1 for i in chosen)


def _is_product(goal: int, left: set[int], right: set[int]) -> bool:
    """Is goal = p * q for some p in left and q in right?  Walks the smaller table."""
    if len(left) > len(right):
        left, right = right, left
    return any(goal % p == 0 and goal // p in right for p in left)


def subset_sum_to_partition(values, target: int) -> SubsetSumReduction:
    """Rephrase exact subset sum over positive integers as partitioning.

    Each value x becomes a subsystem of dimension 2**x.  The plain
    instance keeps just those dimensions with threshold 2**target.  The
    padded instance appends dimensions 2**(S+target) and
    2**(2S-target), S = sum(values), with threshold 2**(2S): its total
    is 2**(4S), the two pads cannot share a side, and a side containing
    the second pad meets the threshold exactly when its plain values
    sum to target.  decide() on the padded instance is therefore
    equivalent to exact subset-sum feasibility.  It admits what the
    solver admits: at most 28 values, with a sum of at most 1023.
    """
    values = _positive_entries(values, InvalidArgs, "a value", "values must be positive integers")
    target = _integer(target, InvalidArgs, "target")
    s = sum(values)
    if target < 1 or target > 2 * s:
        raise InvalidArgs(
            f"target {target} outside the representable range 1..{2 * s}")
    _check_limits(len(values) + 2, 4 * s + 1)  # the padded instance's, 2**(4S) its total
    plain = PartitionInstance(tuple(2 ** v for v in values), 2 ** target)
    padded = PartitionInstance(
        plain.dims + (2 ** (s + target), 2 ** (2 * s - target)),
        2 ** (2 * s))
    return SubsetSumReduction(values, target, plain, padded)
