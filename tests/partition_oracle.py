"""Oracles for the best-bipartition value and its left set.

max_schmidt_number sweeps the sorted distinct subset products of the
two halves of the list.  value_bruteforce and value_dp are the
independent oracles: they share no logic with the solver beyond the
definition of the value, min(prod(left), prod(right)) maximized over
proper subsets.

- value_bruteforce enumerates every subset containing subsystem 1:
  exponential in n, fine to n = 20.
- value_dp keeps the set of reachable products up to the root of the
  total, dimension by dimension.  With repeated dimensions that set is
  small (divisors of the total), so it runs to n = 30; on a list of
  distinct primes it holds 2**(n-1) products and is not usable.
- value_sweep covers that case with the solver's own sweep, run on the
  subset products of the even- and odd-indexed dimensions instead of
  the solver's two halves, 2**(n/2) each.  It checks the half tables,
  not the sweep; the sweep is checked against the two oracles above.
- left_bruteforce finds the tie-broken left set itself, n <= 14.
"""

from itertools import combinations
from math import isqrt, prod

from schmidtkit.partition import _value_mitm


def value_bruteforce(dims) -> int:
    """max over proper subsets of min(prod(left), prod(right))."""
    dims = tuple(dims)
    total = prod(dims)
    best = 1
    # every subset of indices 2..n joined to index 1
    for rest in _all_products(dims[1:]):
        left = dims[0] * rest
        if left == total:
            continue
        k = min(left, total // left)
        if k > best:
            best = k
    return best


def value_dp(dims) -> set[int]:
    """Every subset product not above isqrt(prod(dims)).

    The best min-side product is the largest of them: a side above the
    root has a complement below it.
    """
    root = isqrt(prod(dims))
    reach = {1}
    for d in dims:
        reach |= {p * d for p in reach if p * d <= root}
    return reach


def value_sweep(dims) -> int:
    """The largest subset product not above isqrt(prod(dims))."""
    evens, odds = set(_all_products(dims[0::2])), set(_all_products(dims[1::2]))
    return _value_mitm(evens, odds, prod(dims))


def _all_products(values) -> list[int]:
    """Products of all 2**len(values) subsets, repeats included."""
    table = [1] * (1 << len(values))
    for mask in range(1, len(table)):
        low = (mask & -mask).bit_length() - 1
        table[mask] = table[mask ^ (1 << low)] * values[low]
    return table


def left_bruteforce(dims) -> tuple[int, ...]:
    """Lexicographically smallest optimal proper left set containing 1.

    Enumerates all 2**(n-1) - 1 candidates (1-based index tuples); the
    key is (-min-side product, left), so the best value wins first.
    """
    dims = tuple(dims)
    n = len(dims)
    total = prod(dims)
    best = None
    for size in range(n - 1):
        for rest in combinations(range(2, n + 1), size):
            left = (1, *rest)
            p = prod(dims[i - 1] for i in left)
            key = (-min(p, total // p), left)
            if best is None or key < best:
                best = key
    return best[1]
