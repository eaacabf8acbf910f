"""Exhaustive oracle for the best-bipartition value.

max_schmidt_number uses a meet-in-the-middle search; this enumerates
every subset containing subsystem 1 instead, so the two share no logic
beyond the definition of the value.  Exponential in n: fine to n = 20.
"""

from math import prod


def value_bruteforce(dims) -> int:
    """max over proper subsets of min(prod(left), prod(right))."""
    dims = tuple(dims)
    # enumerate subsets of indices 2..n joined to index 1; incremental
    # products via the lowest-set-bit recurrence
    rest = dims[1:]
    n1 = len(rest)
    total = prod(dims)
    table = [1] * (1 << n1)
    for mask in range(1, 1 << n1):
        low = (mask & -mask).bit_length() - 1
        table[mask] = table[mask ^ (1 << low)] * rest[low]
    best = 1
    for mask in range(1 << n1):
        left = dims[0] * table[mask]
        if left == total:
            continue
        k = min(left, total // left)
        if k > best:
            best = k
    return best
