"""Small exact-integer combinatorics kit used by the closed forms and checkers."""

from __future__ import annotations

from functools import lru_cache
from math import comb


def binomial(n: int, k: int) -> int:
    """C(n, k) with the zero-extension convention outside 0 <= k <= n."""
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


@lru_cache(maxsize=None)
def stirling_second(n: int, k: int) -> int:
    """Stirling numbers of the second kind, S(n, k)."""
    if n == 0 and k == 0:
        return 1
    if k <= 0 or k > n:
        return 0
    return k * stirling_second(n - 1, k) + stirling_second(n - 1, k - 1)


@lru_cache(maxsize=None)
def stirling_first_unsigned(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind (cycle counts)."""
    if n == 0 and k == 0:
        return 1
    if k <= 0 or k > n:
        return 0
    return (n - 1) * stirling_first_unsigned(n - 1, k) + stirling_first_unsigned(n - 1, k - 1)


def kronecker_delta(n: int, k: int) -> int:
    return 1 if n == k else 0
