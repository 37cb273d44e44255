from __future__ import annotations

import math

from hypothesis import given
from hypothesis import strategies as st

from compositae.combinatorics import (
    binomial,
    kronecker_delta,
    stirling_first_unsigned,
    stirling_second,
)


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=-5, max_value=45))
def test_binomial_matches_comb_and_vanishes_outside(n, k):
    if 0 <= k <= n:
        assert binomial(n, k) == math.comb(n, k)
    else:
        assert binomial(n, k) == 0


def test_stirling_second_small_table():
    # Partition numbers for n=4: {4 atop 1..4} = 1, 7, 6, 1.
    assert [stirling_second(4, k) for k in range(1, 5)] == [1, 7, 6, 1]
    assert stirling_second(0, 0) == 1
    assert stirling_second(5, 0) == 0
    assert stirling_second(3, 5) == 0


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
def test_stirling_second_recurrence(n, k):
    assert stirling_second(n + 1, k) == k * stirling_second(n, k) + stirling_second(n, k - 1)


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=9))
def test_stirling_first_recurrence(n, k):
    assert stirling_first_unsigned(n + 1, k) == n * stirling_first_unsigned(
        n, k
    ) + stirling_first_unsigned(n, k - 1)


@given(st.integers(min_value=0, max_value=10))
def test_stirling_first_row_sum_is_factorial(n):
    assert sum(stirling_first_unsigned(n, k) for k in range(n + 1)) == math.factorial(n)


def test_kronecker_delta():
    assert kronecker_delta(3, 3) == 1
    assert kronecker_delta(3, 4) == 0
