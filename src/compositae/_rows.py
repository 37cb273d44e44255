"""Integer row kernel behind the triangle loops.

A row is a pair ``(nums, den)``: the entries are ``nums[j] / den`` with
one positive denominator for the whole row, kept canonical (``den`` is
the lcm of the entries' reduced denominators, so ``gcd(den, *nums)`` is
1 and a zero row has ``den == 1``).  The single primitive, ``combine``,
forms a linear combination of shifted rows with rational scalars: it
takes one lcm of the term denominators, sums with plain integer
multiply-adds, and reduces the finished row with one gcd sweep.  That
replaces one ``Fraction`` gcd and allocation per ``+=`` with a few per
row.

Denominators are per row on purpose: one denominator for a whole table
makes every entry carry the lcm of all of them, which loses badly on
inputs such as x*e^x whose entries have factorial denominators.

``Fraction`` values are converted once per entry at the boundary:
``to_row`` and ``scalars`` on the way in, ``fractions_of`` (or one
``Fraction(num, den)`` per entry) on the way out, and ``dot`` for single
sums; the public table and series types keep holding reduced
``Fraction`` entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence

Row = tuple[list[int], int]

# (scalar numerator, scalar denominator, row, shift): the term
# scalar * x^shift * row, where entry j of the row lands at column j + shift.
Term = tuple[int, int, Row, int]

UNIT: Row = ([1], 1)


def to_row(values: Sequence[Fraction]) -> Row:
    """The canonical row holding ``values``."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def scalars(values: Sequence[Fraction]) -> list[tuple[int, int, int]]:
    """(index, numerator, denominator) of each nonzero value."""
    return [(i, v.numerator, v.denominator) for i, v in enumerate(values) if v]


def fractions_of(row: Row) -> tuple[Fraction, ...]:
    """The row's entries as reduced ``Fraction`` values."""
    nums, den = row
    if den == 1:
        return tuple(map(Fraction, nums))
    return tuple(Fraction(v, den) for v in nums)


def combine(terms: Iterable[Term], width: int) -> Row:
    """Sum of ``s * x^shift * row`` over ``terms``, cut to ``width`` entries.

    Terms with a zero scalar or a shift at or past ``width`` are skipped;
    entries shifted past ``width`` are dropped.
    """
    live = [t for t in terms if t[0] and t[3] < width]
    den = lcm(*(s_den * row[1] for _, s_den, row, _ in live))
    acc = [0] * width
    for s_num, s_den, (nums, row_den), shift in live:
        scale = s_num * (den // (s_den * row_den))
        end = shift + len(nums)
        if end > width:
            nums = nums[: width - shift]
            end = width
        acc[shift:end] = map(add, acc[shift:end], map(mul, nums, repeat(scale)))
    g = gcd(den, *acc)
    if g > 1:
        acc = [v // g for v in acc]
        den //= g
    return acc, den


def dot(scalars: Iterable[Fraction], values: Iterable[Fraction]) -> Fraction:
    """Sum of ``s * v`` over paired ``Fraction`` values, by ``combine``."""
    (num,), den = combine(
        (
            (s.numerator, s.denominator, ([v.numerator], v.denominator), 0)
            for s, v in zip(scalars, values)
            if v
        ),
        1,
    )
    return Fraction(num, den)
