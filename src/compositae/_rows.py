"""Integer row kernel behind the triangle loops and the stored tables.

A row is a pair ``(nums, den)``: the entries are ``nums[j] / den`` with
one positive denominator for the whole row, kept canonical (``den`` is
the lcm of the entries' reduced denominators, so ``gcd(den, *nums)`` is
1 and a zero row has ``den == 1``).  The single primitive, ``combine``,
forms a linear combination of shifted rows with rational scalars: it
takes one lcm of the term denominators, sums with plain integer
multiply-adds, and reduces the finished row with one gcd sweep.  That
replaces one ``Fraction`` gcd and allocation per ``+=`` with a few per
row.  A ``CompositaTable`` stores these rows as the kernel makes them.

Denominators are per row on purpose: one denominator for a whole table
makes every entry carry the lcm of all of them, which loses badly on
inputs such as x*e^x whose entries have factorial denominators.

``Fraction`` values are converted at the boundary: ``to_row`` and
``scalars`` on the way in, ``fractions_of`` on the way out (for a caller
that reads a table's entries), and ``dot`` for the sum of a row's entries
times ``Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Sequence

Row = tuple[tuple[int, ...], int]

# (scalar numerator, scalar denominator, row, shift): the term
# scalar * x^shift * row, where entry j of the row lands at column j + shift.
Term = tuple[int, int, Row, int]

UNIT: Row = ((1,), 1)


def to_row(values: Sequence[Fraction]) -> Row:
    """The canonical row holding ``values``."""
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def scalars(values: Sequence[Fraction]) -> list[tuple[int, int, int]]:
    """(index, numerator, denominator) of each nonzero value."""
    return [(i, v.numerator, v.denominator) for i, v in enumerate(values) if v]


def fractions_of(row: Row) -> tuple[Fraction, ...]:
    """The row's entries as reduced ``Fraction`` values."""
    nums, den = row
    return tuple(Fraction(v, den) for v in nums)


def combine(terms: Iterable[Term], width: int) -> Row:
    """Sum of ``s * x^shift * row`` over ``terms``, cut to ``width`` entries.

    Terms with a zero scalar or a shift at or past ``width`` are skipped;
    entries shifted past ``width`` are dropped.  Scalars need not be
    reduced: the result is canonical.
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
        return tuple([v // g for v in acc]), den // g
    return tuple(acc), den


def dot(row: Row, values: Iterable[Fraction]) -> Fraction:
    """Sum of ``nums[j] / den * values[j]`` over the row's entries and
    ``values`` paired, over one lcm of the values' denominators."""
    nums, den = row
    live = [(a * v.numerator, v.denominator) for a, v in zip(nums, values) if a]
    common = lcm(*(b for _, b in live))
    return Fraction(sum(a * (common // b) for a, b in live), den * common)
